"""Bit-packed Boolean matrices.

A square matrix over {0,1} is stored as one Python int per row, bit j of
``rows[i]`` holding entry (i, j).  Python ints are arbitrary-precision bit
vectors, so the inner loops of the Boolean (OR-AND) product and of the
row-intersection operator run a machine word at a time, and equality and
hashing are bit-exact with no padding pitfalls.

The row-intersection operator ``gamma`` sends A to the symmetric matrix
with zero diagonal whose (i, j) entry is 1 iff rows i and j of A share a
set column; it is the adjacency matrix of the competition graph of the
digraph whose adjacency matrix is A.

A ``BoolMatrix`` is also the digraph on vertices 1..n whose adjacency
matrix it is: (u, v) is an arc iff bit v-1 of ``rows[u-1]`` is set.
``from_arcs`` builds one from 1-based arcs, and ``arc_list``, ``arcs``,
``self_loops`` and ``successors`` read the arcs back.

``bool_mul`` picks its method from the left factor.  A dense one (n >= 64
and at least n^2/16 set entries) goes through Four Russians tables
(Arlazarov, Dinic, Kronrod & Faradzev, 1970): the rows of the right factor
are cut into groups of 8, the 256 ORs of each group's subsets are
tabulated, and each row of the product ORs one table entry per nonzero
byte of the matching left row: at most n^2/8 row ORs, plus 32n for the
tables, where the set-bit walk takes one per set entry, n^2/2 on a
half-full matrix.  Any other left factor walks its cached ``successors``
lists, one row OR per set entry, so repeated products with the same left
factor find its set bits once.  The oracle's power walk reads the same
lists for its own row steps.

``parse_matrix`` and ``format_matrix`` read and write the matrix text
format: the dimension on line 1, then one row of 0s and 1s per line.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import compress
from typing import Iterable, Iterator, Sequence

from ._record import frozen

__all__ = [
    "BoolMatrix",
    "DimensionMismatchError",
    "ParseError",
    "bool_mul",
    "bool_pow",
    "gamma",
    "parse_matrix",
    "format_matrix",
]


class DimensionMismatchError(ValueError):
    """Two matrices were combined but their dimensions differ."""


class ParseError(ValueError):
    """Malformed input text.  ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@frozen
class BoolMatrix:
    """n x n matrix over {0,1}; ``rows[i]`` has bit j set iff entry (i,j) is 1.

    Canonical form: bits at positions >= n are zero, so two values compare
    equal iff they are the same matrix.

    Read as a digraph on 1-based vertex ids, (u, v) is an arc iff entry
    (u-1, v-1) is 1.  ``arcs``, ``self_loops`` and ``successors`` are
    derived from the rows only when asked for, once per matrix.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.rows)}")
        for i, r in enumerate(self.rows):
            if r < 0 or r >> self.n:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "BoolMatrix":
        n = len(entries)
        rows = []
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            acc = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"entry ({i},{j}) is {e!r}, expected 0 or 1")
                acc |= e << j
            rows.append(acc)
        return cls(n, tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, tuple(1 << i for i in range(n)))

    def columns(self) -> list[int]:
        """Column masks: bit i of ``columns()[j]`` is entry (i, j)."""
        n = self.n
        if 16 * sum(r.bit_count() for r in self.rows) >= n * (n + 64):
            # dense: transpose the rows' binary digit strings in C, at
            # O(n^2) character steps instead of O(set entries) Python steps
            fmt = f"0{n}b"
            cols = [int("".join(c), 2) for c in zip(*(format(r, fmt) for r in reversed(self.rows)))]
            cols.reverse()
            return cols
        cols = [0] * n
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return cols

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "BoolMatrix":
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        rows = [0] * n
        for u, v in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u},{v}) outside 1..{n}")
            rows[u - 1] |= 1 << (v - 1)
        return cls(n, tuple(rows))

    def arc_list(self) -> list[tuple[int, int]]:
        """Every arc (u, v), in sorted order."""
        return [(u + 1, v + 1) for u, r in enumerate(self.rows) for v in _bit_indices(r)]

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arc_list())

    @cached_property
    def self_loops(self) -> tuple[int, ...]:
        return tuple(u + 1 for u, r in enumerate(self.rows) if (r >> u) & 1)

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """successors[i] lists the set columns of row i in increasing order:
        the 0-based heads of the arcs out of vertex i + 1."""
        return tuple(tuple(_bit_indices(r)) for r in self.rows)

    def __repr__(self):
        body = ",".join(format(r, "b").zfill(self.n)[::-1] for r in self.rows)
        return f"BoolMatrix({self.n}, [{body}])"


def _bit_indices(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")  # ASCII "0", "1" to bytes 0, 1


def _bit_select(items: Iterable, mask: int) -> Iterator:
    """The items at the set bits of mask, item k for bit k, in order."""
    # digit k of the reversed binary string is bit k of mask: one C pass
    return compress(items, format(mask, "b")[::-1].encode().translate(_DIGIT_FLAGS))


def _check_same_dim(a: BoolMatrix, b: BoolMatrix) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"dimensions differ: {a.n} vs {b.n}")


def bool_mul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Boolean product: entry (i,j) of the result is 1 iff some k has
    a[i,k] = b[k,j] = 1, so row i of the result is the OR of the rows of b
    indexed by the set bits of row i of a.

    A dense a (n >= 64 and 16 * set entries >= n^2) takes the Four Russians
    path of ``_four_russians``; any other a ORs ``brows[k]`` for each k in
    ``a.successors[i]``, which a caches, so a left factor used again costs
    no second bit walk."""
    _check_same_dim(a, b)
    n = a.n
    brows = b.rows
    if n >= 64 and 16 * sum(map(int.bit_count, a.rows)) >= n * n:
        return BoolMatrix(n, _four_russians(a.rows, brows, n))
    return BoolMatrix(n, _times(a.successors, brows))


def _times(succ: tuple[tuple[int, ...], ...], rows: tuple[int, ...]) -> tuple[int, ...]:
    """The rows of A * X, where succ is ``A.successors`` and rows are the
    rows of X: row i ORs the rows of X that succ[i] picks."""
    out = []
    for picks in succ:
        acc = 0
        for k in picks:
            acc |= rows[k]
        out.append(acc)
    return tuple(out)


def _four_russians(arows: tuple[int, ...], brows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Rows of the product of the n x n matrices with rows arows and brows,
    one group of 8 rows of b at a time.

    Entry s of a group's table is the OR of the group's rows picked by the
    set bits of s; it is built by doubling, t[s + 2^k] = t[s] | row k, one
    OR per entry, and a short last group gets 2^len entries.  Byte g of a
    row of a picks the entry of group g, and a zero byte is skipped.  Only
    one table lives at a time, so the extra memory is O(n) ints."""
    nbytes = (n + 7) // 8
    # byte g of row i of a is flat[i * nbytes + g], so flat[g::nbytes] is column g
    flat = b"".join(r.to_bytes(nbytes, "little") for r in arows)
    out = [0] * n
    for g in range(nbytes):
        table = [0]
        for r in brows[8 * g : 8 * g + 8]:
            table += [t | r for t in table]
        out = [acc | table[byte] if byte else acc for acc, byte in zip(out, flat[g::nbytes])]
    return tuple(out)


def bool_pow(a: BoolMatrix, m: int) -> BoolMatrix:
    """Boolean m-th power by repeated squaring; bool_pow(a, 0) is I.

    The product of the squarings at m's set bits (``_ladder_power``), so
    nothing is squared past m's top bit and no product starts from I:
    m = 1000 takes 14 products, not 16.  Records are immutable, so
    bool_pow(a, 1) may be, and is, a itself."""
    if m < 0:
        raise ValueError(f"exponent must be >= 0, got {m}")
    if m == 0:
        return BoolMatrix.identity(a.n)
    return _ladder_power([a], m)


def _ladder_power(squares: list[BoolMatrix], m: int) -> BoolMatrix:
    """A^m for m >= 1, where squares is the ladder [A, A^2, A^4, ...]:
    the ladder is first squared up to A^(2^k), k the top bit of m, in
    place, and then its entries at the set bits of m are multiplied, one
    product per set bit past the first."""
    while len(squares) < m.bit_length():
        squares.append(bool_mul(squares[-1], squares[-1]))
    return reduce(bool_mul, (s for k, s in enumerate(squares) if m >> k & 1))


def gamma(a: BoolMatrix) -> BoolMatrix:
    """Row-intersection operator: result (i,j) = 1 iff i != j and rows i, j
    of a share a set column.  Always symmetric with zero diagonal.  Kept
    pairwise, n^2/2 row ANDs: most calls are ``verify``'s, at n <= 24, where
    A * A^T is slower (18 against 7-10 us at n = 9).  But callers also run
    it large: ``m_step_competition`` at any n (3.1 ms at n = 206, 0.41 s on
    Wielandt's n = 2048), ``simulate_limit`` per tail graph up to n = 2048
    (0.37 s at n = 2000), where the product would win once a size threshold
    is measured (ROADMAP.md, item 2).  Times on a 2-core Intel Xeon."""
    n = a.n
    rows = a.rows
    out = [0] * n
    for i in range(n):
        ri = rows[i]
        if not ri:
            continue
        for j in range(i + 1, n):
            if ri & rows[j]:
                out[i] |= 1 << j
                out[j] |= 1 << i
    return BoolMatrix(n, tuple(out))


def _decimal(token: str) -> int:
    """token as an int when it is ASCII digits after an optional "-";
    ValueError otherwise.  int() alone would also take "+", "_" and
    non-ASCII digits such as "\u0663"."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_matrix(text: str) -> BoolMatrix:
    """Parse the matrix text format: line 1 is the dimension n in decimal,
    lines 2..n+1 are rows of exactly n characters from {0,1}."""
    lines = text.splitlines()
    if not lines:
        raise ParseError(1, "empty input")
    head = lines[0].strip()
    try:
        n = _decimal(head)
    except ValueError:
        raise ParseError(1, f"expected a decimal dimension, got {head!r}") from None
    if n < 1:
        raise ParseError(1, f"dimension must be >= 1, got {n}")
    if len(lines) < n + 1:
        raise ParseError(len(lines) + 1, f"expected {n} rows, input ends after row {len(lines) - 1}")
    rows = []
    for i in range(n):
        lineno = i + 2
        row = lines[i + 1].strip()
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} characters, got {len(row)}")
        # int(..., 2) would also take "_", a sign or spaces: check {0, 1} first
        if row.count("0") + row.count("1") != n:
            j = next(j for j, ch in enumerate(row) if ch not in "01")
            raise ParseError(lineno, f"invalid character {row[j]!r} at column {j + 1}")
        rows.append(int(row[::-1], 2))
    for extra in range(n + 1, len(lines)):
        if lines[extra].strip():
            raise ParseError(extra + 1, "trailing content after matrix rows")
    return BoolMatrix(n, tuple(rows))


def format_matrix(a: BoolMatrix) -> str:
    """Inverse of parse_matrix; newline-terminated, bit-exact."""
    body = "\n".join(
        "".join("1" if (r >> j) & 1 else "0" for j in range(a.n)) for r in a.rows
    )
    return f"{a.n}\n{body}\n"
