"""Bit-packed matrices: kernels against naive oracles, cycle detection,
text format round trips."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from compseq import (
    BoolMatrix,
    DimensionMismatchError,
    ParseError,
    SizeCapError,
    UndirectedGraph,
    bool_mul,
    bool_pow,
    format_matrix,
    gamma,
    parse_matrix,
    simulate_limit,
)
from compseq import bmat, graphs, oracle
from conftest import (
    bool_matrices,
    entry,
    naive_mul,
    numpy_mul,
    period3_matrix,
    random_matrix,
    reference_powers,
    to_entries,
    zeros,
)


@st.composite
def matrix_pairs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    bound = (1 << n) - 1
    a = BoolMatrix(n, tuple(draw(st.integers(0, bound)) for _ in range(n)))
    b = BoolMatrix(n, tuple(draw(st.integers(0, bound)) for _ in range(n)))
    return a, b


class TestBoolMatrix:
    def test_from_entries_round_trip(self):
        entries = [[0, 1], [1, 0]]
        assert to_entries(BoolMatrix.from_entries(entries)) == entries

    def test_entry_is_row_bit(self):
        a = period3_matrix()
        assert entry(a, 0, 1) == 1
        assert entry(a, 0, 0) == 0
        assert entry(a, 3, 2) == 1

    def test_columns_are_transposed_rows(self):
        a = period3_matrix()
        cols = a.columns()
        assert all(
            (cols[j] >> i) & 1 == entry(a, i, j) for i in range(a.n) for j in range(a.n)
        )

    @pytest.mark.parametrize("density", [0.02, 0.1, 0.5, 0.9])
    def test_columns_sparse_and_dense(self, density):
        rng = random.Random(7)
        # 128-row blocks in the dense branch: edges on both sides of the switch
        for n in (1, 5, 24, 90, 127, 128, 129, 257):
            rows = tuple(
                sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
            )
            cols = BoolMatrix(n, rows).columns()
            assert cols == [
                sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)
            ]

    def test_zeros_identity(self):
        assert to_entries(zeros(3)) == [[0] * 3] * 3
        eye = BoolMatrix.identity(3)
        assert all(entry(eye, i, j) == (i == j) for i in range(3) for j in range(3))

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError, match="dimension"):
            BoolMatrix(0, ())

    def test_row_count_checked(self):
        with pytest.raises(ValueError, match="rows"):
            BoolMatrix(2, (0,))

    def test_rows_must_be_canonical(self):
        with pytest.raises(ValueError, match="bits outside"):
            BoolMatrix(2, (0, 4))  # bit 2 set in a 2x2 matrix
        with pytest.raises(ValueError, match="bits outside"):
            BoolMatrix(2, (-1, 0))

    def test_from_entries_rejects_ragged_and_nonbinary(self):
        with pytest.raises(ValueError, match="length"):
            BoolMatrix.from_entries([[0, 1], [0]])
        with pytest.raises(ValueError, match="expected 0 or 1"):
            BoolMatrix.from_entries([[0, 2], [0, 0]])

    def test_hashable_and_equal_by_value(self):
        assert zeros(2) == BoolMatrix.from_entries([[0, 0], [0, 0]])
        assert len({zeros(2), zeros(2)}) == 1


class TestBoolMul:
    def test_worked_square(self):
        a = period3_matrix()
        assert to_entries(bool_mul(a, a)) == [
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 1, 0, 1],
            [1, 0, 0, 0],
        ]

    def test_identity_is_neutral(self):
        a = period3_matrix()
        eye = BoolMatrix.identity(4)
        assert bool_mul(a, eye) == a
        assert bool_mul(eye, a) == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bool_mul(zeros(2), zeros(3))

    @given(matrix_pairs())
    def test_matches_triple_loop(self, pair):
        a, b = pair
        assert bool_mul(a, b) == naive_mul(a, b)

    @given(matrix_pairs())
    def test_matches_numpy(self, pair):
        a, b = pair
        assert bool_mul(a, b) == numpy_mul(a, b)

    @given(bool_matrices(max_n=5))
    def test_associative(self, a):
        sq = bool_mul(a, a)
        assert bool_mul(bool_mul(a, sq), a) == bool_mul(a, bool_mul(sq, a))


def with_set_bits(rng: random.Random, n: int, count: int) -> BoolMatrix:
    """An n x n matrix with exactly count set entries, placed at random."""
    rows = [0] * n
    for cell in rng.sample(range(n * n), count):
        rows[cell // n] |= 1 << (cell % n)
    return BoolMatrix(n, tuple(rows))


def dense_threshold(n: int) -> int:
    """The fewest set entries that send an n x n left factor (n >= 64) down
    the Four Russians path: 16 * count >= n^2."""
    return -(-n * n // 16)


@pytest.fixture
def four_russians_calls(monkeypatch):
    """The dimension of each product that took the Four Russians path, in
    call order."""
    calls = []
    inner = bmat._four_russians

    def counted(*args):
        calls.append(args[2])
        return inner(*args)

    monkeypatch.setattr(bmat, "_four_russians", counted)
    return calls


class TestBoolMulPaths:
    """The set-bit walk and the Four Russians tables, around the switch
    between them, against the triple loop and the numpy product."""

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_both_paths_match_triple_loop_at_the_word_edge(self, n, four_russians_calls):
        rng = random.Random(n)
        for density in (0.02, 0.3, 0.5):
            a = random_matrix(rng, n, density)
            b = random_matrix(rng, n, 0.4)
            assert bool_mul(a, b) == naive_mul(a, b)
        assert four_russians_calls == ([] if n < 64 else [n, n])

    @pytest.mark.parametrize("n", [63, 64, 65, 100, 131, 200])
    def test_at_and_just_below_the_density_switch(self, n, four_russians_calls):
        rng = random.Random(1000 + n)
        b = random_matrix(rng, n, 0.3)
        for count in (dense_threshold(n), dense_threshold(n) - 1):
            a = with_set_bits(rng, n, count)
            assert bool_mul(a, b) == numpy_mul(a, b)
        # n < 64 never takes the tables; otherwise only the first a does
        assert four_russians_calls == ([] if n < 64 else [n])

    @pytest.mark.parametrize("n", [64, 77, 130])
    def test_rows_mixing_empty_sparse_and_full(self, n, four_russians_calls):
        rng = random.Random(n)
        full = (1 << n) - 1
        kinds = [0, full, 1 << (n - 1), 1, rng.getrandbits(n), 1 << rng.randrange(n)]
        a = BoolMatrix(n, tuple(kinds[i % len(kinds)] for i in range(n)))
        b = random_matrix(rng, n, 0.2)
        assert bool_mul(a, b) == numpy_mul(a, b)
        assert bool_mul(b, a) == numpy_mul(b, a)
        assert four_russians_calls[0] == n  # a is dense: a sixth of its rows are full

    @pytest.mark.parametrize("n", [1, 8, 63, 64, 65, 136])
    def test_zero_and_identity_on_either_side(self, n):
        rng = random.Random(n)
        zero, eye = zeros(n), BoolMatrix.identity(n)
        for a in (random_matrix(rng, n, 0.5), BoolMatrix(n, ((1 << n) - 1,) * n)):
            assert bool_mul(a, zero) == zero
            assert bool_mul(zero, a) == zero
            assert bool_mul(a, eye) == a
            assert bool_mul(eye, a) == a


class TestSuccessors:
    @given(bool_matrices())
    def test_arcs_grouped_by_row(self, a):
        expected = [[] for _ in range(a.n)]
        for u, v in a.arc_list():
            expected[u - 1].append(v - 1)
        assert a.successors == tuple(map(tuple, expected))

    def test_computed_once_per_matrix(self):
        a = period3_matrix()
        assert a.successors is a.successors
        # an equal matrix is another record with its own lists
        twin = BoolMatrix(a.n, a.rows)
        assert twin.successors == a.successors
        assert twin.successors is not a.successors


class TestBoolPow:
    def test_zeroth_power_is_identity(self):
        assert bool_pow(period3_matrix(), 0) == BoolMatrix.identity(4)

    def test_first_power_is_matrix(self):
        a = period3_matrix()
        assert bool_pow(a, 1) == a
        assert bool_pow(a, 1) is a  # records are immutable: no copy is made

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 1000, 1023, 1024])
    def test_product_count(self, m, monkeypatch):
        # one squaring per bit below the top, one product per set bit past
        # the first: m = 1000 takes 9 + 5 = 14
        a = period3_matrix()
        expected = bool_pow(a, m % 3 or 3)  # A^4 = A
        calls = []
        inner = bmat.bool_mul
        monkeypatch.setattr(bmat, "bool_mul", lambda x, y: calls.append(1) or inner(x, y))
        assert bool_pow(a, m) == expected
        assert len(calls) == (m.bit_length() - 1) + (m.bit_count() - 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            bool_pow(zeros(2), -1)

    def test_fourth_power_returns_to_first(self):
        a = period3_matrix()
        assert bool_pow(a, 4) == a

    @given(bool_matrices(max_n=5), st.integers(0, 6))
    def test_matches_repeated_multiplication(self, a, m):
        expected = BoolMatrix.identity(a.n)
        for _ in range(m):
            expected = bool_mul(expected, a)
        assert bool_pow(a, m) == expected


class TestGamma:
    def test_worked_example_single_edge(self):
        g = gamma(period3_matrix())
        assert UndirectedGraph.from_adjacency_matrix(g).edge_list() == [(2, 4)]

    def test_zero_matrix_has_no_edges(self):
        assert gamma(zeros(3)) == zeros(3)

    @given(bool_matrices())
    def test_symmetric_zero_diagonal(self, a):
        g = gamma(a)
        for i in range(a.n):
            assert entry(g, i, i) == 0
            for j in range(a.n):
                assert entry(g, i, j) == entry(g, j, i)

    @given(bool_matrices())
    def test_edge_iff_rows_intersect(self, a):
        g = gamma(a)
        for i in range(a.n):
            for j in range(a.n):
                expected = int(i != j and bool(a.rows[i] & a.rows[j]))
                assert entry(g, i, j) == expected


def mu_pi(a):
    sim = simulate_limit(a)
    return sim.index_mu, sim.period_pi


class TestPowerCycle:
    """Index and period of the power sequence, as the oracle's walk finds them."""

    def test_identity(self):
        assert mu_pi(BoolMatrix.identity(3)) == (1, 1)

    def test_five_cycle_permutation(self):
        entries = [[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)]
        a = BoolMatrix.from_entries(entries)
        assert mu_pi(a) == (1, 5)

    def test_worked_example_period_three(self):
        assert mu_pi(period3_matrix()) == (1, 3)

    def test_nilpotent_path(self):
        # 1 -> 2 -> 3: A^3 = 0 = A^4, so the index is 3 and the period 1
        a = BoolMatrix.from_entries([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert mu_pi(a) == (3, 1)

    def test_trajectory_lists_all_distinct_powers(self):
        a = period3_matrix()
        mu, pi, powers = reference_powers(a)
        assert mu_pi(a) == (mu, pi)
        assert len(powers) == mu + pi - 1
        for m, p in enumerate(powers, start=1):
            assert p == bool_pow(a, m)

    def test_step_cap(self, monkeypatch):
        entries = [[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)]
        a = BoolMatrix.from_entries(entries)
        assert oracle.PERIOD_CAP == 100_000
        # the walk stores all five powers and never meets the cap
        monkeypatch.setattr(oracle, "PERIOD_CAP", 4)
        assert mu_pi(a) == (1, 5)
        # past a budget of three powers the jump certifies lcm kappa = 5 under any cap
        monkeypatch.setattr(oracle, "WALK_BUDGET", 3)
        assert mu_pi(a) == (1, 5)
        # a wrong lcm kappa fails the certificate, and the walk that counts pi reads the
        # cap when called; a period of 5 steps fits a cap of 5
        monkeypatch.setattr(graphs, "power_period", lambda d: 10)
        with pytest.raises(SizeCapError, match="^power period exceeds the walk cap of 4 steps$"):
            simulate_limit(a)
        monkeypatch.setattr(oracle, "PERIOD_CAP", 5)
        assert mu_pi(a) == (1, 5)

    @settings(max_examples=60, deadline=None)
    @given(bool_matrices(max_n=5))
    def test_index_and_period_are_exact(self, a):
        mu, pi = mu_pi(a)
        powers = [bool_pow(a, m) for m in range(1, mu + pi)]
        assert len(set(powers)) == len(powers)
        assert bool_pow(a, mu + pi) == bool_pow(a, mu)
        # minimality: the first repeat happens exactly at exponent mu + pi
        assert bool_pow(a, mu + pi - 1) != bool_pow(a, mu - 1) or mu == 1


class TestMatrixText:
    def test_parse_worked_example(self):
        text = "4\n0101\n0010\n1000\n0010\n"
        assert parse_matrix(text) == period3_matrix()

    def test_format_is_inverse(self):
        assert format_matrix(period3_matrix()) == "4\n0101\n0010\n1000\n0010\n"

    @given(bool_matrices())
    def test_round_trip(self, a):
        assert parse_matrix(format_matrix(a)) == a

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("")
        assert exc.value.line == 1

    def test_bad_dimension_token(self):
        with pytest.raises(ParseError, match="decimal dimension"):
            parse_matrix("x\n01\n10\n")

    def test_nonpositive_dimension(self):
        with pytest.raises(ParseError, match=">= 1"):
            parse_matrix("0\n")

    def test_truncated_input(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("3\n010\n001\n")
        assert exc.value.line == 4

    def test_wrong_row_length(self):
        with pytest.raises(ParseError, match="expected 2 characters") as exc:
            parse_matrix("2\n01\n100\n")
        assert exc.value.line == 3

    def test_invalid_character_names_column(self):
        with pytest.raises(ParseError, match="column 2") as exc:
            parse_matrix("2\n01\n1x\n")
        assert exc.value.line == 3

    # each row is a valid argument to int(row, 2), so only the explicit
    # {0, 1} check rejects it
    @pytest.mark.parametrize(
        "row, char, column",
        [("0_1", "_", 2), ("+01", "+", 1), ("-01", "-", 1), ("0 1", " ", 2), ("1\u0661", "\u0661", 2)],
    )
    def test_int_literal_syntax_rejected(self, row, char, column):
        n = len(row)
        text = f"{n}\n{'0' * n}\n{row}\n" + f"{'0' * n}\n" * (n - 2)
        message = re.escape(f"invalid character {char!r} at column {column}")
        with pytest.raises(ParseError, match=message + "$") as exc:
            parse_matrix(text)
        assert exc.value.line == 3

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError, match="trailing") as exc:
            parse_matrix("2\n01\n10\njunk\n")
        assert exc.value.line == 4

    def test_blank_trailing_lines_allowed(self):
        assert parse_matrix("2\n01\n10\n\n  \n").n == 2
