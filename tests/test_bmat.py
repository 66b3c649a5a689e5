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
from compseq import oracle
from conftest import bool_matrices, naive_mul, numpy_mul, period3_matrix, reference_powers


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
        assert BoolMatrix.from_entries(entries).to_entries() == entries

    def test_entry_is_row_bit(self):
        a = period3_matrix()
        assert a.entry(0, 1) == 1
        assert a.entry(0, 0) == 0
        assert a.entry(3, 2) == 1

    def test_columns_are_transposed_rows(self):
        a = period3_matrix()
        cols = a.columns()
        assert all(
            (cols[j] >> i) & 1 == a.entry(i, j) for i in range(a.n) for j in range(a.n)
        )

    @pytest.mark.parametrize("density", [0.02, 0.1, 0.5, 0.9])
    def test_columns_sparse_and_dense(self, density):
        rng = random.Random(7)
        for n in (1, 5, 24, 90):
            rows = tuple(
                sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)
            )
            cols = BoolMatrix(n, rows).columns()
            assert cols == [
                sum(((rows[i] >> j) & 1) << i for i in range(n)) for j in range(n)
            ]

    def test_entry_out_of_range(self):
        with pytest.raises(IndexError):
            BoolMatrix.zeros(2).entry(0, 2)

    def test_zeros_identity(self):
        assert BoolMatrix.zeros(3).to_entries() == [[0] * 3] * 3
        eye = BoolMatrix.identity(3)
        assert all(eye.entry(i, j) == (i == j) for i in range(3) for j in range(3))

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
        assert BoolMatrix.zeros(2) == BoolMatrix.from_entries([[0, 0], [0, 0]])
        assert len({BoolMatrix.zeros(2), BoolMatrix.zeros(2)}) == 1


class TestBoolMul:
    def test_worked_square(self):
        a = period3_matrix()
        assert bool_mul(a, a).to_entries() == [
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
            bool_mul(BoolMatrix.zeros(2), BoolMatrix.zeros(3))

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


class TestBoolPow:
    def test_zeroth_power_is_identity(self):
        assert bool_pow(period3_matrix(), 0) == BoolMatrix.identity(4)

    def test_first_power_is_matrix(self):
        a = period3_matrix()
        assert bool_pow(a, 1) == a

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            bool_pow(BoolMatrix.zeros(2), -1)

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
        assert UndirectedGraph.from_adjacency_matrix(g).edges == {(2, 4)}

    def test_zero_matrix_has_no_edges(self):
        assert gamma(BoolMatrix.zeros(3)) == BoolMatrix.zeros(3)

    @given(bool_matrices())
    def test_symmetric_zero_diagonal(self, a):
        g = gamma(a)
        for i in range(a.n):
            assert g.entry(i, i) == 0
            for j in range(a.n):
                assert g.entry(i, j) == g.entry(j, i)

    @given(bool_matrices())
    def test_edge_iff_rows_intersect(self, a):
        g = gamma(a)
        for i in range(a.n):
            for j in range(a.n):
                expected = int(i != j and bool(a.rows[i] & a.rows[j]))
                assert g.entry(i, j) == expected


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

    def test_memory_cap(self, monkeypatch):
        entries = [[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)]
        a = BoolMatrix.from_entries(entries)
        assert oracle.DEFAULT_MEMORY_CAP == 100_000
        # the cap is read when called; five distinct powers fit a cap of 5
        monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 5)
        assert mu_pi(a) == (1, 5)
        monkeypatch.setattr(oracle, "DEFAULT_MEMORY_CAP", 3)
        with pytest.raises(SizeCapError, match="memory cap of 3 distinct powers"):
            simulate_limit(a)

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
