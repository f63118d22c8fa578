import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minranklab.matrices import (
    FieldMatrix,
    RationalMatrix,
    bareiss_rank,
    format_matrix_text,
    gf2_rank,
    has_sparse_bases,
    min_column_basis_weight,
    min_row_basis_weight,
    mod_nullspace,
    parse_matrix_text,
    sparsity,
)

from _oracles import oracle_fraction_rank, oracle_min_basis_weight


def test_prime_check_at_construction():
    FieldMatrix.from_rows(5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        FieldMatrix.from_rows(4, [[1]])
    with pytest.raises(ValueError):
        FieldMatrix.from_rows(1, [[0]])


def test_entries_reduced():
    m = FieldMatrix.from_rows(3, [[4, -1], [0, 5]])
    assert m.entries == ((1, 2), (0, 2))
    with pytest.raises(ValueError):
        FieldMatrix(3, ((3,),))


class TestRank:
    def test_identity(self):
        assert FieldMatrix.identity(2, 4).rank() == 4
        assert RationalMatrix.identity(4).rank() == 4

    def test_all_ones(self):
        for p in (2, 3, 5):
            assert FieldMatrix.all_ones(p, 4, 4).rank() == 1
        assert RationalMatrix.from_rows([[1] * 4] * 4).rank() == 1

    def test_zero_and_empty(self):
        assert FieldMatrix.from_rows(2, [[0, 0], [0, 0]]).rank() == 0
        assert RationalMatrix.from_rows([]).rank() == 0

    def test_characteristic_collision(self):
        rows = [[1, 1], [1, -1]]  # singular mod 2, invertible over Q
        assert FieldMatrix.from_rows(2, rows).rank() == 1
        assert RationalMatrix.from_rows(rows).rank() == 2

    def test_field_rank_at_most_rational_rank_exhaustive(self):
        for bits in range(512):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            rq = RationalMatrix.from_rows(rows).rank()
            for p in (2, 3):
                assert FieldMatrix.from_rows(p, rows).rank() <= rq

    def test_bareiss_matches_fraction_elimination(self):
        rng = random.Random(12)
        for _ in range(60):
            rows = [
                [rng.randint(-5, 5) for _ in range(rng.randint(1, 5))]
            ]
            cols = len(rows[0])
            for _ in range(rng.randint(0, 5)):
                rows.append([rng.randint(-5, 5) for _ in range(cols)])
            assert bareiss_rank(rows) == oracle_fraction_rank(rows)

    def test_rational_entries(self):
        m = RationalMatrix.from_rows([["1/2", "1/3"], ["3/2", "1"]])
        assert m.rank() == 1

    def test_bareiss_on_structured_deficiency(self):
        # vanishing leading minors force row pivoting and column skips
        assert bareiss_rank([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == 3
        assert bareiss_rank([[0, 0, 0], [0, 0, 0], [0, 0, 7]]) == 1
        rng = random.Random(77)
        for _ in range(25):
            n, r = rng.randint(2, 7), rng.randint(1, 3)
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            product_rows = [
                [sum(left[i][t] * right[t][j] for t in range(r)) for j in range(n)]
                for i in range(n)
            ]
            assert bareiss_rank(product_rows) == oracle_fraction_rank(product_rows)

    def test_invariance_under_permutation_and_transpose(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
            m = FieldMatrix.from_rows(3, rows)
            r = m.rank()
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = FieldMatrix.from_rows(3, [rows[i] for i in perm])
            assert shuffled.rank() == r
            assert m.transpose().rank() == r
            q = RationalMatrix.from_rows(rows)
            assert q.rank() == q.transpose().rank()


def test_gf2_rank_bitsets():
    assert gf2_rank([0b11, 0b10, 0b01]) == 2
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0


def test_mod_nullspace():
    rows = [[1, 1, 0], [0, 0, 1]]
    basis = mod_nullspace(rows, 3, 3)
    assert len(basis) == 1
    x = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, x)) % 3 == 0


class TestSparsity:
    def test_counts(self):
        assert sparsity(FieldMatrix.from_rows(2, [[0, 0], [0, 0]])) == 0
        assert sparsity(FieldMatrix.identity(3, 5)) == 5
        assert sparsity(FieldMatrix.all_ones(2, 2, 2)) == 4
        assert sparsity(RationalMatrix.from_rows([[0, "1/2"], [1, 0]])) == 2


class TestSparseBases:
    def test_identity(self):
        m = FieldMatrix.identity(2, 4)
        assert min_column_basis_weight(m) == 4
        assert has_sparse_bases(m, 4)
        assert not has_sparse_bases(m, 3)

    def test_all_ones(self):
        m = FieldMatrix.all_ones(2, 3, 3)
        assert min_column_basis_weight(m) == 3
        assert min_row_basis_weight(m) == 3
        assert has_sparse_bases(m, 3)
        assert not has_sparse_bases(m, 2)

    def test_zero_matrix(self):
        m = FieldMatrix.from_rows(2, [[0, 0], [0, 0]])
        assert min_column_basis_weight(m) == 0
        assert has_sparse_bases(m, 0)

    def test_picks_sparse_columns(self):
        # rank 2; columns (1,0),(0,1) beat the dense ones
        m = FieldMatrix.from_rows(3, [[1, 1, 0, 1], [1, 0, 1, 2]])
        assert min_column_basis_weight(m) == 2

    def test_bruteforce_min_weight(self):
        rng = random.Random(33)
        for _ in range(40):
            rows = [[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
            m = FieldMatrix.from_rows(2, rows)
            k = m.rank()
            cols = [tuple(r[c] for r in rows) for c in range(4)]
            best = None
            from itertools import combinations

            for subset in combinations(range(4), k):
                sub = [cols[i] for i in subset]
                if FieldMatrix.from_rows(2, sub).rank() == k:
                    w = sum(x for col in sub for x in col)
                    best = w if best is None else min(best, w)
            assert min_column_basis_weight(m) == (best or 0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3, 5]).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.integers(1, 5).flatmap(
                    lambda cols: st.lists(
                        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                        min_size=1,
                        max_size=5,
                    )
                ),
            )
        ),
        st.integers(0, 25),
    )
    def test_weights_match_subset_oracle(self, field_and_rows, ell):
        p, rows = field_and_rows
        m = FieldMatrix.from_rows(p, rows)
        column_weight = oracle_min_basis_weight([list(c) for c in zip(*rows)], p)
        row_weight = oracle_min_basis_weight(rows, p)
        assert min_column_basis_weight(m) == column_weight
        assert min_row_basis_weight(m) == row_weight
        assert has_sparse_bases(m, ell) == (max(column_weight, row_weight) <= ell)


class TestTextFormat:
    def test_field_roundtrip(self):
        m = FieldMatrix.from_rows(3, [[1, 2, 0], [0, 1, 1]])
        text = format_matrix_text(m)
        assert text.splitlines()[0] == "2 3 3"
        assert parse_matrix_text(text) == m

    def test_rational_roundtrip(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 3], [-2, Fraction(7, 5)]])
        text = format_matrix_text(m)
        assert text.splitlines()[0] == "2 2 0"
        assert "1/2" in text
        assert parse_matrix_text(text) == m

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_matrix_text("2 2")
        with pytest.raises(ValueError):
            parse_matrix_text("2 2 0\n1 2 3\n")

    def test_rejects_negative_dimensions(self):
        # (-1) * (-1) = 1 would otherwise match the one body token
        with pytest.raises(ValueError, match="negative"):
            parse_matrix_text("-1 -1 2\n5")
