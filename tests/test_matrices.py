import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minranklab import matrices
from minranklab.kneser import CERTIFICATE_PRIME
from minranklab.matrices import (
    PACKED_MIN_COLUMNS,
    FieldMatrix,
    RationalMatrix,
    format_matrix_text,
    MILLER_RABIN_LIMIT,
    gf2_rank,
    is_prime,
    min_weight_basis,
    mod_nullspace,
    mod_rank,
    _echelon_residue,
    parse_matrix_text,
)
from minranklab.verifiers import _nonzeros

from _builders import field_all_ones, field_identity, rational_identity
from _oracles import (
    _plain_mod_rank,
    oracle_fraction_rank,
    oracle_min_basis_weight,
    oracle_smallest_factor,
)


def test_prime_check_at_construction():
    FieldMatrix.from_rows(5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        FieldMatrix.from_rows(4, [[1]])
    with pytest.raises(ValueError):
        FieldMatrix.from_rows(1, [[0]])


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        assert not any(is_prime(q) for q in range(-3, 2))
        assert all(is_prime(q) == (oracle_smallest_factor(q) == q) for q in range(2, 10**5))

    @pytest.mark.parametrize("q", [
        3_215_031_751,  # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5, 7
        3_825_123_056_546_413_051,  # 149491 * 747451 * 34233211, to every base up to 23
        318_665_857_834_031_151_167_461,  # 399165290221 * 798330580441, up to 37
    ])
    def test_strong_pseudoprimes_are_composite(self, q):
        assert not is_prime(q)

    def test_large_primes(self):
        for q in (100_000_000_000_031, 2**61 - 1, 10**24 + 7, 3_317_044_064_679_887_384_961_997):
            assert is_prime(q)
        assert not is_prime((2**61 - 1) * (2**19 - 1))

    def test_refuses_at_the_limit_unless_a_small_factor_decides(self):
        assert not is_prime(MILLER_RABIN_LIMIT + 1)  # even
        with pytest.raises(ValueError, match="not decided"):
            is_prime(2**127 - 1)


def test_entries_reduced():
    m = FieldMatrix.from_rows(3, [[4, -1], [0, 5]])
    assert m.entries == ((1, 2), (0, 2))
    with pytest.raises(ValueError):
        FieldMatrix(3, ((3,),))


class TestRank:
    def test_identity(self):
        assert field_identity(2, 4).rank() == 4
        assert oracle_fraction_rank(rational_identity(4).entries) == 4

    def test_all_ones(self):
        for p in (2, 3, 5):
            assert field_all_ones(p, 4, 4).rank() == 1
        assert oracle_fraction_rank(RationalMatrix.from_rows([[1] * 4] * 4).entries) == 1

    def test_zero_and_empty(self):
        assert FieldMatrix.from_rows(2, [[0, 0], [0, 0]]).rank() == 0
        assert oracle_fraction_rank(RationalMatrix.from_rows([]).entries) == 0

    def test_characteristic_collision(self):
        rows = [[1, 1], [1, -1]]  # singular mod 2, invertible over Q
        assert FieldMatrix.from_rows(2, rows).rank() == 1
        assert oracle_fraction_rank(RationalMatrix.from_rows(rows).entries) == 2

    def test_field_rank_at_most_rational_rank_exhaustive(self):
        for bits in range(512):
            rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            rq = oracle_fraction_rank(RationalMatrix.from_rows(rows).entries)
            for p in (2, 3):
                assert FieldMatrix.from_rows(p, rows).rank() <= rq

    def test_rational_entries(self):
        m = RationalMatrix.from_rows([["1/2", "1/3"], ["3/2", "1"]])
        assert oracle_fraction_rank(m.entries) == 1

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
            assert FieldMatrix.from_rows(3, list(zip(*rows))).rank() == r


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


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(1, 4).flatmap(
                lambda cols: st.tuples(
                    st.just(cols),
                    st.lists(
                        st.lists(st.integers(-2 * p, 2 * p), min_size=cols, max_size=cols),
                        max_size=4,
                    ),
                )
            ),
        )
    )
)
def test_mod_rank_and_nullspace_match_brute_force(case):
    # entries in [-2p, 2p] leave some unreduced; both kernels read them mod p
    p, (ncols, rows) = case
    rank = mod_rank(rows, p)
    assert rank == _plain_mod_rank(rows, p)
    basis = mod_nullspace(rows, ncols, p)
    assert len(basis) == ncols - rank

    def in_kernel(x):
        return all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in rows)

    assert all(in_kernel(x) for x in basis)
    kernel = {x for x in product(range(p), repeat=ncols) if in_kernel(x)}
    span = {
        tuple(sum(c * x[j] for c, x in zip(coeffs, basis)) % p for j in range(ncols))
        for coeffs in product(range(p), repeat=len(basis))
    }
    assert span == kernel
    assert len(kernel) == p ** (ncols - rank)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mod_rank_matches_brute_force_across_the_packed_switch(data):
    # widths on both sides of PACKED_MIN_COLUMNS; entries unreduced, negative
    # or multiples of p; each combination row lies in the span of the drawn
    # rows, so its packed residue is zero only once its slots are read mod p
    p = data.draw(st.sampled_from([2, 3, 5, 7, CERTIFICATE_PRIME]))
    ncols = data.draw(st.integers(1, 2 * PACKED_MIN_COLUMNS))
    entry = st.integers(-2 * p, 2 * p) | st.sampled_from([-p, 0, p, 2 * p])
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=40))
    combos = data.draw(st.lists(
        st.lists(st.integers(-p, p), min_size=len(rows), max_size=len(rows)),
        max_size=4 if rows else 0,
    ))
    rows += [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
             for coeffs in combos]
    rows = data.draw(st.permutations(rows))
    assert mod_rank(rows, p) == _plain_mod_rank(rows, p)


def _sparse_or_dense_rows(n: int, p: int, kind: str, seed: int) -> list[list[int]]:
    """n rows of n entries. "two": at most two nonzeros per row, on the first
    n // 3 columns so that many rows are dependent; "three": the same with a
    third nonzero in the last row; "dense": every entry drawn. Nonzeros are
    drawn from [1, 3p), so some are multiples of p."""
    rng = random.Random(seed)
    if kind == "dense":
        return [[rng.randrange(-p, 3 * p) for _ in range(n)] for _ in range(n)]
    rows = []
    for i in range(n):
        row = [0] * n
        width = 3 if kind == "three" and i == n - 1 else rng.randint(1, 2)
        for j in rng.sample(range(n // 3), width):
            row[j] = rng.randrange(1, 3 * p)
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, CERTIFICATE_PRIME])
@pytest.mark.parametrize("n", [PACKED_MIN_COLUMNS - 1, PACKED_MIN_COLUMNS, 32, 64])
@pytest.mark.parametrize("kind, fills", [("two", False), ("three", True), ("dense", True)])
def test_mod_rank_routes_long_rows_by_nonzeros(p, n, kind, fills, monkeypatch):
    # long rows over a Mersenne prime go packed unless no row has more than
    # two nonzeros, so that the matrix can fill in; GF(2), GF(5) and short
    # rows stay lists at every width. Either way the rank is the number of
    # rows _echelon_residue leaves a residue for
    packed = p in (3, CERTIFICATE_PRIME) and n >= PACKED_MIN_COLUMNS and fills
    routed = []
    packed_rank = matrices._packed_rank
    monkeypatch.setattr(
        matrices, "_packed_rank", lambda rows, q: routed.append(q) or packed_rank(rows, q)
    )
    for seed in range(3):
        rows = _sparse_or_dense_rows(n, p, kind, seed)
        basis: list = []
        for row in rows:
            residue = _echelon_residue(row, basis, p)
            if residue is not None:
                basis.append(residue)
        assert mod_rank(rows, p) == len(basis)
    assert routed == ([p] * 3 if packed else [])


MERSENNE_PRIMES = [3, 7, 31, 127, 8191, CERTIFICATE_PRIME]


@pytest.mark.parametrize("p", MERSENNE_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 7, PACKED_MIN_COLUMNS])
def test_fold_takes_every_slot_to_its_residue(p, n):
    # the slots of a vector reduced against n basis rows are at most the
    # bound; below 10^4 every value up to it is folded, above it random ones,
    # the bound and the values around p and 2p, which the last conditional
    # subtraction decides
    bound = (p - 1) + n * (p - 1) ** 2
    w = bound.bit_length() + 7 >> 3 << 3
    if bound < 10_000:
        values = list(range(bound + 1))
    else:
        rng = random.Random(p * n)
        values = [0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, bound - 1, bound]
        values += [rng.randint(0, bound) for _ in range(200)]
    for width in sorted({1, n}):
        ones = ((1 << width * w) - 1) // ((1 << w) - 1)
        fold = matrices._folder(p, w, ones, bound)
        for start in range(0, len(values), width):
            slots = values[start:start + width]
            packed = sum(x << w * i for i, x in enumerate(slots))
            assert fold(packed) == sum(x % p << w * i for i, x in enumerate(slots))


def _triangular_rows(n: int, p: int) -> list[list[int]]:
    """n - 1 rows with pivot 1 at columns 0..n-2 and p - 1 = -1 at every
    later column, then a vector in their span whose every factor against
    them is 1: each of the n - 1 row steps adds (p - 1)^2 to every later
    slot, so its last slot reaches (n - 1)(p - 1)^2, next to the bound the
    slot width holds, and must fold to 0."""
    rows = [[0] * i + [1] + [p - 1] * (n - 1 - i) for i in range(n - 1)]
    return rows + [[(1 - j) % p for j in range(n - 1)] + [(1 - n) % p]]


@pytest.mark.parametrize("p", MERSENNE_PRIMES)
@pytest.mark.parametrize(
    "n", [PACKED_MIN_COLUMNS - 1, PACKED_MIN_COLUMNS, PACKED_MIN_COLUMNS + 1, 3 * PACKED_MIN_COLUMNS]
)
def test_packed_kernel_matches_the_oracle_at_full_slots(p, n, monkeypatch):
    routed = []
    packed_rank = matrices._packed_rank
    monkeypatch.setattr(
        matrices, "_packed_rank", lambda rows, q: routed.append(q) or packed_rank(rows, q)
    )
    rows = _triangular_rows(n, p)
    # one more in the last slot leaves a residue
    assert mod_rank(rows, p) == _plain_mod_rank(rows, p) == n - 1
    rows[-1][-1] += 1
    assert mod_rank(rows, p) == _plain_mod_rank(rows, p) == n
    # scaled and permuted rows, and dense random rows with combinations of
    # them, through the same kernel
    rng = random.Random(n * p)
    scaled = [[rng.randrange(1, p) * x for x in row] for row in rows]
    rng.shuffle(scaled)
    assert mod_rank(scaled, p) == _plain_mod_rank(scaled, p)
    dense = [[rng.randrange(-p, 2 * p) for _ in range(n)] for _ in range(n // 2)]
    dense += [
        [sum(rng.randrange(p) * row[j] for row in dense) for j in range(n)] for _ in range(n // 2)
    ]
    rng.shuffle(dense)
    assert mod_rank(dense, p) == _plain_mod_rank(dense, p)
    assert routed == ([p] * 4 if n >= PACKED_MIN_COLUMNS else [])


class TestSparsity:
    def test_counts(self):
        # the nonzeros the submatrix sweep counts in each principal block
        assert _nonzeros(FieldMatrix.from_rows(2, [[0, 0], [0, 0]]).entries) == 0
        assert _nonzeros(field_identity(3, 5).entries) == 5
        assert _nonzeros(field_all_ones(2, 2, 2).entries) == 4
        assert _nonzeros(RationalMatrix.from_rows([[0, "1/2"], [1, 0]]).entries) == 2


def basis_weights(m: FieldMatrix) -> tuple[int, int]:
    """(min column basis weight, min row basis weight) of m; both greedy
    passes must find the rank that FieldMatrix.rank computes."""
    column_rank, column_weight = min_weight_basis(list(zip(*m.entries)), m.p)
    row_rank, row_weight = min_weight_basis(m.entries, m.p)
    assert column_rank == row_rank == m.rank()
    return column_weight, row_weight


class TestSparseBases:
    def test_identity(self):
        assert basis_weights(field_identity(2, 4)) == (4, 4)

    def test_all_ones(self):
        assert basis_weights(field_all_ones(2, 3, 3)) == (3, 3)

    def test_zero_matrix(self):
        assert basis_weights(FieldMatrix.from_rows(2, [[0, 0], [0, 0]])) == (0, 0)

    def test_picks_sparse_columns(self):
        # rank 2; columns (1,0),(0,1) beat the dense ones
        m = FieldMatrix.from_rows(3, [[1, 1, 0, 1], [1, 0, 1, 2]])
        assert basis_weights(m)[0] == 2

    def test_entries_read_mod_p(self):
        # over GF(3), (3, 0) is the zero vector, (3, 1) weighs 1, and (0, 4)
        # is (0, 1), in the span of (3, 1)
        assert min_weight_basis([(3, 0)], 3) == (0, 0)
        assert min_weight_basis([(3, 1), (1, 1)], 3) == (2, 3)
        assert min_weight_basis([(3, 1), (0, 4)], 3) == (1, 1)

    @pytest.mark.parametrize("p,dim,size", [(2, 3, 4), (3, 2, 3)])
    def test_every_small_multiset_matches_subset_oracle(self, p, dim, size):
        # every multiset of at most `size` vectors of GF(p)^dim, the empty
        # one, zero vectors and repeats included
        space = [list(v) for v in product(range(p), repeat=dim)]
        checked = 0
        for count in range(size + 1):
            for vectors in combinations_with_replacement(space, count):
                vectors = list(vectors)
                expected = (_plain_mod_rank(vectors, p), oracle_min_basis_weight(vectors, p))
                assert min_weight_basis(vectors, p) == expected, vectors
                checked += 1
        assert checked == comb(p**dim + size, size)

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
            assert basis_weights(m)[0] == (best or 0)

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
        )
    )
    def test_weights_match_subset_oracle(self, field_and_rows):
        p, rows = field_and_rows
        m = FieldMatrix.from_rows(p, rows)
        column_weight = oracle_min_basis_weight([list(c) for c in zip(*rows)], p)
        row_weight = oracle_min_basis_weight(rows, p)
        assert basis_weights(m) == (column_weight, row_weight)


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
