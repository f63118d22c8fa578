import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minranklab import kneser
from minranklab.budgets import DEFAULT_RANK_BUDGET, DEFAULT_VERTEX_BUDGET, BudgetExceededError
from minranklab.graphs import (
    Graph,
    canonical_key,
    complete_graph,
    empty_graph,
    min_odd_cycle_at_most,
)
from minranklab.kneser import (
    CERTIFICATE_PRIME,
    KneserParams,
    VerificationError,
    binary_entropy,
    entropy_delta_limit,
    intersection_polynomial,
    johnson_spectrum,
    odd_girth_guarantee,
    pattern_polynomial_coefficients,
    rank_bound_report,
    representation_matrix,
    spectral_rank,
    subset_masks,
)
from minranklab.matrices import mod_rank
from minranklab.minrank import represents

from _oracles import (
    oracle_factorization_product,
    oracle_fraction_rank,
    oracle_johnson_spectrum,
    oracle_kneser_graph,
    oracle_multilinear_coefficients,
)


class TestParams:
    def test_validation(self):
        KneserParams(6, 3, 1)
        with pytest.raises(ValueError):
            KneserParams(4, 5, 1)
        with pytest.raises(ValueError):
            KneserParams(4, 2, 3)
        with pytest.raises(ValueError):
            KneserParams(4, 2, -1)

    def test_counts(self):
        p = KneserParams(10, 5, 2)
        assert p.vertex_count == 252
        assert p.rank_bound == sum(math.comb(10, i) for i in range(4))


class TestGraph:
    def test_4_2_1(self):
        g = representation_matrix(KneserParams(4, 2, 1)).graph()
        assert g.n == 6
        assert g.edge_count() == 3

    def test_6_3_1_perfect_matching(self):
        g = representation_matrix(KneserParams(6, 3, 1)).graph()
        assert g.n == 20
        assert g.edge_count() == 10
        assert all(g.degree(v) == 1 for v in range(20))
        assert min_odd_cycle_at_most(g, 3) is None

    def test_singletons_give_complete_graph(self):
        g = representation_matrix(KneserParams(3, 1, 1)).graph()
        assert canonical_key(g) == canonical_key(complete_graph(3))

    def test_m_zero_is_empty(self):
        assert representation_matrix(KneserParams(4, 2, 0)).graph() == empty_graph(6)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            representation_matrix(KneserParams(30, 15, 1))

    def test_default_budget_refuses_k_16_8_before_allocating(self, monkeypatch):
        # 12,870 vertices: the 1.66e8 entries would take over 1 GB
        def allocate(d, s):
            raise AssertionError("vertices listed before the budget check")

        monkeypatch.setattr(kneser, "subset_masks", allocate)
        with pytest.raises(BudgetExceededError, match="materializing K\\(16,8,2\\) refused"):
            representation_matrix(KneserParams(16, 8, 2))
        assert KneserParams(14, 7, 2).vertex_count <= DEFAULT_VERTEX_BUDGET

    def test_default_rank_budget_refuses_k_14_7_2_before_allocating(self, monkeypatch):
        # N^2 * rank = 3432^2 * 2002; K(12,6,2), at 924^2 * 495, is admitted
        def allocate(d, s):
            raise AssertionError("vertices listed before the budget check")

        monkeypatch.setattr(kneser, "subset_masks", allocate)
        with pytest.raises(BudgetExceededError, match="rank check of K\\(14,7,2\\) refused"):
            representation_matrix(KneserParams(14, 7, 2), check_rank=True)
        assert 924**2 * 495 <= DEFAULT_RANK_BUDGET < 3432**2 * 2002

    def test_witness_graph_is_the_reference_graph(self):
        # graph() reads the counts; the parent read M's nonzero pattern
        for d in range(0, 10):
            for s in range(0, d + 1):
                for m in range(0, s + 1):
                    params = KneserParams(d, s, m)
                    w = representation_matrix(params)
                    pattern = Graph(params.vertex_count, tuple(
                        sum(1 << b for b, x in enumerate(row) if x and b != a)
                        for a, row in enumerate(w.matrix.entries)
                    ))
                    assert w.graph() == pattern == oracle_kneser_graph(params)

    def test_intersection_counts_are_the_popcounts(self):
        # 2s > d counts over the complements, offset by 2s - d
        for d in range(0, 10):
            for s in range(0, d + 1):
                masks = subset_masks(d, s)
                offset, rows = kneser._intersection_counts(d, s)
                assert offset == max(0, 2 * s - d)
                assert [[offset + c for c in row] for row in rows] == [
                    [(a & b).bit_count() for b in masks] for a in masks
                ]

    @pytest.mark.parametrize("m, complete", [(1, False), (255, False), (256, True)])
    def test_counts_past_one_byte_of_intersection(self, m, complete):
        # 256-subsets of 257 elements meet in 255; only the complement
        # count, 0 or 1, fits a byte
        w = representation_matrix(KneserParams(257, 256, m))
        assert w.graph() == (complete_graph(257) if complete else empty_graph(257))
        assert w.matrix.entries[0][0] == math.factorial(256 - m)
        assert w.matrix.entries[0][1] == intersection_polynomial(256, m, 255)


class TestCoefficients:
    def test_s2_m1(self):
        assert pattern_polynomial_coefficients(2, 1) == [-1, 1]

    def test_s3_m1(self):
        assert pattern_polynomial_coefficients(3, 1) == [2, -2, 2]

    def test_higher_differences_vanish(self):
        # differences of order beyond the polynomial degree are zero
        for s, m in [(3, 1), (4, 2), (5, 1)]:
            values = [intersection_polynomial(s, m, t) for t in range(s - m + 3)]
            for u in (s - m + 1, s - m + 2):
                diff = sum(
                    (-1) ** (u - t) * math.comb(u, t) * values[t] for t in range(u + 1)
                )
                assert diff == 0

    def test_binomial_transform_recovers_polynomial(self):
        for s, m in [(2, 1), (3, 0), (4, 2), (5, 3)]:
            coeffs = pattern_polynomial_coefficients(s, m)
            for t in range(s + 1):
                recovered = sum(
                    math.comb(t, u) * c for u, c in enumerate(coeffs)
                )
                assert recovered == intersection_polynomial(s, m, t)

    def test_against_multilinear_expansion_oracle(self):
        # expand the product over 0/1 variables directly and compare
        for d in range(1, 5):
            for s in range(1, d + 1):
                for m in range(0, s + 1):
                    expansion = oracle_multilinear_coefficients(d, s, m)
                    coeffs = pattern_polynomial_coefficients(s, m)
                    for mono in range(1 << d):
                        size = mono.bit_count()
                        expected = coeffs[size] if size < len(coeffs) else 0
                        assert expansion.get(mono, 0) == expected


class TestRepresentation:
    def test_4_2_1_entries(self):
        w = representation_matrix(KneserParams(4, 2, 1), check_rank=True)
        masks = subset_masks(4, 2)
        for a, ma in enumerate(masks):
            for b, mb in enumerate(masks):
                inter = (ma & mb).bit_count()
                expected = {2: 1, 1: 0, 0: -1}[inter]
                assert w.matrix.entries[a][b] == expected
        assert w.rank == 3
        assert w.params.rank_bound == 5

    def test_diagonal_is_factorial(self):
        for d, s, m in [(5, 3, 1), (6, 3, 0), (7, 3, 2)]:
            w = representation_matrix(KneserParams(d, s, m))
            assert w.matrix.entries[0][0] == math.factorial(s - m)

    def test_represents_the_graph(self):
        for d, s, m in [(4, 2, 1), (5, 2, 1), (6, 3, 2), (6, 3, 1)]:
            params = KneserParams(d, s, m)
            w = representation_matrix(params)
            assert represents(w.matrix, oracle_kneser_graph(params))

    def test_entries_match_direct_product_evaluation(self):
        # evaluate prod_j (<c_A, c_B> - j) straight from the bitstrings
        for d, s, m in [(6, 3, 1), (6, 3, 2), (8, 4, 2)]:
            w = representation_matrix(KneserParams(d, s, m))
            masks = subset_masks(d, s)
            rng = random.Random(d * 100 + m)
            for _ in range(200):
                a = rng.randrange(len(masks))
                b = rng.randrange(len(masks))
                dot = sum(
                    ((masks[a] >> i) & 1) * ((masks[b] >> i) & 1) for i in range(d)
                )
                direct = 1
                for j in range(m, s):
                    direct *= dot - j
                assert w.matrix.entries[a][b] == direct

    def test_entries_equal_the_popcount_product_oracle(self):
        for d in range(0, 10):
            for s in range(0, d + 1):
                for m in range(0, s + 1):
                    params = KneserParams(d, s, m)
                    assert representation_matrix(params).matrix.entries == \
                        oracle_factorization_product(params)

    def test_factorization_shape_and_product(self):
        # L is the vertex-by-subset inclusion matrix over the subsets U with
        # |U| <= s-m, D = diag(c_|U|), and M = L D L^T
        w = representation_matrix(KneserParams(5, 2, 1))
        d, s, m = w.params.d, w.params.s, w.params.m
        subsets = [set(u) for size in range(s - m + 1) for u in combinations(range(d), size)]
        vertices = [{i for i in range(d) if ma >> i & 1} for ma in subset_masks(d, s)]
        left = [[int(u <= a) for u in subsets] for a in vertices]
        coeffs = pattern_polynomial_coefficients(s, m)
        diag = [coeffs[len(u)] for u in subsets]
        assert len(subsets) == w.params.rank_bound
        product = tuple(
            tuple(sum(x * c * y for x, c, y in zip(ra, diag, rb)) for rb in left)
            for ra in left
        )
        assert product == w.matrix.entries

    def test_rank_certificates_small_sweep(self):
        for d in (2, 4, 6):
            s = d // 2
            for m in range(s + 1):
                w = representation_matrix(KneserParams(d, s, m), check_rank=True)
                assert w.rank <= w.params.rank_bound

    def test_structural_invariants_hold_across_all_small_params(self):
        # includes the full structural verification (diagonal, zero pattern,
        # factorization identity) run by the builder on every instance
        for d in range(1, 9):
            for s in range(0, d + 1):
                for m in range(0, s + 1):
                    representation_matrix(KneserParams(d, s, m))


class TestRankCertificate:
    def test_certified_rank_matches_fraction_oracle(self):
        for d in range(0, 9):
            for s in range(0, d + 1):
                for m in range(0, s + 1):
                    w = representation_matrix(KneserParams(d, s, m), check_rank=True)
                    entries = [list(row) for row in w.matrix.entries]
                    rank = spectral_rank(w.params)
                    assert rank == oracle_fraction_rank(entries), (d, s, m)
                    assert w.rank == rank <= w.params.rank_bound

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 10)
        .flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d)))
        .flatmap(lambda ds: st.tuples(st.just(ds[0]), st.just(ds[1]), st.integers(0, ds[1])))
    )
    def test_spectral_rank_equals_rank_mod_p(self, dsm):
        w = representation_matrix(KneserParams(*dsm))
        assert spectral_rank(w.params) == mod_rank(w.matrix.entries, CERTIFICATE_PRIME)

    def test_spectrum_accounts_for_every_vertex_and_the_trace(self):
        # the eigenspace dimensions sum to N = C(d, s), and the eigenvalues
        # weighted by them sum to the trace N * (s-m)!
        for d in range(0, 13):
            for s in range(0, d + 1):
                for m in range(0, s + 1):
                    spectrum = johnson_spectrum(KneserParams(d, s, m))
                    assert sum(mult for _, mult in spectrum) == math.comb(d, s)
                    assert sum(v * mult for v, mult in spectrum) == (
                        math.comb(d, s) * math.factorial(s - m)
                    )

    def test_spectrum_matches_the_eberlein_form(self):
        for d in range(0, 15):
            for s in range(0, d + 1):
                for m in range(0, s + 1):
                    assert johnson_spectrum(KneserParams(d, s, m)) == oracle_johnson_spectrum(
                        d, s, m
                    ), (d, s, m)

    def test_spectral_rank_at_half_size(self):
        for s in range(2, 13):
            for m in range(2, s + 1):
                assert spectral_rank(KneserParams(2 * s, s, m)) == math.comb(2 * s, s - m)

    def test_no_elimination_on_the_kneser_path(self, monkeypatch):
        # the one elimination is the mod-p cross-check, run only with check_rank
        calls = []
        mod_rank = kneser.mod_rank

        def counted(rows, p):
            calls.append(p)
            return mod_rank(rows, p)

        monkeypatch.setattr(kneser, "mod_rank", counted)
        w = representation_matrix(KneserParams(10, 5, 2), check_rank=True)
        assert (w.rank, calls) == (120, [CERTIFICATE_PRIME])
        w = representation_matrix(KneserParams(10, 5, 1), check_rank=True)
        assert (w.rank, calls) == (126, [CERTIFICATE_PRIME] * 2)
        w = representation_matrix(KneserParams(10, 5, 2))
        assert (w.rank, calls) == (None, [CERTIFICATE_PRIME] * 2)

    def test_rank_check_at_d_12(self):
        # 924 rows of 924 columns: mod_rank reduces them packed
        w = representation_matrix(KneserParams(12, 6, 2), check_rank=True)
        assert w.rank == 495 == spectral_rank(w.params)

    def test_no_rank_without_check(self):
        w = representation_matrix(KneserParams(6, 3, 2))
        assert w.rank is None

    def test_integer_entries(self):
        w = representation_matrix(KneserParams(6, 3, 1))
        assert all(type(x) is int for row in w.matrix.entries for x in row)


class TestWitnessChecks:
    def test_corrupt_coefficient_fails_the_factorization(self, monkeypatch):
        def corrupt(s, m):
            coeffs = pattern_polynomial_coefficients(s, m)
            coeffs[-1] += 1
            return coeffs

        monkeypatch.setattr(kneser, "pattern_polynomial_coefficients", corrupt)
        with pytest.raises(VerificationError, match="^factorization mismatch"):
            representation_matrix(KneserParams(6, 3, 1))

    def test_wrong_zero_pattern_fails(self, monkeypatch):
        # P(0) = 2 for K(6,3,1); a zero there drops every edge
        def corrupt(s, m, t):
            return 0 if t == 0 else intersection_polynomial(s, m, t)

        monkeypatch.setattr(kneser, "intersection_polynomial", corrupt)
        with pytest.raises(VerificationError, match="^zero pattern mismatch at t=0$"):
            representation_matrix(KneserParams(6, 3, 1))

    def test_wrong_diagonal_fails(self, monkeypatch):
        # P(3) = 2 for K(6,3,1); a 3 there keeps the zero pattern
        def corrupt(s, m, t):
            return 3 if t == s else intersection_polynomial(s, m, t)

        monkeypatch.setattr(kneser, "intersection_polynomial", corrupt)
        with pytest.raises(VerificationError, match=r"^bad diagonal: P\(3\) = 3, need 2$"):
            representation_matrix(KneserParams(6, 3, 1))

    def test_identity_check_rejects_one_wrong_coefficient_or_value(self):
        # sum_u c_u C(t, u) first changes at t = u when c_u moves, and at t
        # alone when P(t) moves; t runs past s-m up to s
        for s, m in [(1, 0), (3, 1), (4, 2), (5, 0)]:
            coeffs = pattern_polynomial_coefficients(s, m)
            poly = [intersection_polynomial(s, m, t) for t in range(s + 1)]
            kneser._check_factorization(coeffs, poly)
            for u in range(len(coeffs)):
                wrong = coeffs[:u] + [coeffs[u] + 1] + coeffs[u + 1:]
                with pytest.raises(VerificationError, match=f"^factorization mismatch at t={u}$"):
                    kneser._check_factorization(wrong, poly)
            for t in range(s + 1):
                wrong = poly[:t] + [poly[t] - 1] + poly[t + 1:]
                with pytest.raises(VerificationError, match=f"^factorization mismatch at t={t}$"):
                    kneser._check_factorization(coeffs, wrong)

    def test_rank_outside_the_certificate_fails(self, monkeypatch):
        # K(6,3,1) has rank 10; a computed rank on either side of it is a lie
        for lie in (9, 11):
            monkeypatch.setattr(kneser, "mod_rank", lambda rows, p: lie)
            with pytest.raises(VerificationError, match="differs from the spectral rank 10"):
                representation_matrix(KneserParams(6, 3, 1), check_rank=True)

    def test_wrong_spectral_rank_fails(self, monkeypatch):
        monkeypatch.setattr(kneser, "spectral_rank", lambda params: 11)
        with pytest.raises(VerificationError, match="^rank mod p 10 differs"):
            representation_matrix(KneserParams(6, 3, 1), check_rank=True)


class TestOddGirth:
    def test_hypothesis_and_search(self):
        for d, m, ell in [(6, 1, 3), (10, 1, 5)]:
            assert odd_girth_guarantee(d, m, ell)
            assert min_odd_cycle_at_most(oracle_kneser_graph(KneserParams(d, d // 2, m)), ell) is None

    def test_hypothesis_fails(self):
        assert not odd_girth_guarantee(6, 2, 3)

    @pytest.mark.parametrize(
        "d, s, m, ell, girth",
        [
            (7, 3, 1, 7, 7),  # the odd graph O_4
            (7, 3, 1, 5, None),
            (9, 4, 1, 9, 9),  # the odd graph O_5
            (9, 4, 1, 7, None),
            (10, 5, 2, 7, 5),
            (12, 6, 2, 3, None),
            (12, 6, 2, 7, 7),
        ],
    )
    def test_odd_girths_past_the_brute_force_oracle(self, d, s, m, ell, girth):
        assert min_odd_cycle_at_most(oracle_kneser_graph(KneserParams(d, s, m)), ell) == girth

    def test_parity_errors(self):
        with pytest.raises(ValueError):
            odd_girth_guarantee(5, 1, 3)
        with pytest.raises(ValueError):
            odd_girth_guarantee(6, 1, 4)

    def test_walk_intersection_inequality(self):
        # along any walk with adjacent consecutive sets, the first set keeps
        # at least d/2 - 2i*m common elements with the (2i+1)-th one
        for d, m in [(6, 1), (10, 1)]:
            params = KneserParams(d, d // 2, m)
            g = oracle_kneser_graph(params)
            masks = subset_masks(d, d // 2)
            rng = random.Random(d)
            for _ in range(50):
                v = rng.randrange(g.n)
                walk = [v]
                for _ in range(6):
                    nbrs = [u for u in range(g.n) if g.has_edge(walk[-1], u)]
                    if not nbrs:
                        break
                    walk.append(rng.choice(nbrs))
                for i in range((len(walk) + 1) // 2):
                    if 2 * i < len(walk):
                        inter = (masks[walk[0]] & masks[walk[2 * i]]).bit_count()
                        assert inter >= d // 2 - 2 * i * m


# (ell, d, rank, rank_bound, delta, delta_star) of the construction at
# n = C(d, d/2), for d = 2*ell, 4*ell, ..., 12*ell
CONSTRUCTION_TABLE = [
    (3, 6, 10, 22, 0.231378, -0.031815),
    (3, 12, 495, 794, 0.091401, 0.022205),
    (3, 18, 18564, 31180, 0.089217, 0.041166),
    (3, 24, 735471, 1271626, 0.087914, 0.050944),
    (3, 30, 30045015, 53009102, 0.087037, 0.056932),
    (3, 36, 1251677700, 2241812648, 0.0864, 0.060982),
    (5, 10, 126, 386, 0.125356, -0.077116),
    (5, 20, 125970, 263950, 0.031582, -0.029416),
    (5, 30, 86493225, 194129627, 0.030972, -0.011895),
    (5, 40, 62852101650, 147437500478, 0.030619, -0.002622),
    (5, 50, 47129212243960, 114075475473136, 0.030386, 0.003162),
    (5, 60, 36052387482172425, 89352514190182639, 0.030219, 0.007131),
    (7, 14, 1716, 6476, 0.085144, -0.077996),
    (7, 28, 30421755, 76717268, 0.015801, -0.037032),
    (7, 42, 353697121050, 969327400112, 0.015545, -0.021778),
    (7, 56, 4355031703297275, 12598620105244084, 0.015399, -0.013645),
    (7, 70, 55347740058143507128, 166450976144260284576, 0.015304, -0.008546),
    (7, 84, 717695188972926181773210, 2223112132762996246666808, 0.015236, -0.005033),
]


class TestEntropyReport:
    def test_small_instance(self):
        rep = rank_bound_report(3, 20)
        assert (rep.d, rep.m) == (6, 1)
        assert rep.rank_bound == 22
        assert rep.vertex_count == 20
        assert rep.delta_star < 0  # bound is vacuous at this scale
        assert (rep.rank, rep.delta) == (10, 0.231378)

    @pytest.mark.parametrize("ell, d, rank, rank_bound, delta, delta_star", CONSTRUCTION_TABLE)
    def test_construction_table(self, ell, d, rank, rank_bound, delta, delta_star):
        rep = rank_bound_report(ell, math.comb(d, d // 2))
        assert (rep.d, rep.m, rep.vertex_count) == (d, d // (2 * ell), math.comb(d, d // 2))
        assert (rep.rank, rep.rank_bound, rep.delta, rep.delta_star) == (
            rank, rank_bound, delta, delta_star
        )
        spectrum = oracle_johnson_spectrum(d, d // 2, d // (2 * ell))
        assert rank == sum(mult for value, mult in spectrum if value)

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_exact_delta_above_and_bound_delta_below_the_limit(self, ell):
        # the exact rank's exponent falls toward the entropy limit from above,
        # the factorization width's rises toward it from below
        limit = entropy_delta_limit(ell)
        rows = [row for row in CONSTRUCTION_TABLE if row[0] == ell]
        deltas = [row[4] for row in rows]
        bounds = [row[5] for row in rows]
        assert all(limit <= b < a for a, b in zip(deltas, deltas[1:]))
        assert all(a < b <= limit for a, b in zip(bounds, bounds[1:]))

    def test_d_is_smallest_multiple(self):
        rep = rank_bound_report(3, 21)  # just past C(6,3)
        assert rep.d == 12

    def test_delta_increases_toward_entropy_limit(self):
        values = [
            rank_bound_report(3, math.comb(d, d // 2)).delta_star
            for d in (60, 120, 240, 480)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < entropy_delta_limit(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_bound_report(4, 10)
        with pytest.raises(ValueError):
            rank_bound_report(3, 0)

    def test_entropy_function(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert 0.91 < binary_entropy(1 / 3) < 0.92
