import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import pytest

from minranklab import verifiers
from minranklab.budgets import BudgetExceededError
from minranklab.graphio import graph_to_graph6
from minranklab.graphs import (
    Graph,
    complement,
    complete_graph,
    contains_subgraph,
    cycle_graph,
    empty_graph,
    named_graph,
    path_graph,
    sample_digraph,
    star_graph,
    underlying_graph,
)
from minranklab.matrices import FieldMatrix
from minranklab.minrank import minrank_exact
from minranklab.verifiers import (
    basis_weight_census,
    estimate_g,
    exhaustive_g,
    multipartite_witness,
    regime_edge_prob,
    verify_forest_bound,
    verify_principal_submatrix_decomposition,
    verify_sparse_basis_count,
    verify_sparsity_lower_bound,
)

from _builders import field_identity
from _oracles import (
    _plain_mod_rank,
    oracle_basis_weight_census,
    oracle_extremal,
    oracle_nonzero_diagonal_matrices,
)


def _sorted(violations: list) -> list:
    return sorted(violations, key=lambda v: json.dumps(v, sort_keys=True))


class TestMatrixDecoder:
    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (2, 3)])
    def test_visits_each_matrix_once(self, n, p):
        total = (p - 1) ** n * p ** (n * n - n)
        tables = verifiers._row_tables(n, p)
        seen = list(product(*tables))
        expected = {
            tuple(flat[i * n:(i + 1) * n] for i in range(n))
            for flat in product(range(p), repeat=n * n)
            if all(flat[i * (n + 1)] for i in range(n))
        }
        assert len(seen) == len(set(seen)) == total
        assert set(seen) == expected


class TestSparsityLowerBound:
    def test_small_fields_clean(self):
        for p, n_max in [(2, 3), (3, 2)]:
            report = verify_sparsity_lower_bound(n_max, p)
            assert report.ok
            assert report.instances_checked > 0

    def test_instance_counts(self):
        # (p-1)^n * p^(n^2-n) matrices per n
        report = verify_sparsity_lower_bound(2, 3)
        assert report.instances_checked == 2 * 1 + 4 * 9

    def test_identity_is_tight_within_factor_four(self):
        # the bound n^2/(4k) is off by exactly 4 on the identity: s = n^2/k
        for n in (1, 2, 3, 4):
            m = field_identity(2, n)
            assert verifiers._nonzeros(m.entries) * m.rank() == n * n

    def test_budget_refusal(self, monkeypatch):
        # n = 5 is over budget, so the sweep refuses before it ranks any
        # matrix of the smaller sizes
        def rank(rows, p):
            raise RuntimeError("a matrix was ranked")

        monkeypatch.setattr(verifiers, "mod_rank", rank)
        with pytest.raises(BudgetExceededError):
            verify_sparsity_lower_bound(5, 2)

    @pytest.mark.parametrize("p", [1, 4])
    def test_non_prime_field_refused(self, p):
        with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
            verify_sparsity_lower_bound(2, p)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_empty_sweep_refused(self, n_max):
        with pytest.raises(ValueError, match=f"n_max {n_max} leaves no matrix to check"):
            verify_sparsity_lower_bound(n_max, 2)

    def test_rank_zero_reports_every_matrix_with_its_sparsity(self, monkeypatch):
        monkeypatch.setattr(verifiers, "mod_rank", lambda rows, p: 0)
        report = verify_sparsity_lower_bound(2, 3)
        expected = [
            {
                "n": n,
                "matrix": rows,
                "rank": 0,
                "sparsity": sum(1 for row in rows for x in row if x),
            }
            for n in (1, 2)
            for rows in oracle_nonzero_diagonal_matrices(n, 3)
        ]
        assert report.instances_checked == len(expected) == 38
        assert report.violations == _sorted(expected)

    def test_no_basis_searches(self, monkeypatch):
        # the sweep reads only the rank, so it runs no sparse-basis search
        calls = []
        search = verifiers.min_weight_basis

        def counted(vectors, p):
            calls.append(vectors)
            return search(vectors, p)

        monkeypatch.setattr(verifiers, "min_weight_basis", counted)
        assert verify_sparsity_lower_bound(4, 2).ok
        assert calls == []


class TestSparseBasisCount:
    def test_two_by_two_point(self):
        [report] = verify_sparse_basis_count(2, 2, k=1, ell=1)
        assert report.ok
        assert report.instances_checked == 16
        assert report.params == {"n": 2, "k": 1, "ell": 1, "p": 2}

    def test_rank_zero_counts_only_zero_matrix(self):
        census = basis_weight_census(2, 2)
        assert census.get((0, 0, 0)) == 1

    def test_full_ell_admits_every_rank_k_matrix(self):
        # a basis has at most n*k nonzeros, so ell = n*k filters nothing
        for n in (2, 3):
            census = basis_weight_census(n, 2)
            for k in range(n + 1):
                total = sum(v for (r, _, _), v in census.items() if r == k)
                admitted = sum(
                    v
                    for (r, wc, wr), v in census.items()
                    if r == k and wc <= n * k and wr <= n * k
                )
                assert admitted == total

    def test_all_small_cases_clean(self):
        for n in (1, 2, 3):
            reports = verify_sparse_basis_count(n, 2)
            assert all(report.ok for report in reports)

    @pytest.mark.parametrize(
        "k, ell, pairs",
        [
            (None, None, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4)]),
            (2, None, [(2, 1), (2, 2), (2, 3), (2, 4)]),
            (None, 3, [(0, 3), (1, 3), (2, 3)]),
            (1, 7, [(1, 7)]),
        ],
    )
    def test_one_report_per_pair_from_one_census(self, monkeypatch, k, ell, pairs):
        # k in 0..n, ell in 1..n*max(k, 1), k outermost; one census per call
        calls = []
        census = verifiers.basis_weight_census

        def counted(*args, **kwargs):
            calls.append(args)
            return census(*args, **kwargs)

        monkeypatch.setattr(verifiers, "basis_weight_census", counted)
        reports = verify_sparse_basis_count(2, 2, k=k, ell=ell)
        assert [(r.params["k"], r.params["ell"]) for r in reports] == pairs
        assert calls == [(2, 2)]

    def test_violation_names_its_pair(self, monkeypatch):
        # rank 1 with basis weights (1, 2) is admitted only by (k, ell) = (1, 2)
        monkeypatch.setattr(
            verifiers, "basis_weight_census", lambda n, p, enumeration_budget: {(1, 1, 2): 10**30}
        )
        reports = verify_sparse_basis_count(2, 2)
        violation = {"n": 2, "k": 1, "ell": 2, "count": 10**30, "bound": 4**12}
        assert [r.violations for r in reports] == [[], [], [], [violation], [], [], [], []]
        # instances_checked is the number of matrices the census counted
        assert all(r.instances_checked == 10**30 for r in reports)

    @pytest.mark.parametrize(
        "k, ell, message",
        [
            (3, 1, "rank k=3"),
            (-1, 1, "rank k=-1"),
            (1, 0, "sparsity ell=0"),
            (3, None, "rank k=3"),
            (None, -1, "sparsity ell=-1"),
            (5, -1, "rank k=5"),
        ],
    )
    def test_sweep_that_checks_nothing_refused(self, k, ell, message):
        with pytest.raises(ValueError, match=f"^{message} leaves no matrix to check"):
            verify_sparse_basis_count(2, 2, k=k, ell=ell)

    @pytest.mark.parametrize(
        "n, k, ell, message",
        [
            (-1, 0, 1, "rank k=0"),
            (0, None, None, "matrix size 0"),
            (0, 5, None, "matrix size 0"),
            (0, 0, 1, "matrix size 0"),
        ],
    )
    def test_size_below_one_refused(self, n, k, ell, message):
        # a range with no pair at n = 0 reaches the census, then the size refusal
        with pytest.raises(ValueError, match=f"^{message} leaves no matrix to check"):
            verify_sparse_basis_count(n, 2, k=k, ell=ell)

    def test_range_refused_before_the_census(self, monkeypatch):
        def census(*args, **kwargs):
            raise RuntimeError("the census ran")

        monkeypatch.setattr(verifiers, "basis_weight_census", census)
        with pytest.raises(ValueError, match="^rank k=9 leaves no matrix to check"):
            verify_sparse_basis_count(4, 4, k=9)

    @pytest.mark.parametrize(
        "n, p, message",
        [(-1, 2, "matrix size -1 is negative"), (2, 4, "modulus 4 is not prime"),
         (0, 4, "modulus 4 is not prime")],
    )
    def test_census_refusals_come_first_past_the_range(self, n, p, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            verify_sparse_basis_count(n, p)


class TestBasisWeightCensus:
    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (2, 5)])
    def test_matches_subset_oracle(self, n, p):
        assert basis_weight_census(n, p) == oracle_basis_weight_census(n, p)

    @pytest.mark.parametrize(
        "n,p", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (2, 5), (2, 7)]
    )
    def test_counts_every_matrix(self, n, p):
        # the row orders of the multisets add up to the p^(n^2) matrices
        assert sum(basis_weight_census(n, p).values()) == p ** (n * n)

    @pytest.mark.parametrize("n,p,multisets", [(4, 2, 3876), (3, 3, 3654)])
    def test_one_profile_per_row_multiset(self, monkeypatch, n, p, multisets):
        # C(p^n + n - 1, n) multisets of n rows, against p^(n^2) matrices
        calls = []
        profile = verifiers._matrix_profile

        def counted(rows, p, memo):
            calls.append(rows)
            return profile(rows, p, memo)

        monkeypatch.setattr(verifiers, "_matrix_profile", counted)
        basis_weight_census(n, p)
        assert len(calls) == len(set(calls)) == multisets == math.comb(p**n + n - 1, n)

    def test_rank_counts_closed_form(self):
        # rank-r matrices among the 4x4 over GF(2): 1, 225, 7350, 37800, 20160
        by_rank: dict[int, int] = {}
        for (rank, _, _), value in basis_weight_census(4, 2).items():
            by_rank[rank] = by_rank.get(rank, 0) + value
        assert by_rank == {0: 1, 1: 225, 2: 7350, 3: 37800, 4: 20160}

    def test_jobs_other_than_one_refused(self):
        # the census runs in one process; jobs=1 stays accepted
        assert basis_weight_census(3, 2, jobs=1) == basis_weight_census(3, 2)
        with pytest.raises(ValueError, match="jobs must be 1, not 2"):
            basis_weight_census(3, 2, jobs=2)

    def test_non_prime_field_refused_before_budget(self):
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            basis_weight_census(2, 4)
        # 4^81 matrices would trip the budget; the modulus is refused first
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            basis_weight_census(9, 4)

    def test_negative_size_refused_before_budget(self):
        with pytest.raises(ValueError, match="matrix size -1 is negative"):
            basis_weight_census(-1, 2)

    def test_budget_counts_row_multisets(self):
        # C(36, 5) = 376992 multisets of five rows, not the 2^25 matrices
        with pytest.raises(BudgetExceededError) as info:
            basis_weight_census(5, 2)
        assert info.value.estimate == 376992

    def test_huge_domain_is_a_budget_refusal(self):
        # C(2^125 + 124, 125) multisets: an estimate too long for str() in full
        with pytest.raises(BudgetExceededError) as info:
            basis_weight_census(125, 2)
        assert info.value.estimate == math.comb(2**125 + 124, 125)
        assert "estimated work about 10^4494" in str(info.value)

    def test_one_search_per_vector_multiset_per_call(self, monkeypatch):
        # C(16 + 3, 4) = 3876 multisets of four vectors of GF(2)^4; a second
        # call searches them all again, so the memo lives for one call only
        calls = [0]
        search = verifiers.min_weight_basis

        def counted(vectors, p):
            calls[0] += 1
            return search(vectors, p)

        monkeypatch.setattr(verifiers, "min_weight_basis", counted)
        for _ in range(2):
            calls[0] = 0
            basis_weight_census(4, 2)
            assert calls[0] == 3876

    def test_row_column_rank_mismatch_raises(self, monkeypatch):
        search = verifiers.min_weight_basis

        def lying(vectors, p):
            # [[0, 1], [0, 1]] has rows {(0,1), (0,1)} but columns {(0,0), (1,1)}
            rank, weight = search(vectors, p)
            return rank + (vectors == ((0, 1), (0, 1))), weight

        monkeypatch.setattr(verifiers, "min_weight_basis", lying)
        with pytest.raises(RuntimeError, match="differs from column rank"):
            basis_weight_census(2, 2)


class TestPrincipalSubmatrix:
    def test_clean_sweeps(self):
        reports = verify_principal_submatrix_decomposition(3, 2)
        assert [r.params for r in reports] == [{"n_max": 3, "k": k, "p": 2} for k in (1, 2, 3)]
        assert all(r.ok and r.instances_checked == 1 + 4 + 64 for r in reports)

    def test_fixed_k_is_one_report(self):
        [report] = verify_principal_submatrix_decomposition(3, 2, k=5)
        assert report.ok and report.params == {"n_max": 3, "k": 5, "p": 2}

    def test_matrices_listed_once_per_call(self, monkeypatch):
        # one row table per size n, whatever the number of ranks k
        calls = []
        tables = verifiers._row_tables

        def counted(n, p):
            calls.append(n)
            return tables(n, p)

        monkeypatch.setattr(verifiers, "_row_tables", counted)
        assert len(verify_principal_submatrix_decomposition(3, 2)) == 3
        assert calls == [1, 2, 3]

    def test_all_ones_two_by_two(self):
        # the full 2x2 block qualifies: n'=2, k'=1, s'=4, ell=4
        m = [(1, 1), (1, 1)]
        assert FieldMatrix.from_rows(2, m).rank() == 1
        assert verifiers._nonzeros(m) == 4
        # one column and one row of weight 2 each: 2 * n' <= 2 s' k'
        assert verifiers._matrix_profile(m, 2, {}) == (1, 2, 2)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            verify_principal_submatrix_decomposition(5, 2)

    def test_non_prime_field_refused(self):
        for n_max in (2, 0):
            with pytest.raises(ValueError, match="modulus 4 is not prime"):
                verify_principal_submatrix_decomposition(n_max, 4)

    @pytest.mark.parametrize(
        "n_max, k, message",
        [(2, 0, "rank bound k=0"), (0, 1, "n_max 0"), (0, None, "n_max 0"),
         (-1, None, "n_max -1"), (0, 0, "rank bound k=0")],
    )
    def test_empty_sweep_refused(self, n_max, k, message):
        with pytest.raises(ValueError, match=f"^{message} leaves no matrix to check"):
            verify_principal_submatrix_decomposition(n_max, 2, k=k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_qualifying_block_reports_every_rank_k_matrix(self, monkeypatch, k):
        # basis weights above every threshold 2 s' k' / n' leave no block
        search = verifiers.min_weight_basis
        monkeypatch.setattr(
            verifiers, "min_weight_basis", lambda vectors, p: (search(vectors, p)[0], 10**6)
        )
        [report] = verify_principal_submatrix_decomposition(3, 2, k=k)
        expected = [
            {"n": n, "k": k, "matrix": rows}
            for n in (1, 2, 3)
            for rows in oracle_nonzero_diagonal_matrices(n, 2)
            if _plain_mod_rank(rows, 2) <= k
        ]
        assert report.instances_checked == 1 + 4 + 64
        assert report.violations == _sorted(expected)


    def test_default_range_equals_each_fixed_k(self, monkeypatch):
        # one listing and one memo for every k give each k's own report
        search = verifiers.min_weight_basis
        monkeypatch.setattr(
            verifiers, "min_weight_basis", lambda vectors, p: (search(vectors, p)[0], 10**6)
        )
        reports = verify_principal_submatrix_decomposition(3, 2)
        assert reports == [
            verify_principal_submatrix_decomposition(3, 2, k=k)[0] for k in (1, 2, 3)
        ]
        assert all(report.violations for report in reports)


class TestForestBound:
    def test_path_pattern(self):
        report = verify_forest_bound(4, path_graph(3), 2)
        assert report.ok
        assert report.instances_checked == 64

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            verify_forest_bound(4, cycle_graph(3), 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            verify_forest_bound(2, star_graph(3), 2)

    def test_rejects_a_one_vertex_tree(self):
        # K1 is a tree, but the witness's parts would have h - 1 = 0 vertices
        with pytest.raises(ValueError, match="at least 2 vertices"):
            verify_forest_bound(0, complete_graph(1), 2)
        with pytest.raises(ValueError, match="at least 2 vertices"):
            multipartite_witness(3, 1)

    def test_multipartite_witness_shape(self):
        w = multipartite_witness(5, 4)
        assert w.n == 5
        # parts 3 + 2: complement is K3 + K2
        assert w.edge_count() == 10 - 3 - 1


class TestExhaustive:
    def test_known_values(self):
        assert exhaustive_g(3, complete_graph(3), 2).value == 2
        assert exhaustive_g(4, complete_graph(3), 2).value == 2
        assert exhaustive_g(5, complete_graph(3), 2).value == 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("pattern", ["K3", "P3", "star3", "C4", "P4"])
    def test_matches_networkx_oracle(self, n, pattern, monkeypatch):
        h = named_graph(pattern)
        classes = oracle_extremal(n, h)
        accepted = sorted(mask for masks in classes for mask in masks)
        values = {
            mask: minrank_exact(Graph.from_edge_mask(n, mask), 2).value for mask in accepted
        }
        best = max(values.values())
        solved = []
        solve = verifiers.minrank_exact

        def counted(g, p, work_budget):
            solved.append(g)
            return solve(g, p, work_budget)

        monkeypatch.setattr(verifiers, "minrank_exact", counted)
        result = exhaustive_g(n, h, 2)
        assert (result.accepted, result.evaluated) == (len(accepted), len(classes))
        assert result.value == best
        assert result.witness.edge_mask() == min(m for m in accepted if values[m] == best)
        # exactly one solve per networkx class
        assert len(solved) == len(classes)
        as_nx = []
        for g in solved:
            as_nx.append(nx.empty_graph(g.n))
            as_nx[-1].add_edges_from(g.edges())
        assert not any(nx.is_isomorphic(a, b) for a, b in combinations(as_nx, 2))

    def test_work_counters_at_six(self, monkeypatch):
        calls = {"contains_subgraph": 0, "canonical_key": 0}
        for name in calls:
            original = getattr(verifiers, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(verifiers, name, counted)
        exhaustive_g(6, complete_graph(3), 2)
        # one containment test per (class at v - 1, back-neighbourhood), one
        # key per survivor and one for the empty start graph
        assert calls == {"contains_subgraph": 595, "canonical_key": 336}
        # the containment tests are what graph_budget counts
        for n, tests in [(7, 3027), (8, 16723)]:
            calls["contains_subgraph"] = 0
            exhaustive_g(n, complete_graph(3), 2)
            assert calls["contains_subgraph"] == tests

    def test_triangle_table(self):
        results = [exhaustive_g(n, complete_graph(3), 2) for n in range(1, 7)]
        table = [(r.accepted, r.evaluated) for r in results]
        assert table == [(1, 1), (2, 2), (7, 3), (41, 7), (388, 14), (5789, 38)]

    def test_dedup_false_refused(self):
        with pytest.raises(ValueError, match="always deduplicates"):
            exhaustive_g(3, complete_graph(3), 2, dedup=False)

    def test_triangle_case_at_six(self):
        result = exhaustive_g(6, complete_graph(3), 2)
        assert (result.value, result.accepted, result.evaluated) == (3, 5789, 38)
        assert graph_to_graph6(result.witness) == "ELn?"

    @pytest.mark.parametrize(
        "n, p, accepted, evaluated, witness",
        [
            (7, 2, 133501, 107, "FLm}?"),
            (7, 3, 133501, 107, "FLm}?"),
            (8, 2, 4682270, 410, "GLm|}?"),
        ],
    )
    def test_triangle_rows_under_the_default_budget(self, n, p, accepted, evaluated, witness):
        result = exhaustive_g(n, complete_graph(3), p)
        assert (result.value, result.accepted, result.evaluated) == (3, accepted, evaluated)
        assert result.graphs_checked == 1 << n * (n - 1) // 2
        assert graph_to_graph6(result.witness) == witness

    def test_single_edge_pattern_leaves_only_complete_graph(self):
        result = exhaustive_g(3, path_graph(2), 2)
        assert result.accepted == 1
        assert result.value == 1  # only K3 survives

    def test_no_admissible_graph(self):
        # a one-vertex pattern embeds in every complement
        with pytest.raises(ValueError):
            exhaustive_g(3, complete_graph(1), 2)

    def test_budget_refusal(self, monkeypatch):
        # the n = 7 sweep makes 3,027 containment tests, the last 38 * 2^6 of
        # them growing to 7 vertices
        assert exhaustive_g(7, complete_graph(3), 2, graph_budget=3027).value == 3
        monkeypatch.setattr(verifiers, "minrank_exact", None)  # refused before any solve
        with pytest.raises(BudgetExceededError, match="growing to 7 vertices") as info:
            exhaustive_g(7, complete_graph(3), 2, graph_budget=3026)
        assert (info.value.estimate, info.value.budget) == (3027, 3026)

    def test_hopeless_sweep_refused_before_it_grows(self, monkeypatch):
        # K3 has no isolated vertex, so no level has fewer classes than the
        # one below: after the 16,723 tests that grow 8 vertices, the 410
        # classes there make 410 * 2^8 tests growing to 9 and at least
        # 410 * 2^9 growing to 10, past the budget before anything grows on
        with pytest.raises(BudgetExceededError, match="growing to 9 vertices") as info:
            exhaustive_g(10, complete_graph(3), 2)
        assert info.value.estimate == 16723 + 410 * (2**8 + 2**9)
        monkeypatch.setattr(verifiers, "contains_subgraph", None)  # refused before any test
        with pytest.raises(BudgetExceededError, match="growing to 1 vertices") as info:
            exhaustive_g(200, path_graph(3), 2)
        assert info.value.estimate == 2**200 - 1

    def test_pattern_with_an_isolated_vertex_counts_only_the_tests_so_far(self):
        # two isolated vertices embed in every complement of two or more
        # vertices, so the sweep ends after 1 + 2 tests; a bound that assumed
        # the classes never shrink would refuse it at once
        with pytest.raises(ValueError, match="no graph on n vertices"):
            exhaustive_g(20, empty_graph(2), 2, graph_budget=3)

    @pytest.mark.parametrize("p", [4, 1])
    def test_non_prime_field_refused_before_the_sweep(self, p, monkeypatch):
        # a one-vertex pattern leaves no graph to solve, so only an up-front
        # check sees the field
        monkeypatch.setattr(verifiers, "contains_subgraph", None)
        with pytest.raises(ValueError, match=f"^field size {p} is not prime$"):
            exhaustive_g(3, complete_graph(1), p)

    @pytest.mark.parametrize("n", [-3, -3000])
    def test_negative_vertex_count_refused_before_budget(self, n):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            exhaustive_g(n, complete_graph(3), 2)


class TestEstimate:
    def test_matches_exhaustive_with_enough_samples(self):
        est = estimate_g(5, complete_graph(3), 2, samples=3000, seed=0)
        assert est.best == 3
        assert 0 < est.acceptance_rate < 1

    def test_never_exceeds_exhaustive(self):
        for n in (3, 4, 5):
            truth = exhaustive_g(n, complete_graph(3), 2).value
            for seed in (1, 2):
                est = estimate_g(n, complete_graph(3), 2, samples=200, seed=seed)
                assert est.best is None or est.best <= truth

    def test_every_graph_accepted_when_pattern_too_big(self):
        # complement of a 3-vertex graph cannot contain a 4-clique
        est = estimate_g(3, complete_graph(4), 2, samples=60, seed=5, edge_prob=0.2)
        assert est.accepted == est.samples
        assert est.best == 3  # the empty graph shows up at low edge_prob

    def test_zero_accepted_is_explicit(self):
        # pattern = one edge: only the complete graph survives, and arc
        # probability 0.1 never yields K5 in a few samples
        est = estimate_g(5, path_graph(2), 2, samples=5, seed=1, edge_prob=0.1)
        assert est.accepted == 0
        assert est.best is None
        assert est.witness is None
        assert est.acceptance_rate == 0.0

    def test_deterministic(self):
        a = estimate_g(5, complete_graph(3), 2, samples=300, seed=9)
        b = estimate_g(5, complete_graph(3), 2, samples=300, seed=9)
        assert a == b

    def test_witness_is_first_maximum(self):
        n, h, samples, seed = 5, complete_graph(3), 300, 0
        rng = random.Random(seed)
        graphs = [
            underlying_graph(sample_digraph(n, 0.5, rng.getrandbits(63)))
            for _ in range(samples)
        ]
        values = [
            None if contains_subgraph(complement(g), h) else minrank_exact(g, 2).value
            for g in graphs
        ]
        best = max(v for v in values if v is not None)
        maximizers = [g for g, v in zip(graphs, values) if v == best]
        assert maximizers[0] != maximizers[-1]  # the tie-break decides
        est = estimate_g(n, h, 2, samples=samples, seed=seed)
        assert est.best == best
        assert est.accepted == sum(v is not None for v in values)
        assert est.witness == maximizers[0]

    @pytest.mark.parametrize("p", [4, 1])
    def test_non_prime_field_refused_with_nothing_accepted(self, p):
        # a one-vertex pattern rejects every sample, so no solve sees the field
        with pytest.raises(ValueError, match=f"^field size {p} is not prime$"):
            estimate_g(5, complete_graph(1), p, samples=3)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            estimate_g(4, complete_graph(3), 2, samples=0)


def test_regime_edge_prob():
    # q = c2 * n^-gamma, arc probability is its complement
    assert regime_edge_prob(Fraction(1, 2), Fraction(1, 64), 4096) == 1 - (1 / 64) / 64
    assert regime_edge_prob(Fraction(1, 2), Fraction(1), 1) == 0.0
