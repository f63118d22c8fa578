"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned in the assertions below; everything not marked
with an explicit numeric tolerance is exact.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from minranklab.cli import main as cli_main
from minranklab.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    min_odd_cycle_at_most,
    path_graph,
    star_graph,
)
from minranklab.graphio import write_graph6
from minranklab.kneser import (
    KneserParams,
    entropy_delta_limit,
    odd_girth_guarantee,
    rank_bound_report,
    representation_matrix,
)
from minranklab.lll import check_lll_inequalities, find_constants, find_threshold, gamma_stats
from minranklab.minrank import minrank_exact, represents
from minranklab.verifiers import (
    estimate_g,
    exhaustive_g,
    verify_forest_bound,
    verify_principal_submatrix_decomposition,
    verify_sparse_basis_count,
    verify_sparsity_lower_bound,
)

from _oracles import oracle_kneser_graph, oracle_minrank

TIMESTAMP_KEYS = {"started_at", "finished_at"}


def _scrub(obj):
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k not in TIMESTAMP_KEYS}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _canonical_payload(out: str) -> str:
    try:
        docs = [json.loads(out)]
    except json.JSONDecodeError:
        docs = [json.loads(line) for line in out.strip().splitlines() if line]
    return "\n".join(json.dumps(_scrub(d), sort_keys=True) for d in docs)


@pytest.fixture(scope="module")
def minrank5_gf2():
    """Exact minrank of every 5-vertex graph over GF(2), keyed by edge mask."""
    return {
        mask: minrank_exact(Graph.from_edge_mask(5, mask), 2).value
        for mask in range(1 << 10)
    }


def test_c01_solver_oracle_equivalence():
    started = time.perf_counter()
    for p in (2, 3):
        for mask in range(64):
            g = Graph.from_edge_mask(4, mask)
            assert minrank_exact(g, p).value == oracle_minrank(g, p), (mask, p)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"solver-oracle sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 solver-oracle equivalence (n=4, GF(2)/GF(3)): PASS ({elapsed:.1f}s)")


def test_c02_anchor_values():
    for p in (2, 3):
        for n in range(1, 9):
            assert minrank_exact(complete_graph(n), p).value == 1
            assert minrank_exact(empty_graph(n), p).value == n
    print("\nACCEPTANCE 2 anchors minrank(K_n)=1, minrank(empty_n)=n (n<=8, p in {2,3}): PASS")


def test_c03_product_bound(minrank5_gf2):
    violations = 0
    for mask in range(1 << 10):
        comp_mask = complement(Graph.from_edge_mask(5, mask)).edge_mask()
        if minrank5_gf2[mask] * minrank5_gf2[comp_mask] < 5:
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 3 product bound on all 1024 graphs at n=5 over GF(2): PASS")


def test_c04_forest_bound_desk_scale():
    for h_tree, h in ((path_graph(3), 3), (star_graph(3), 4)):
        for n in (4, 5):
            report = verify_forest_bound(n, h_tree, 2)
            assert report.ok, report.violations
            assert report.instances_checked == 1 << (n * (n - 1) // 2)
    print("\nACCEPTANCE 4 forest bound sweeps (P3 and K_{1,3}, n in {4,5}, GF(2)): PASS")


def test_c05_kneser_representation():
    started = time.perf_counter()
    for d in (2, 4, 6, 8, 10):
        s = d // 2
        for m in range(0, s + 1):
            params = KneserParams(d, s, m)
            witness = representation_matrix(params, check_rank=True)
            assert witness.rank is not None and witness.rank <= params.rank_bound
            if params.vertex_count <= 70:
                assert represents(witness.matrix, oracle_kneser_graph(params))
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"kneser sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 representation witnesses for even d<=10, all m<=d/2: PASS ({elapsed:.1f}s)")


def test_c06_odd_girth_guarantees():
    for d, m, ell in [(6, 1, 3), (12, 2, 3), (10, 1, 5)]:
        assert odd_girth_guarantee(d, m, ell)
        assert min_odd_cycle_at_most(oracle_kneser_graph(KneserParams(d, d // 2, m)), ell) is None
    print("\nACCEPTANCE 6 no short odd cycles in K(6,3,1), K(12,6,2), K(10,5,1): PASS")


def test_c07_entropy_numerics():
    for ell in (3, 5):
        d = 480 * ell // 3
        report = rank_bound_report(ell, math.comb(d, d // 2))
        assert report.d == d
        limit = entropy_delta_limit(ell)
        assert abs(report.delta_star - limit) < 0.01, (ell, report.delta_star, limit)
    print("\nACCEPTANCE 7 delta_star within 0.01 of the entropy limit (ell in {3,5}): PASS")


def test_c08_matrix_lemma_sweeps():
    started = time.perf_counter()
    report = verify_sparsity_lower_bound(4, 2)
    assert report.ok
    for n in (1, 2, 3):
        for rep in verify_sparse_basis_count(n, 2):
            assert rep.ok, rep.violations
    for rep in verify_principal_submatrix_decomposition(3, 2):
        assert rep.ok, rep.violations
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"lemma sweeps took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 8 sparse-matrix lemma sweeps, zero violations: PASS ({elapsed:.1f}s)")


def test_c09_lll_arithmetic():
    patterns = [complete_graph(3), complete_graph(4), cycle_graph(5)]
    for h_graph in patterns:
        stats = gamma_stats(h_graph)
        for field_size in (2, 3):
            inst = find_constants(stats, field_size)
            assert inst.constraint_items() == (True, True, True)
            report, _ = find_threshold(inst)
            assert report is not None
            at_n0 = check_lll_inequalities(inst, report.n)
            assert at_n0.holds
            assert at_n0.weight_sum <= 1.0
            assert 0 < at_n0.k < report.n
            start_exp = max(2, report.n.bit_length())
            for j in range(start_exp, 41):
                assert check_lll_inequalities(inst, 2**j).holds, (stats, field_size, j)
    print("\nACCEPTANCE 9 constants satisfy the constraint items; finite thresholds found: PASS")


def test_c10_ground_truth_and_gamma(minrank5_gf2):
    sweep = exhaustive_g(5, complete_graph(3), 2)
    assert sweep.value == 3
    estimate = estimate_g(5, complete_graph(3), 2, samples=3000, seed=0)
    assert estimate.best == 3
    for t in (3, 4, 5):
        assert gamma_stats(complete_graph(t)).gamma0 == Fraction(2, t + 1)
    print("\nACCEPTANCE 10 g(5,K3,GF(2)) = 3, reproduced by sampling; gamma0(K_t) = 2/(t+1): PASS")


def test_c11_cli_determinism(tmp_path, capsys):
    c5 = tmp_path / "c5.g6"
    write_graph6(cycle_graph(5), str(c5))
    commands = [
        ["minrank", "exact", "--field", "2", "--graph", str(c5)],
        ["kneser", "build", "--d", "6", "--s", "3", "--m", "1", "--check-rank"],
        ["kneser", "plan", "--ell", "3", "--n", "20"],
        ["lll", "analyze", "--h-graph", "K3", "--field-size", "2",
         "--find-threshold", "--max-exponent", "14"],
        ["verify", "lemma", "--id", "sparsity", "--n-max", "3", "--field", "2"],
        ["experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
         "--samples", "80", "--seed", "11"],
    ]
    for argv in commands:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert _canonical_payload(first) == _canonical_payload(second), argv

    # byte-exact convert round trip
    edges = tmp_path / "c5.edges"
    back = tmp_path / "back.g6"
    assert cli_main(["convert", "--in", str(c5), "--out", str(edges)]) == 0
    assert cli_main(["convert", "--in", str(edges), "--out", str(back)]) == 0
    capsys.readouterr()
    assert back.read_bytes() == c5.read_bytes()
    print("\nACCEPTANCE 11 CLI reruns byte-identical (timestamps excluded): PASS")
