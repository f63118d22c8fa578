"""Tests of the benchmark's own checks, oracle, inputs and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

import pytest

import checks
import run
from inputs import SOLVE_SPECS, draw_digraph, select_round, search_range
from oracle import load_values, max_acyclic_induced, oracle_minrank
from tracer import Tracer

from minranklab.graphs import complete_graph, cycle_graph, sample_digraph
from minranklab.minrank import minrank_bounds, minrank_exact
from minranklab.verifiers import basis_weight_census, exhaustive_g

ROOT = Path(__file__).resolve().parent.parent

C5 = cycle_graph(5).adj


def brute_minrank(adj, p):
    n = len(adj)
    free = [(i, j) for i in range(n) for j in range(n) if adj[i] >> j & 1]
    best = n
    for values in product(range(p), repeat=len(free)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), x in zip(free, values):
            rows[i][j] = x
        best = min(best, checks.rank_mod_p(rows, p))
    return best


# ---------------------------------------------------------------------------
# oracle

@pytest.mark.parametrize("p", [2, 3])
def test_oracle_known_values(p):
    assert oracle_minrank(C5, p) == 3
    for n in range(1, 6):
        assert oracle_minrank(complete_graph(n).adj, p) == 1
    assert oracle_minrank((0,) * 4, p) == 4


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_matches_brute_force(p):
    rng = random.Random(p)
    for _ in range(25):
        adj = draw_digraph(4, rng.getrandbits(63))
        if sum(a.bit_count() for a in adj) <= 8:
            assert oracle_minrank(adj, p) == brute_minrank(adj, p)


def test_max_acyclic_induced():
    assert max_acyclic_induced(C5) == 2  # each edge is a 2-cycle
    assert max_acyclic_induced((0b10, 0b100, 0b1)) == 2  # directed triangle
    assert max_acyclic_induced((0b110, 0b100, 0)) == 3  # transitive tournament


def test_stored_oracle_values_of_seed_0():
    stored = load_values()
    for name, spec in SOLVE_SPECS.items():
        assert stored[name]["0"] == [value for _, value in select_round(spec, 0)]


# ---------------------------------------------------------------------------
# solves

def test_check_solve_accepts_solver_witnesses():
    for p in (2, 3):
        res = minrank_exact(cycle_graph(5), p)
        assert res.value == 3
        assert checks.check_solve(C5, p, res.value, res.witness.entries, 3) == []
    ones = [[1] * 4 for _ in range(4)]
    assert checks.check_solve(complete_graph(4).adj, 2, 1, ones, 1) == []


def test_check_solve_rejects_corruption():
    res = minrank_exact(cycle_graph(5), 2)
    entries = [list(row) for row in res.witness.entries]
    assert checks.check_solve(C5, 2, 2, entries, 3)  # wrong value
    bad = [row[:] for row in entries]
    bad[0][2] = 1  # 0 and 2 are not adjacent in C5
    assert any("non-arc" in x for x in checks.check_solve(C5, 2, 3, bad, 3))
    bad = [row[:] for row in entries]
    bad[1][1] = 0
    assert any("diagonal" in x for x in checks.check_solve(C5, 2, 3, bad, 3))
    ones = [[1] * 4 for _ in range(4)]
    assert checks.check_solve(complete_graph(4).adj, 2, 2, ones, 1)


# ---------------------------------------------------------------------------
# inputs

def test_inputs_follow_the_program_sampler_and_bounds():
    rng = random.Random(7)
    for n in (6, 7):
        for _ in range(20):
            sub_seed = rng.getrandbits(63)
            adj = draw_digraph(n, sub_seed)
            assert adj == sample_digraph(n, 0.5, sub_seed).adj
            bounds = minrank_bounds(sample_digraph(n, 0.5, sub_seed))
            assert search_range(adj) == (bounds.lower, bounds.upper)


def test_round_mix_and_determinism():
    for spec in SOLVE_SPECS.values():
        first = select_round(spec, 3)
        assert first == select_round(spec, 3)
        assert first != select_round(spec, 4)
        counts: dict = {}
        for sub_seed, value in first:
            adj = draw_digraph(spec.n, sub_seed)
            assert value == oracle_minrank(adj, spec.p)
            key = search_range(adj) + (value,)
            counts[key] = counts.get(key, 0) + 1
        assert counts == spec.mix


# ---------------------------------------------------------------------------
# extremal

def test_check_extremal():
    reference = checks.triangle_free_complement_classes(4)
    r = exhaustive_g(4, complete_graph(3), 2, dedup=True)
    args = (r.value, r.witness.adj, r.graphs_checked, r.accepted, r.evaluated)
    assert checks.check_extremal(*args, reference, 2) == []
    wrong_count = args[:3] + (r.accepted + 1, r.evaluated)
    assert checks.check_extremal(*wrong_count, reference, 2)
    wrong_value = (r.value + 1,) + args[1:]
    assert checks.check_extremal(*wrong_value, reference, 2)


# ---------------------------------------------------------------------------
# Kneser

def test_kneser_known_values():
    assert checks.kneser_rank_mod_p(10, 5, 2) == 120
    assert checks.kneser_edge_count(6, 3, 1) == 10  # a perfect matching
    assert checks.kneser_edge_count(5, 2, 1) == 15  # the Petersen graph
    assert checks.kneser_has_triangle(7, 2, 1)
    assert not checks.kneser_has_triangle(5, 2, 1)


def test_check_kneser_accepts_and_rejects():
    run_args = {"d": 10, "s": 5, "m": 2, "rank": True}
    good = {"vertex_count": 252, "edge_count": checks.kneser_edge_count(10, 5, 2),
            "rank_bound": 176, "checks": {"rank": {"value": 120}}}
    assert checks.check_kneser(run_args, good, 120) == []
    wrong_rank = dict(good, checks={"rank": {"value": 121}})
    assert checks.check_kneser(run_args, wrong_rank, 120)
    wrong_edges = dict(good, edge_count=good["edge_count"] + 1)
    assert checks.check_kneser(run_args, wrong_edges, 120)
    girth_args = {"d": 7, "s": 2, "m": 1, "odd_girth": 3}
    no_cycle = {"vertex_count": 21, "edge_count": checks.kneser_edge_count(7, 2, 1),
                "checks": {"odd_girth": {"cycle_found": None}}}
    assert checks.check_kneser(girth_args, no_cycle, None)


# ---------------------------------------------------------------------------
# census

def _census_by_brute_force(n, q):
    counts: dict = {}
    for cells in product(range(q), repeat=n * n):
        rows = [cells[i * n:(i + 1) * n] for i in range(n)]
        r = checks.rank_mod_p(rows, q)
        key = (r, r, r)  # weights are not recomputed here; r is in range
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_census_closed_form():
    assert [checks.rank_count(4, 2, r) for r in range(5)] == [1, 225, 7350, 37800, 20160]
    assert checks.check_census(2, 3, _census_by_brute_force(2, 3)) == []
    assert checks.check_census(2, 3, basis_weight_census(2, 3)) == []


def test_check_census_rejects():
    counts = _census_by_brute_force(2, 2)
    assert checks.check_census(2, 2, counts) == []
    wrong = dict(counts)
    wrong[(1, 1, 1)] += 1
    assert checks.check_census(2, 2, wrong)
    asymmetric = dict(counts)
    asymmetric[(1, 1, 1)] -= 1
    asymmetric[(1, 1, 2)] = 1
    assert checks.check_census(2, 2, asymmetric)
    heavy = dict(counts)
    heavy[(1, 3, 3)] = heavy.pop((1, 1, 1))
    assert checks.check_census(2, 2, heavy)


# ---------------------------------------------------------------------------
# tracer and the benchmark definition

def test_tracer_counts_calls_where_they_are_looked_up():
    import minranklab.matrices as matrices
    import minranklab.minrank as minrank

    original = minrank.gf2_rank
    tracer = Tracer()
    tracer.install()
    try:
        minrank.minrank_exact(cycle_graph(5), 2)
    finally:
        tracer.uninstall()
    assert minrank.gf2_rank is original and matrices.gf2_rank is original
    metrics = tracer.metrics()
    assert metrics["minrank.minrank_exact.calls"] == 1
    assert metrics["matrices.gf2_rank.calls"] > 0
    assert metrics["graphs.Graph.calls"] > 0
    assert all(metrics[k] >= 0 for k in metrics if k.endswith(".self_s"))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(run.PER_LAYER) + ["trace_overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == [
        "solve-gf2", "solve-gf3", "extremal", "kneser", "census"]
