"""Independent checks of the program's outputs.

Nothing here imports minranklab: every expected value is recomputed from its
definition, from a closed form, or with networkx. Each check returns a list
of problems; an empty list means the output is accepted. networkx is
imported where it is used, after the run has read its peak memory, so that
its footprint does not count in the workload's `peak_rss_mb`.
"""

from __future__ import annotations

import math
from itertools import combinations

from oracle import max_acyclic_induced, oracle_minrank

LARGE_PRIME = (1 << 61) - 1


def rank_mod_p(rows, p: int) -> int:
    """Rank over GF(p) by plain Gauss-Jordan elimination."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        prow = [x * inv % p for x in work[rank]]
        work[rank] = prow
        for i in range(len(work)):
            f = work[i][c]
            if i != rank and f:
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# solves

def check_solve(adj, p: int, value: int, entries, oracle_value: int) -> list[str]:
    """A reported minrank and its witness matrix against a digraph's arcs."""
    n = len(adj)
    problems = []
    if len(entries) != n or any(len(row) != n for row in entries):
        return [f"witness is not {n}x{n}"]
    for i, row in enumerate(entries):
        if row[i] % p == 0:
            problems.append(f"zero diagonal entry at {i}")
        for j, x in enumerate(row):
            if j != i and x % p and not adj[i] >> j & 1:
                problems.append(f"nonzero entry at non-arc ({i},{j})")
    rank = rank_mod_p(entries, p)
    if rank != value:
        problems.append(f"witness rank {rank} != reported value {value}")
    acyclic = max_acyclic_induced(adj)
    if value < acyclic:
        problems.append(f"value {value} below induced acyclic subgraph {acyclic}")
    if value != oracle_value:
        problems.append(f"value {value} != oracle minrank {oracle_value}")
    return problems


# ---------------------------------------------------------------------------
# extremal sweep

def triangle_free_complement_classes(n: int):
    """(accepted masks, isomorphism class representatives) over all n-vertex
    graphs whose complement has no triangle, recomputed with networkx."""
    import networkx as nx

    pairs = list(combinations(range(n), 2))
    accepted = []
    for mask in range(1 << len(pairs)):
        comp = nx.Graph()
        comp.add_nodes_from(range(n))
        comp.add_edges_from(pr for i, pr in enumerate(pairs) if not mask >> i & 1)
        if not any(nx.triangles(comp).values()):
            accepted.append(mask)
    buckets: dict[tuple, list] = {}
    for mask in accepted:
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pr for i, pr in enumerate(pairs) if mask >> i & 1)
        key = (tuple(sorted(d for _, d in g.degree())), sum(nx.triangles(g).values()))
        reps = buckets.setdefault(key, [])
        if not any(nx.is_isomorphic(g, rep) for rep in reps):
            reps.append(g)
    return accepted, [rep for reps in buckets.values() for rep in reps]


def check_extremal(result_value: int, witness_adj, graphs_checked: int,
                   accepted: int, evaluated: int, reference, p: int) -> list[str]:
    """An exhaustive_g(n, K3, p) result against the networkx recount; the
    value must be the largest oracle minrank over the class representatives."""
    import networkx as nx

    ref_accepted, reps = reference
    n = len(witness_adj)
    problems = []
    if graphs_checked != 1 << (n * (n - 1) // 2):
        problems.append(f"graphs_checked {graphs_checked}")
    if accepted != len(ref_accepted):
        problems.append(f"accepted {accepted} != networkx count {len(ref_accepted)}")
    if evaluated != len(reps):
        problems.append(f"evaluated {evaluated} != networkx classes {len(reps)}")
    witness = nx.Graph()
    witness.add_nodes_from(range(n))
    witness.add_edges_from((u, v) for u in range(n) for v in range(n) if witness_adj[u] >> v & 1)
    if any(nx.triangles(nx.complement(witness)).values()):
        problems.append("witness complement has a triangle")
    if oracle_minrank(witness_adj, p) != result_value:
        problems.append("witness minrank differs from the reported value")
    best = max(oracle_minrank(_adj(rep, n), p) for rep in reps)
    if best != result_value:
        problems.append(f"value {result_value} != oracle maximum {best}")
    return problems


def _adj(g, n: int) -> tuple[int, ...]:
    return tuple(sum(1 << v for v in g.neighbors(u)) for u in range(n))


# ---------------------------------------------------------------------------
# Kneser build

def kneser_edge_count(d: int, s: int, m: int) -> int:
    """Edges of K(d,s,m): each vertex meets C(s,i)C(d-s,s-i) sets in i points."""
    return math.comb(d, s) * sum(
        math.comb(s, i) * math.comb(d - s, s - i) for i in range(m)
    ) // 2


def kneser_rank_mod_p(d: int, s: int, m: int, p: int = LARGE_PRIME) -> int:
    """Rank mod p of [P(|A & B|)] with P(t) = prod_{j=m}^{s-1} (t - j)."""
    sets = [frozenset(c) for c in combinations(range(d), s)]
    poly = [math.prod(t - j for j in range(m, s)) for t in range(s + 1)]
    return rank_mod_p([[poly[len(a & b)] for b in sets] for a in sets], p)


def kneser_has_triangle(d: int, s: int, m: int) -> bool:
    sets = [frozenset(c) for c in combinations(range(d), s)]
    nbr = [
        sum(1 << j for j, b in enumerate(sets) if len(a & b) < m) for a in sets
    ]
    return any(
        nbr[a] & nbr[b]
        for a, b in combinations(range(len(sets)), 2)
        if nbr[a] >> b & 1
    )


def check_kneser(args: dict, result: dict, expected_rank) -> list[str]:
    """One `kneser build` result; expected_rank is None when not checked."""
    d, s, m = args["d"], args["s"], args["m"]
    problems = []
    if result["vertex_count"] != math.comb(d, s):
        problems.append(f"vertex_count {result['vertex_count']}")
    if result["edge_count"] != kneser_edge_count(d, s, m):
        problems.append(f"edge_count {result['edge_count']}")
    checks = result["checks"]
    if expected_rank is not None:
        rank = checks["rank"]["value"]
        if rank != expected_rank:
            problems.append(f"rank {rank} != rank mod p {expected_rank}")
        if rank > result["rank_bound"]:
            problems.append(f"rank {rank} above rank_bound {result['rank_bound']}")
    if "odd_girth" in args:  # the recount below finds triangles only
        if args["odd_girth"] != 3:
            raise ValueError("only --check-odd-girth 3 is recounted")
        found = checks["odd_girth"]["cycle_found"]
        if found != (3 if kneser_has_triangle(d, s, m) else None):
            problems.append(f"odd girth check found {found}")
    return problems


# ---------------------------------------------------------------------------
# matrix census

def rank_count(n: int, q: int, r: int) -> int:
    """Number of n x n matrices over GF(q) of rank r."""
    num = math.prod((q**n - q**i) ** 2 for i in range(r))
    den = math.prod(q**r - q**i for i in range(r))
    return num // den


def check_census(n: int, q: int, counts: dict) -> list[str]:
    problems = []
    for r in range(n + 1):
        got = sum(v for (rank, _, _), v in counts.items() if rank == r)
        if got != rank_count(n, q, r):
            problems.append(f"rank {r}: {got} matrices, closed form {rank_count(n, q, r)}")
    for (r, wc, wr), v in counts.items():
        if counts.get((r, wr, wc)) != v:
            problems.append(f"count of {(r, wc, wr)} not symmetric")
        if not (r <= wc <= n * r and r <= wr <= n * r):
            problems.append(f"weights {(wc, wr)} outside [{r}, {n * r}]")
    return problems
