"""Exhaustive desk-scale verification sweeps and the sampling experiment.

Each sweep enumerates raw matrices or graphs (no symmetry reduction inside
the counted enumerations, so counts stay exact), records every violation it
finds, and reports reproducible parameters. The matrix census still visits
and counts matrix by matrix; within one call it memoizes only the (rank,
min basis weight) of each multiset of row or column vectors, which does not
depend on the order of the vectors. Sweeps partition their index
space across workers; violation lists are order-normalized so the output is
schedule-independent.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .budgets import (
    DEFAULT_ENUMERATION_BUDGET,
    DEFAULT_SOLVER_BUDGET,
    check_budget,
)
from .graphs import (
    Graph,
    canonical_key,
    complement,
    complete_multipartite,
    contains_subgraph,
    is_tree,
    sample_digraph,
    underlying_graph,
)
from .matrices import (
    FieldMatrix,
    _column_vectors,
    _min_basis_weight,
    is_prime,
    mod_rank,
    sparsity,
)
from .minrank import minrank_exact
from .parallel import map_chunks, split_range


@dataclass(frozen=True)
class VerificationReport:
    lemma: str
    params: dict
    instances_checked: int
    violations: list
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _normalize(violations: list) -> list:
    return sorted(violations, key=lambda v: json.dumps(v, sort_keys=True))


def _nonzero_diagonal_rows(n: int, p: int, index: int) -> list[list[int]]:
    """Decode an enumeration index into the rows of a nonzero-diagonal matrix.

    The diagonal digits run over 1..p-1 and the off-diagonal digits over
    0..p-1.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                index, digit = divmod(index, p - 1)
                rows[i][j] = digit + 1
            else:
                index, digit = divmod(index, p)
                rows[i][j] = digit
    return rows


def _domain_size(n: int, p: int, unit_diagonal_domain: bool) -> int:
    if unit_diagonal_domain:
        return (p - 1) ** n * p ** (n * n - n)
    return p ** (n * n)


# ---------------------------------------------------------------------------
# sweep: sparsity lower bound for nonzero-diagonal matrices

def _sparsity_worker(args) -> list:
    n, p, start, stop = args
    violations = []
    for idx in range(start, stop):
        rows = _nonzero_diagonal_rows(n, p, idx)
        m = FieldMatrix.from_rows(p, rows)
        k = m.rank()
        s = sparsity(m)
        if 4 * k * s < n * n:
            violations.append(
                {"n": n, "matrix": rows, "rank": k, "sparsity": s}
            )
    return violations


def verify_sparsity_lower_bound(
    n_max: int,
    p: int,
    jobs: int = 1,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Every nonzero-diagonal matrix satisfies sparsity >= n^2 / (4 rank)."""
    started = time.perf_counter()
    checked = 0
    violations: list = []
    for n in range(1, n_max + 1):
        total = _domain_size(n, p, True)
        check_budget(total, enumeration_budget, f"matrix sweep at n={n}, p={p}")
        spans = split_range(total, jobs)
        for found in map_chunks(
            _sparsity_worker, [(n, p, a, b) for a, b in spans], jobs
        ):
            violations.extend(found)
        checked += total
    return VerificationReport(
        lemma="sparsity-lower-bound",
        params={"n_max": n_max, "p": p},
        instances_checked=checked,
        violations=_normalize(violations),
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# sweep: counting matrices with sparse column and row bases

def _census_worker(args) -> dict:
    """Census counts of the matrices with index in [start, stop).

    Rows and columns share one memo of (rank, min basis weight) keyed on the
    sorted tuple of vectors.
    """
    n, p, start, stop = args
    size = p**n
    digits = [
        tuple((code // p**j) % p for j in range(n)) for code in range(size)
    ]
    profiles: dict[tuple, tuple[int, int]] = {}
    counts: dict[tuple[int, int, int], int] = {}
    for index in range(start, stop):
        rows = []
        rest = index
        for _ in range(n):
            rest, code = divmod(rest, size)
            rows.append(digits[code])
        profile = []
        for vectors in (rows, zip(*rows)):
            multiset = tuple(sorted(vectors))
            found = profiles.get(multiset)
            if found is None:
                rank = mod_rank(multiset, p)
                found = (rank, _min_basis_weight(multiset, rank, p))
                profiles[multiset] = found
            profile.append(found)
        (k, row_weight), (column_rank, column_weight) = profile
        if column_rank != k:
            raise RuntimeError(
                f"row rank {k} differs from column rank {column_rank} for rows {rows}"
            )
        key = (k, column_weight, row_weight)
        counts[key] = counts.get(key, 0) + 1
    return counts


def basis_weight_census(
    n: int,
    p: int,
    jobs: int = 1,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> dict[tuple[int, int, int], int]:
    """Counts of all n x n matrices by (rank, min column/row basis weights).

    The enumeration is raw: every matrix is visited and counted on its own.
    Only the (rank, min basis weight) of each multiset of row or column
    vectors is memoized, within one call.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    total = _domain_size(n, p, False)
    check_budget(total, enumeration_budget, f"matrix census at n={n}, p={p}")
    spans = split_range(total, jobs)
    counts: dict[tuple[int, int, int], int] = {}
    for partial in map_chunks(_census_worker, [(n, p, a, b) for a, b in spans], jobs):
        for key, value in partial.items():
            counts[key] = counts.get(key, 0) + value
    return counts


def verify_sparse_basis_count(
    n: int,
    k: int,
    ell: int,
    p: int,
    jobs: int = 1,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
    census: Optional[dict] = None,
) -> VerificationReport:
    """Exact count of rank-k matrices with ell-sparse bases is within its bound."""
    started = time.perf_counter()
    if census is None:
        census = basis_weight_census(n, p, jobs, enumeration_budget)
    count = sum(
        value
        for (rank, wc, wr), value in census.items()
        if rank == k and wc <= ell and wr <= ell
    )
    bound = (n * p) ** (6 * ell)
    violations = []
    if count > bound:
        violations.append(
            {"n": n, "k": k, "ell": ell, "count": count, "bound": bound}
        )
    return VerificationReport(
        lemma="sparse-basis-count",
        params={"n": n, "k": k, "ell": ell, "p": p},
        instances_checked=_domain_size(n, p, False),
        violations=_normalize(violations),
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# sweep: principal-submatrix decomposition

def _subsets(n: int) -> list[tuple[int, ...]]:
    out = []
    for mask in range(1, 1 << n):
        out.append(tuple(i for i in range(n) if (mask >> i) & 1))
    out.sort(key=len)
    return out


def _submatrix_worker(args) -> list:
    n, p, k, start, stop = args
    subsets = _subsets(n)
    violations = []
    for idx in range(start, stop):
        rows = _nonzero_diagonal_rows(n, p, idx)
        m = FieldMatrix.from_rows(p, rows)
        if m.rank() > k:
            continue
        found = False
        for t in subsets:
            sub = FieldMatrix.from_rows(p, [[rows[i][j] for j in t] for i in t])
            n_prime = len(t)
            k_prime = sub.rank()
            if k_prime * n > k * n_prime:
                continue
            s_prime = sparsity(sub)
            # ell = 2 s' k' / n' as a rational threshold: compare cleared of n'
            bound = 2 * s_prime * k_prime
            if (
                _min_basis_weight(_column_vectors(sub), k_prime, p) * n_prime <= bound
                and _min_basis_weight(sub.entries, k_prime, p) * n_prime <= bound
            ):
                found = True
                break
        if not found:
            violations.append({"n": n, "k": k, "matrix": rows})
    return violations


def verify_principal_submatrix_decomposition(
    n_max: int,
    k: int,
    p: int,
    jobs: int = 1,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Every rank<=k nonzero-diagonal matrix has a qualifying principal block."""
    started = time.perf_counter()
    checked = 0
    violations: list = []
    for n in range(1, n_max + 1):
        total = _domain_size(n, p, True)
        check_budget(total, enumeration_budget, f"matrix sweep at n={n}, p={p}")
        spans = split_range(total, jobs)
        for found in map_chunks(
            _submatrix_worker, [(n, p, k, a, b) for a, b in spans], jobs
        ):
            violations.extend(found)
        checked += total
    return VerificationReport(
        lemma="principal-submatrix-decomposition",
        params={"n_max": n_max, "k": k, "p": p},
        instances_checked=checked,
        violations=_normalize(violations),
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# exhaustive extremal value and the forest bound

@dataclass(frozen=True)
class ExhaustiveExtremal:
    value: int
    witness: Graph
    graphs_checked: int
    accepted: int
    evaluated: int


def _dedup_by_isomorphism(graphs: Sequence[Graph]) -> list[Graph]:
    """The first graph of each isomorphism class, in input order."""
    reps: dict[tuple, Graph] = {}
    for g in graphs:
        reps.setdefault(canonical_key(g), g)
    return list(reps.values())


def exhaustive_g(
    n: int,
    h_graph: Graph,
    p: int,
    dedup: Optional[bool] = None,
    graph_budget: int = DEFAULT_ENUMERATION_BUDGET,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
) -> ExhaustiveExtremal:
    """Maximum exact minrank over all n-vertex graphs with H-free complement.

    Graphs are enumerated raw at n <= 5; from n = 6 on, the accepted graphs
    are deduplicated up to isomorphism before the solver runs, since minrank
    is isomorphism-invariant: one dict insert per graph keyed by
    `canonical_key`, keeping each class's first graph in edge-mask order.
    Either way the witness is the accepted graph of smallest edge mask among
    those attaining the maximum.
    """
    total = 1 << (n * (n - 1) // 2)
    check_budget(total, graph_budget, f"graph sweep at n={n}")
    if dedup is None:
        dedup = n >= 6
    accepted_graphs = []
    for mask in range(total):
        g = Graph.from_edge_mask(n, mask)
        if contains_subgraph(complement(g), h_graph):
            continue
        accepted_graphs.append(g)
    if not accepted_graphs:
        raise ValueError("no graph on n vertices has an H-free complement")
    pool = _dedup_by_isomorphism(accepted_graphs) if dedup else accepted_graphs
    best_value = -1
    best_graph = pool[0]
    for g in pool:
        value = minrank_exact(g, p, work_budget).value
        if value > best_value:
            best_value = value
            best_graph = g
    return ExhaustiveExtremal(
        value=best_value,
        witness=best_graph,
        graphs_checked=total,
        accepted=len(accepted_graphs),
        evaluated=len(pool),
    )


def multipartite_witness(n: int, h: int) -> Graph:
    """Complete multipartite graph with parts of size h-1 (one possibly smaller)."""
    if n < h - 1:
        raise ValueError("need n >= h-1 for the multipartite witness")
    parts = [h - 1] * (n // (h - 1))
    if n % (h - 1):
        parts.append(n % (h - 1))
    return complete_multipartite(parts)


def verify_forest_bound(
    n: int,
    h_tree: Graph,
    p: int,
    graph_budget: int = DEFAULT_ENUMERATION_BUDGET,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
) -> VerificationReport:
    """For a tree pattern: the extremal value is exactly h-1 at every n >= h-1,
    and the complete multipartite witness attains it."""
    if not is_tree(h_tree):
        raise ValueError("the pattern graph must be a tree")
    h = h_tree.n
    if n < h - 1:
        raise ValueError("need n >= h-1")
    started = time.perf_counter()
    expected = h - 1
    sweep = exhaustive_g(n, h_tree, p, graph_budget=graph_budget, work_budget=work_budget)
    violations = []
    if sweep.value != expected:
        violations.append(
            {
                "kind": "extremal-value",
                "n": n,
                "expected": expected,
                "actual": sweep.value,
                "witness_edges": sweep.witness.edges(),
            }
        )
    witness = multipartite_witness(n, h)
    if contains_subgraph(complement(witness), h_tree):
        violations.append({"kind": "witness-not-admissible", "n": n})
    witness_value = minrank_exact(witness, p, work_budget).value
    if witness_value != expected:
        violations.append(
            {
                "kind": "witness-value",
                "n": n,
                "expected": expected,
                "actual": witness_value,
            }
        )
    return VerificationReport(
        lemma="forest-bound",
        params={"n": n, "h": h, "p": p},
        instances_checked=sweep.graphs_checked,
        violations=_normalize(violations),
        wall_time_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# sampling experiment

@dataclass(frozen=True)
class SamplingEstimate:
    n: int
    p: int
    samples: int
    accepted: int
    acceptance_rate: float
    best: Optional[int]
    witness: Optional[Graph]
    edge_prob: float
    seed: int


def _estimate_worker(args):
    n, p, h_graph, edge_prob, seeds, start, stop, work_budget = args
    best: Optional[tuple[int, int, Graph]] = None
    accepted = 0
    for idx in range(start, stop):
        digraph = sample_digraph(n, edge_prob, seeds[idx])
        g = underlying_graph(digraph)
        if contains_subgraph(complement(g), h_graph):
            continue
        accepted += 1
        value = minrank_exact(g, p, work_budget).value
        if best is None or value > best[0]:
            best = (value, idx, g)
    return best, accepted


def estimate_g(
    n: int,
    h_graph: Graph,
    p: int,
    samples: int,
    edge_prob: float = 0.5,
    seed: int = 0,
    jobs: int = 1,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
) -> SamplingEstimate:
    """Empirical lower bound on the extremal minrank by bidirected sampling.

    Each sample draws a random digraph (arc probability edge_prob), keeps the
    bidirected underlying graph, rejects it unless its complement avoids the
    pattern, and solves the survivors exactly. Deterministic per seed: sample
    i uses the i-th derived seed regardless of worker partitioning.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    seeds = [rng.getrandbits(63) for _ in range(samples)]
    spans = split_range(samples, jobs)
    results = map_chunks(
        _estimate_worker,
        [(n, p, h_graph, edge_prob, seeds, a, b, work_budget) for a, b in spans],
        jobs,
    )
    accepted = sum(acc for _, acc in results)
    best: Optional[tuple[int, int, Graph]] = None
    for candidate, _ in results:
        if candidate is None:
            continue
        if (
            best is None
            or candidate[0] > best[0]
            or (candidate[0] == best[0] and candidate[1] < best[1])
        ):
            best = candidate
    return SamplingEstimate(
        n=n,
        p=p,
        samples=samples,
        accepted=accepted,
        acceptance_rate=accepted / samples,
        best=None if best is None else best[0],
        witness=None if best is None else best[2],
        edge_prob=edge_prob,
        seed=seed,
    )


def regime_edge_prob(gamma: Fraction, c2: Fraction, n: int) -> float:
    """Arc probability whose rejection rate q = c2 * n^-gamma matches the
    analyzed sampling regime (as opposed to the plain 0.5 default)."""
    q = float(c2) * n ** (-float(gamma))
    return min(1.0, max(0.0, 1.0 - q))
