"""Exhaustive desk-scale verification sweeps and the sampling experiment.

Each sweep enumerates matrices or graphs with no reduction that changes a
count, records every violation it finds, and reports reproducible parameters.

The two nonzero-diagonal sweeps list every matrix from one table per row
position, the vectors nonzero there. The sparsity sweep reads only the rank
of the rows; the submatrix sweep reads the profile of each principal block.
The census lists each multiset of rows once, weighted by its n!/prod(mult!)
row orders: permuting the rows permutes every column's coordinates alike, so
the profile (rank, min column and row basis weights) does not change. Within
one call the (rank, min basis weight) of each multiset of vectors, which
one greedy elimination pass gives, is memoized. Violation lists are
order-normalized.

The sparse-basis count and the principal-submatrix sweep check a range of
(k, ell) pairs or ranks k in one call, one report per pair: each expands its
own default range, refuses a parameter that leaves no matrix to check before
any matrix is listed, and lists the matrices once for the whole range.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, islice, product
from math import comb, factorial, prod
from typing import Optional

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
    empty_graph,
    is_tree,
    least_edge_mask,
    sample_digraph,
    underlying_graph,
)
from .matrices import is_prime, min_weight_basis, mod_rank
from .minrank import minrank_exact


@dataclass(frozen=True)
class VerificationReport:
    lemma: str
    params: dict
    instances_checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _normalize(violations: list) -> list:
    return sorted(violations, key=lambda v: json.dumps(v, sort_keys=True))


# ---------------------------------------------------------------------------
# the matrix-sweep path: row tables, profile memo

def _row_tables(n: int, p: int) -> list[list[tuple[int, ...]]]:
    """Per row position i, the vectors of GF(p)^n with v_i != 0, ordered by
    the code sum(v_j * p**j): the rows allowed in a nonzero-diagonal matrix."""
    vectors = [tuple((code // p**j) % p for j in range(n)) for code in range(p**n)]
    return [[v for v in vectors if v[i]] for i in range(n)]


def _profile(multiset: tuple, p: int, memo: dict) -> tuple[int, int]:
    """(rank, min basis weight) of a sorted tuple of vectors over GF(p),
    memoized on it."""
    found = memo.get(multiset)
    if found is None:
        found = memo[multiset] = min_weight_basis(multiset, p)
    return found


def _matrix_profile(rows: list, p: int, memo: dict) -> tuple[int, int, int]:
    """(rank, min column basis weight, min row basis weight) of a matrix. The
    row and the column pass are separate eliminations, and their ranks must
    agree."""
    k, row_weight = _profile(tuple(sorted(rows)), p, memo)
    column_rank, column_weight = _profile(tuple(sorted(zip(*rows))), p, memo)
    if column_rank != k:
        raise RuntimeError(
            f"row rank {k} differs from column rank {column_rank} for rows {rows}"
        )
    return k, column_weight, row_weight


def _nonzeros(rows: list) -> int:
    return sum(1 for row in rows for x in row if x)


def _nonzero_diagonal_total(n_max: int, p: int, enumeration_budget: int) -> int:
    """The number of nonzero-diagonal n x n matrices for n = 1..n_max, after
    refusing a sweep that checks nothing or whose size at some n is over
    budget, before any matrix is listed."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if n_max < 1:
        raise ValueError(f"n_max {n_max} leaves no matrix to check")
    total = 0
    for n in range(1, n_max + 1):
        size = (p - 1) ** n * p ** (n * n - n)
        check_budget(size, enumeration_budget, f"matrix sweep at n={n}, p={p}")
        total += size
    return total


# ---------------------------------------------------------------------------
# sweep: sparsity lower bound for nonzero-diagonal matrices

def verify_sparsity_lower_bound(
    n_max: int,
    p: int,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerificationReport:
    """Every nonzero-diagonal matrix satisfies sparsity >= n^2 / (4 rank)."""
    checked = _nonzero_diagonal_total(n_max, p, enumeration_budget)
    violations = []
    for n in range(1, n_max + 1):
        for rows in product(*_row_tables(n, p)):
            k = mod_rank(rows, p)
            s = _nonzeros(rows)
            if 4 * k * s < n * n:
                violations.append(
                    {"n": n, "matrix": [list(r) for r in rows], "rank": k, "sparsity": s}
                )
    return VerificationReport(
        lemma="sparsity-lower-bound",
        params={"n_max": n_max, "p": p},
        instances_checked=checked,
        violations=_normalize(violations),
    )


# ---------------------------------------------------------------------------
# sweep: counting matrices with sparse column and row bases

def basis_weight_census(
    n: int,
    p: int,
    jobs: int = 1,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> dict[tuple[int, int, int], int]:
    """Counts of all n x n matrices by (rank, min column/row basis weights).

    Each multiset of n rows is listed once and counted once per order of its
    rows, n!/prod(mult!) times; the budget bounds the C(p^n + n - 1, n)
    multisets. A matrix whose row and column ranks disagree raises
    RuntimeError.

    The census runs in one process; `jobs` stays only so that `jobs=1`
    calls keep working, and any other value is refused.
    """
    if jobs != 1:
        raise ValueError(f"the census runs in one process, so jobs must be 1, not {jobs}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if n < 0:
        raise ValueError(f"matrix size {n} is negative")
    check_budget(comb(p**n + n - 1, n), enumeration_budget, f"matrix census at n={n}, p={p}")
    memo: dict = {}
    counts: dict[tuple[int, int, int], int] = {}
    for rows in combinations_with_replacement(product(range(p), repeat=n), n):
        orders = factorial(n) // prod(factorial(len(list(run))) for _, run in groupby(rows))
        key = _matrix_profile(rows, p, memo)
        counts[key] = counts.get(key, 0) + orders
    return counts


def _count_pairs(n: int, k: Optional[int], ell: Optional[int]):
    """The (k, ell) pairs of the sparse-basis count, k outermost: k in 0..n
    and ell in 1..n*max(k, 1), unless fixed."""
    for rank in [k] if k is not None else range(n + 1):
        for weight in [ell] if ell is not None else range(1, n * max(rank, 1) + 1):
            yield rank, weight


def verify_sparse_basis_count(
    n: int,
    p: int,
    k: Optional[int] = None,
    ell: Optional[int] = None,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[VerificationReport]:
    """Exact count of rank-k n x n matrices with ell-sparse column and row
    bases is within its bound, one report per (k, ell) pair of the range.

    A rank k outside 0..n or a sparsity ell below 1 is refused before the
    census, which is the costly part. Every pair shares a fixed k or ell and
    the expanded values are in range, so the first pair decides.
    """
    for rank, weight in islice(_count_pairs(n, k, ell), 1):
        if not 0 <= rank <= n:
            raise ValueError(f"rank k={rank} leaves no matrix to check")
        if weight < 1:
            raise ValueError(f"sparsity ell={weight} leaves no matrix to check")
    census = basis_weight_census(n, p, enumeration_budget=enumeration_budget)
    if n == 0:  # a negative size was refused by the census
        raise ValueError(f"matrix size {n} leaves no matrix to check")
    checked = sum(census.values())
    reports = []
    for rank, weight in _count_pairs(n, k, ell):
        count = sum(
            value
            for (r, wc, wr), value in census.items()
            if r == rank and wc <= weight and wr <= weight
        )
        bound = (n * p) ** (6 * weight)
        violations = []
        if count > bound:
            violations.append(
                {"n": n, "k": rank, "ell": weight, "count": count, "bound": bound}
            )
        reports.append(
            VerificationReport(
                lemma="sparse-basis-count",
                params={"n": n, "k": rank, "ell": weight, "p": p},
                instances_checked=checked,
                violations=violations,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# sweep: principal-submatrix decomposition

def _subsets(n: int) -> list[tuple[int, ...]]:
    """The nonempty subsets of range(n), smallest first."""
    return [t for size in range(1, n + 1) for t in combinations(range(n), size)]


def verify_principal_submatrix_decomposition(
    n_max: int,
    p: int,
    k: Optional[int] = None,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[VerificationReport]:
    """Every rank<=k nonzero-diagonal matrix of size at most n_max has a
    qualifying principal block, one report per k in 1..n_max unless fixed."""
    if k is not None and k < 1:
        raise ValueError(f"rank bound k={k} leaves no matrix to check")
    checked = _nonzero_diagonal_total(n_max, p, enumeration_budget)
    ks = [k] if k is not None else range(1, n_max + 1)
    memo: dict = {}
    violations: dict[int, list] = {rank_bound: [] for rank_bound in ks}
    for n in range(1, n_max + 1):
        subsets = _subsets(n)
        for rows in product(*_row_tables(n, p)):
            rank = _profile(tuple(sorted(rows)), p, memo)[0]
            for rank_bound in ks:
                if rank > rank_bound:
                    continue
                for t in subsets:
                    block = [tuple(rows[i][j] for j in t) for i in t]
                    k_prime, column_weight, row_weight = _matrix_profile(block, p, memo)
                    n_prime = len(t)
                    if k_prime * n > rank_bound * n_prime:
                        continue
                    # ell = 2 s' k' / n' as a rational threshold: compare cleared of n'
                    bound = 2 * _nonzeros(block) * k_prime
                    if column_weight * n_prime <= bound and row_weight * n_prime <= bound:
                        break
                else:
                    violations[rank_bound].append(
                        {"n": n, "k": rank_bound, "matrix": [list(r) for r in rows]}
                    )
    return [
        VerificationReport(
            lemma="principal-submatrix-decomposition",
            params={"n_max": n_max, "k": rank_bound, "p": p},
            instances_checked=checked,
            violations=_normalize(found),
        )
        for rank_bound, found in violations.items()
    ]


# ---------------------------------------------------------------------------
# exhaustive extremal value and the forest bound

@dataclass(frozen=True)
class ExhaustiveExtremal:
    value: int
    witness: Graph
    graphs_checked: int
    accepted: int
    evaluated: int


def exhaustive_g(
    n: int,
    h_graph: Graph,
    p: int,
    dedup: bool = True,
    graph_budget: int = DEFAULT_ENUMERATION_BUDGET,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
) -> ExhaustiveExtremal:
    """Maximum exact minrank over all n-vertex graphs with H-free complement.

    The sweep grows the complements one vertex at a time, one isomorphism
    class at a time. Deleting a vertex keeps a complement H-free, so every
    H-free complement on v + 1 vertices is one on v vertices plus a vertex v
    joined to some S of 0..v-1. Starting from the empty graph, each class
    representative is extended by every S; `contains_subgraph` drops the
    extensions that contain H, and `canonical_key` sorts the rest into
    classes. For a fixed class the number of S giving a child of a given
    class is the same under every labeling of the parent, so the child's
    labeled count is the sum of its parents' counts times those numbers.
    Complementing preserves isomorphism and minrank is isomorphism-invariant,
    so the solver runs once per class, on the complement of its
    representative. The witness is the accepted graph of smallest edge mask
    attaining the maximum, the least `least_edge_mask` of the maximizing
    classes. `graph_budget` bounds the containment tests, one per class and
    S. Before each level grows, the budget is checked against a lower bound
    on the whole sweep's tests, so a hopeless sweep is refused before it
    grows further and before any solve. When H has no isolated vertex no
    later level has fewer classes, so the bound counts this level's classes
    at every level still to grow; otherwise it is the tests so far. At the
    last level both are the sweep's exact count.
    `graphs_checked` is the 2^C(n,2) labeled graphs, `accepted` counts
    labeled graphs, `evaluated` classes.

    `dedup` stays only so that `dedup=True` calls keep working; `dedup=False`
    asked for the removed solve-every-graph path and is refused.
    """
    if not is_prime(p):
        raise ValueError(f"field size {p} is not prime")
    if not dedup:
        raise ValueError("exhaustive_g always deduplicates by isomorphism class")
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if h_graph.n == 0:
        raise ValueError("pattern graph needs at least one vertex")
    start = empty_graph(0)
    # canonical key -> [complement representative, labeled count]
    classes: dict[tuple, list] = {canonical_key(start): [start, 1]}
    # with no isolated vertex in H, adding one to an H-free complement keeps
    # it H-free, and maps the classes at each level injectively into the
    # next, so no later level has fewer classes than this one
    isolated = 0 in h_graph.adj
    tests = 0
    for v in range(n):
        tests += len(classes) << v
        bound = tests if isolated else tests + (len(classes) << n) - (len(classes) << v + 1)
        check_budget(
            bound,
            graph_budget,
            f"graph sweep at n={n} growing to {v + 1} vertices,"
            " at least the estimated work in containment tests,",
        )
        grown: dict[tuple, list] = {}
        for comp, count in classes.values():
            for s in range(1 << v):
                rows = tuple(row | (s >> u & 1) << v for u, row in enumerate(comp.adj))
                child = Graph(v + 1, rows + (s,))
                if contains_subgraph(child, h_graph):
                    continue
                grown.setdefault(canonical_key(child), [child, 0])[1] += count
        classes = grown
    if not classes:
        raise ValueError("no graph on n vertices has an H-free complement")
    graphs = [complement(comp) for comp, _ in classes.values()]
    values = [minrank_exact(g, p, work_budget).value for g in graphs]
    best_value = max(values)
    least = min(least_edge_mask(g) for g, value in zip(graphs, values) if value == best_value)
    return ExhaustiveExtremal(
        value=best_value,
        witness=Graph.from_edge_mask(n, least),
        graphs_checked=1 << (n * (n - 1) // 2),
        accepted=sum(count for _, count in classes.values()),
        evaluated=len(classes),
    )


def multipartite_witness(n: int, h: int) -> Graph:
    """Complete multipartite graph with parts of size h-1 (one possibly smaller)."""
    if h < 2:
        raise ValueError("the multipartite witness needs a pattern with at least 2 vertices")
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
    expected = h - 1
    witness = multipartite_witness(n, h)  # refuses a one-vertex tree before the sweep
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


def estimate_g(
    n: int,
    h_graph: Graph,
    p: int,
    samples: int,
    edge_prob: float = 0.5,
    seed: int = 0,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
) -> SamplingEstimate:
    """Empirical lower bound on the extremal minrank by bidirected sampling.

    Each sample draws a random digraph (arc probability edge_prob), keeps the
    bidirected underlying graph, rejects it unless its complement avoids the
    pattern, and solves the survivors exactly. Deterministic per seed: sample
    i uses the i-th getrandbits(63) of Random(seed) as its seed, and the
    witness is the first sample attaining the maximum.
    """
    if not is_prime(p):
        raise ValueError(f"field size {p} is not prime")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    accepted = 0
    best: Optional[int] = None
    witness: Optional[Graph] = None
    for _ in range(samples):
        g = underlying_graph(sample_digraph(n, edge_prob, rng.getrandbits(63)))
        if contains_subgraph(complement(g), h_graph):
            continue
        accepted += 1
        value = minrank_exact(g, p, work_budget).value
        if best is None or value > best:
            best, witness = value, g
    return SamplingEstimate(
        n=n,
        p=p,
        samples=samples,
        accepted=accepted,
        acceptance_rate=accepted / samples,
        best=best,
        witness=witness,
        edge_prob=edge_prob,
        seed=seed,
    )


def regime_edge_prob(gamma: Fraction, c2: Fraction, n: int) -> float:
    """Arc probability whose rejection rate q = c2 * n^-gamma matches the
    analyzed sampling regime (as opposed to the plain 0.5 default)."""
    q = float(c2) * n ** (-float(gamma))
    return min(1.0, max(0.0, 1.0 - q))
