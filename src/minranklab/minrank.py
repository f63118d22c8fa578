"""Representation checking and exact minrank over prime fields.

The exact solver does iterative deepening on the target rank k: for each k it
enumerates all k-dimensional row spaces over GF(p) through their canonical
reduced-echelon bases. A row space W is feasible for vertex i when it has a
vector supported inside i's allowed columns with a nonzero i-th coordinate,
which reduces to one column-span membership test (two small ranks) per
vertex. The first feasible space in canonical order supplies the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence, Union

from .budgets import DEFAULT_SOLVER_BUDGET, check_budget, gaussian_binomial
from .graphs import (
    Digraph,
    Graph,
    chromatic_number,
    complement,
    degeneracy,
    greedy_independent_set,
    independence_number,
    optimal_coloring,
    underlying_graph,
    union_graph,
)
from .matrices import FieldMatrix, Matrix, gf2_rank, is_prime, mod_nullspace, mod_rank
from .parallel import map_chunks, split_list

GraphLike = Union[Graph, Digraph]


def _allowed_masks(g: GraphLike) -> tuple[int, ...]:
    """Per vertex: bitmask of columns where its matrix row may be nonzero."""
    return tuple(row | (1 << i) for i, row in enumerate(g.adj))


def represents(m: Matrix, g: GraphLike) -> bool:
    """True iff m has a nonzero diagonal and zeros at every non-arc position."""
    if m.rows != m.cols:
        raise ValueError("representing matrices must be square")
    if m.rows != g.n:
        raise ValueError(f"matrix is {m.rows}x{m.cols} but the graph has {g.n} vertices")
    allowed = _allowed_masks(g)
    for i, row in enumerate(m.entries):
        if not row[i]:
            return False
        for j, x in enumerate(row):
            if x and not (allowed[i] >> j) & 1:
                return False
    return True


@dataclass(frozen=True)
class Bounds:
    lower: int
    upper: int
    lower_exact: bool
    upper_exact: bool


def minrank_bounds(g: GraphLike, alpha_limit: int = 40, chi_limit: int = 18) -> Bounds:
    """Independence-number lower bound and clique-cover upper bound.

    Both bounds hold over every field. Past the exact-computation limits the
    lower bound falls back to a greedy independent set and the upper bound to
    degeneracy+1 of the complement, flagged as inexact.
    """
    if isinstance(g, Digraph):
        lower_graph = union_graph(g)
        cover_graph = complement(underlying_graph(g))
    else:
        lower_graph = g
        cover_graph = complement(g)
    if g.n <= alpha_limit:
        lower, lower_exact = independence_number(lower_graph), True
    else:
        lower, lower_exact = len(greedy_independent_set(lower_graph)), False
    if g.n <= chi_limit:
        upper, upper_exact = chromatic_number(cover_graph), True
    else:
        upper, upper_exact = degeneracy(cover_graph)[0] + 1, False
    return Bounds(lower, upper, lower_exact, upper_exact)


@dataclass(frozen=True)
class MinrankResult:
    value: int
    witness: FieldMatrix
    lower: int
    upper: int


# ---------------------------------------------------------------------------
# canonical reduced-echelon enumeration

def _free_cells(n: int, pivots: Sequence[int]) -> list[tuple[int, int]]:
    pivot_set = set(pivots)
    return [
        (r, j)
        for r, c in enumerate(pivots)
        for j in range(c + 1, n)
        if j not in pivot_set
    ]


def _scan_pivots_gf2(n: int, pivots: Sequence[int], zmasks, ibits, vorder):
    """First feasible echelon basis (as int rows) for this pivot set, or None."""
    cells = _free_cells(n, pivots)
    base = [1 << c for c in pivots]
    for fill_idx, assignment in enumerate(product((0, 1), repeat=len(cells))):
        rows = base[:]
        for (r, j), value in zip(cells, assignment):
            if value:
                rows[r] |= 1 << j
        ok = True
        for v in vorder:
            zmask = zmasks[v]
            rz = gf2_rank(row & zmask for row in rows)
            rzi = gf2_rank(row & (zmask | ibits[v]) for row in rows)
            if rzi != rz + 1:
                ok = False
                break
        if ok:
            return fill_idx, rows
    return None


def _scan_pivots_modp(n: int, p: int, pivots: Sequence[int], vorder):
    """Generic-field version of the pivot-set scan; rows are int lists."""
    cells = _free_cells(n, pivots)
    k = len(pivots)
    for fill_idx, assignment in enumerate(product(range(p), repeat=len(cells))):
        rows = [[0] * n for _ in range(k)]
        for r, c in enumerate(pivots):
            rows[r][c] = 1
        for (r, j), value in zip(cells, assignment):
            rows[r][j] = value
        ok = True
        for v, zlist in vorder:
            sub = [[row[c] for c in zlist] for row in rows]
            rz = mod_rank(sub, p)
            subi = [s + [row[v]] for s, row in zip(sub, rows)]
            rzi = mod_rank(subi, p)
            if rzi != rz + 1:
                ok = False
                break
        if ok:
            return fill_idx, rows
    return None


def _scan_chunk(args):
    """Worker: scan a run of pivot sets, return the first feasible basis."""
    n, p, pivot_list, graph_adj, is_digraph = args
    g: GraphLike = Digraph(n, graph_adj) if is_digraph else Graph(n, graph_adj)
    allowed = _allowed_masks(g)
    full = (1 << n) - 1
    zmasks = [full & ~allowed[i] for i in range(n)]
    vorder = sorted(range(n), key=lambda v: allowed[v].bit_count())
    if p == 2:
        ibits = [1 << i for i in range(n)]
        for pos, pivots in enumerate(pivot_list):
            hit = _scan_pivots_gf2(n, pivots, zmasks, ibits, vorder)
            if hit is not None:
                return pos, hit[0], hit[1]
    else:
        zcols = [[j for j in range(n) if (zmasks[i] >> j) & 1] for i in range(n)]
        order = [(v, zcols[v]) for v in vorder]
        for pos, pivots in enumerate(pivot_list):
            hit = _scan_pivots_modp(n, p, pivots, order)
            if hit is not None:
                return pos, hit[0], hit[1]
    return None


def _first_feasible(g: GraphLike, p: int, k: int, jobs: int):
    """First feasible k-dimensional row space in canonical enumeration order."""
    n = g.n
    pivot_sets = list(combinations(range(n), k))
    is_digraph = isinstance(g, Digraph)
    if jobs <= 1 or len(pivot_sets) < 2 * jobs:
        hit = _scan_chunk((n, p, pivot_sets, g.adj, is_digraph))
        return None if hit is None else hit[2]
    chunks = split_list(pivot_sets, jobs)
    offsets = []
    total = 0
    for chunk in chunks:
        offsets.append(total)
        total += len(chunk)
    args = [(n, p, chunk, g.adj, is_digraph) for chunk in chunks]
    results = map_chunks(_scan_chunk, args, jobs)
    best = None
    for offset, hit in zip(offsets, results):
        if hit is None:
            continue
        key = (offset + hit[0], hit[1])
        if best is None or key < best[0]:
            best = (key, hit[2])
    return None if best is None else best[1]


def _witness_from_space(g: GraphLike, p: int, basis) -> FieldMatrix:
    """Build a representing matrix whose rows lie in the given row space."""
    n = g.n
    if p == 2 and basis and isinstance(basis[0], int):
        rows = [[(b >> j) & 1 for j in range(n)] for b in basis]
    else:
        rows = [list(b) for b in basis]
    k = len(rows)
    allowed = _allowed_masks(g)
    out = []
    for i in range(n):
        zlist = [j for j in range(n) if not (allowed[i] >> j) & 1]
        constraints = [[rows[r][z] for r in range(k)] for z in zlist]
        for x in mod_nullspace(constraints, k, p):
            if sum(x[r] * rows[r][i] for r in range(k)) % p:
                out.append([sum(x[r] * rows[r][j] for r in range(k)) % p for j in range(n)])
                break
        else:
            raise AssertionError("feasible space failed witness extraction")
    return FieldMatrix.from_rows(p, out)


def _coloring_witness(g: GraphLike, p: int) -> tuple[int, FieldMatrix]:
    """Clique-cover witness: all-ones blocks over the color classes."""
    if isinstance(g, Digraph):
        cover_graph = complement(underlying_graph(g))
    else:
        cover_graph = complement(g)
    colors = optimal_coloring(cover_graph)
    value = max(colors) + 1 if colors else 0
    rows = [
        [1 if colors[i] == colors[j] else 0 for j in range(g.n)]
        for i in range(g.n)
    ]
    return value, FieldMatrix.from_rows(p, rows)


def solver_work_estimate(n: int, p: int, k_lo: int, k_hi: int) -> int:
    """Candidate-subspaces-times-vertices cost model for the budget check."""
    factor = 1 if p == 2 else 4
    return sum(gaussian_binomial(n, k, p) for k in range(k_lo, k_hi)) * n * factor


def _check_coloring_witness(g: GraphLike, value: int, witness: FieldMatrix, upper: int) -> None:
    """Raise RuntimeError unless the coloring witness attains the upper bound
    and represents g; these checks hold under `python -O` too."""
    if value != upper:
        raise RuntimeError(f"internal error: coloring value {value} != upper bound {upper}")
    if not represents(witness, g):
        raise RuntimeError("internal error: the coloring witness does not represent the graph")


def minrank_exact(
    g: GraphLike,
    p: int,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
    jobs: int = 1,
) -> MinrankResult:
    """Exact minrank of g over GF(p) with a witness attaining it.

    Refuses explicitly (BudgetExceededError) when the subspace enumeration
    would exceed the work budget; never approximates silently.
    """
    if not is_prime(p):
        raise ValueError(f"field size {p} is not prime")
    n = g.n
    if n == 0:
        return MinrankResult(0, FieldMatrix(p, ()), 0, 0)
    bounds = minrank_bounds(g)
    lower, upper = bounds.lower, bounds.upper
    if lower == upper:
        value, witness = _coloring_witness(g, p)
        _check_coloring_witness(g, value, witness, upper)
        return MinrankResult(value, witness, lower, upper)
    check_budget(
        solver_work_estimate(n, p, lower, upper),
        work_budget,
        f"minrank enumeration for n={n}, p={p}, k in [{lower},{upper})",
    )
    for k in range(lower, upper):
        basis = _first_feasible(g, p, k, jobs)
        if basis is not None:
            witness = _witness_from_space(g, p, basis)
            if not represents(witness, g):
                raise RuntimeError(f"internal error: rank-{k} witness does not represent g")
            rank = witness.rank()
            if rank != k:
                raise RuntimeError(f"internal error: rank-{k} witness has rank {rank}")
            return MinrankResult(k, witness, lower, upper)
    value, witness = _coloring_witness(g, p)
    _check_coloring_witness(g, value, witness, upper)
    return MinrankResult(upper, witness, lower, upper)
