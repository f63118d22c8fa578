"""Representation checking and exact minrank over prime fields.

The exact solver does iterative deepening on the target rank k: for each k it
enumerates all k-dimensional row spaces over GF(p) through their canonical
reduced-echelon bases. A row space W is feasible for vertex i when it has a
vector supported inside i's allowed columns with a nonzero i-th coordinate,
which reduces to one column-span membership test per vertex: column i of the
basis lies outside the span of the columns i may not use. One kernel serves
every field: each column is read as a vector code, a cached table maps the
code to the bitmask of projective functionals that do not vanish on it, and
the test is an OR and an AND-NOT of those masks, run in W or in W-perp,
whichever has the smaller dimension. The first feasible space in canonical
order supplies the witness.

Canonical order: pivot sets in combinations order, and within one the free
cells in product order, listed column-major (by column, then row) when the
test runs in W and row-major when it runs in W-perp. Each depth-first step
fills one whole column, the column that the test side reads, in increasing
column order, and each vertex test runs as soon as every column it reads is
fixed, so a failing test cuts off every filling below it. The scan still
meets the feasible fillings in canonical order, so pruning leaves the
witness as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
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
# gf2_rank is unused here; perfbench's test_tracer_counts_calls_where_they_are_looked_up reads it
from .matrices import FieldMatrix, Matrix, gf2_rank, is_prime, mod_nullspace  # noqa: F401

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


def _cover_graph(g: GraphLike) -> Graph:
    """The complement of g's two-way graph: its proper colorings are the
    clique covers behind the upper bound and the all-ones-block witness."""
    return complement(underlying_graph(g) if isinstance(g, Digraph) else g)


# vertex counts up to which minrank_bounds computes alpha and chi exactly
ALPHA_LIMIT = 40
CHI_LIMIT = 18


def minrank_bounds(g: GraphLike) -> Bounds:
    """Independence-number lower bound and clique-cover upper bound.

    Both bounds hold over every field. Past ALPHA_LIMIT (CHI_LIMIT) vertices
    the lower bound falls back to a greedy independent set (the upper bound
    to degeneracy+1 of the complement), flagged as inexact.
    """
    lower_graph = union_graph(g)
    cover_graph = _cover_graph(g)
    if g.n <= ALPHA_LIMIT:
        lower, lower_exact = independence_number(lower_graph), True
    else:
        lower, lower_exact = len(greedy_independent_set(lower_graph)), False
    if g.n <= CHI_LIMIT:
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

@lru_cache(maxsize=None)
def _nonzero_functionals(p: int, d: int) -> tuple[int, ...]:
    """Per vector c of GF(p)^d, encoded as sum(c_r * p**r): the bitmask of the
    projective points x (first nonzero coordinate 1) with x . c != 0."""
    vectors = [[(code // p**r) % p for r in range(d)] for code in range(p**d)]
    points = [x for x in vectors if next((a for a in x if a), 0) == 1]
    return tuple(
        sum(1 << i for i, x in enumerate(points) if sum(a * b for a, b in zip(x, c)) % p)
        for c in vectors
    )


def _scan_pivots(n: int, p: int, pivots: Sequence[int], tests):
    """First feasible echelon basis (as int-list rows) for this pivot set, or None.

    tests[dual] lists (v, columns) in test order: the columns outside
    allowed[v] for the test in W, v's out-neighbors for the test in W-perp.

    Vertex v is feasible for W = rowspan(B) iff col_v(B) is not in the span of
    the columns Z_v outside allowed[v], i.e. iff some functional vanishes on
    Z_v but not on v: masks[v] & ~OR(masks[Z_v]) != 0, where masks[j] is the
    set of projective functionals that do not vanish on column j.

    The table of masks has p^d entries of (p^d - 1)/(p - 1) bits for columns
    in GF(p)^d, so when 2k > n the same test runs in W-perp (d = n - k). With
    S = W & {w_Z = 0}, S-perp = W-perp + span(e_z : z in Z_v), so v is
    feasible iff e_v is not in it, iff no y in W-perp vanishes on the
    out-neighbors N_v with y_v != 0: masks[v] & ~OR(masks[N_v]) == 0.
    W-perp's basis reads straight off B: each non-pivot column j is the unit
    vector of its own slot, and pivot column c_r holds -B[r][j] in slot j.

    The free cells are filled depth-first, one column per step: in W the
    step for non-pivot column j sets the cells (r, j), rows increasing; in
    W-perp the step for pivot column c_r sets the cells (r, j), j increasing.
    Steps go in increasing column index, so W is filled column-major and
    W-perp row-major, and a step tries its column's codes in lexicographic
    order of the cell values. The leaves thus come in the product order of
    the fillings with the cells in that order. A vertex test reads only v's
    column and its listed columns, so it runs at the step that fixes the
    last of them (at the root when none is free) and a failure cuts the
    whole subtree below. Every cut leaf fails a test, so the first leaf
    reached is the first feasible filling in that order, the one a
    fill-then-test scan would return. A step overwrites its column before
    any test reads it, and no test at an earlier step reads it, so nothing
    is restored on backtracking.
    """
    k = len(pivots)
    dual = 2 * k > n
    codes = [0] * n
    if dual:
        slot = {j: s for s, j in enumerate(j for j in range(n) if j not in pivots)}
        for j, s in slot.items():
            codes[j] = p**s
        # a cell (r, j) puts -B[r][j] in slot j of pivot column c_r
        sign = -1
        columns = [(c, [(r, j, p ** slot[j]) for j in slot if j > c]) for r, c in enumerate(pivots)]
    else:
        # a cell (r, j) puts B[r][j] in slot r of column j
        for r, c in enumerate(pivots):
            codes[c] = p**r
        sign = 1
        columns = [(j, [(r, j, p**r) for r, c in enumerate(pivots) if c < j])
                   for j in range(n) if j not in pivots]
    table = _nonzero_functionals(p, n - k if dual else k)
    masks = [table[c] for c in codes]
    # step 0 sets nothing and runs the tests that read no free cell; each
    # later step is (column, its cells, (mask, cell values) per code), the
    # codes in lexicographic order of the cell values
    steps = [(0, [], [(masks[0], ())])]
    for j, cells in columns:
        if cells:
            options = [(0, ())]
            for _, _, weight in cells:
                options = [(code + (sign * a % p) * weight, vals + (a,))
                           for code, vals in options for a in range(p)]
            steps.append((j, cells, [(table[code], vals) for code, vals in options]))
    last_step = {j: d for d, (j, _, _) in enumerate(steps) if d}
    ready = [[] for _ in steps]
    for v, others in tests[dual]:
        ready[max(last_step.get(u, 0) for u in (v, *others))].append((v, others))
    chosen = [()] * len(steps)

    def descend(depth):
        """Try each code of step depth's column, and below it the steps after
        it; True at the first feasible leaf, with its cell values in chosen."""
        j, _, options = steps[depth]
        for mask, vals in options:
            masks[j] = mask
            for v, others in ready[depth]:
                span = 0
                for u in others:
                    span |= masks[u]
                if bool(masks[v] & ~span) == dual:
                    break
            else:
                if depth + 1 == len(steps) or descend(depth + 1):
                    chosen[depth] = vals
                    return True
        return False

    found = descend(0)
    del descend  # it refers to itself, a cycle that would hold this state until gc
    if not found:
        return None
    rows = [[0] * n for _ in range(k)]
    for r, c in enumerate(pivots):
        rows[r][c] = 1
    for (_, cells, _), vals in zip(steps, chosen):
        for (r, j, _), a in zip(cells, vals):
            rows[r][j] = a
    return rows


def _witness_from_space(n: int, p: int, rows, outside) -> FieldMatrix:
    """Build a representing matrix whose rows lie in the row space of `rows`;
    outside[i] lists the columns vertex i's row must vanish on."""
    k = len(rows)
    out = []
    for i in range(n):
        constraints = [[rows[r][z] for r in range(k)] for z in outside[i]]
        for x in mod_nullspace(constraints, k, p):
            if sum(x[r] * rows[r][i] for r in range(k)) % p:
                out.append([sum(x[r] * rows[r][j] for r in range(k)) % p for j in range(n)])
                break
        else:
            raise RuntimeError("internal error: a feasible space failed witness extraction")
    return FieldMatrix.from_rows(p, out)


def _coloring_witness(g: GraphLike, p: int, upper: int) -> FieldMatrix:
    """Clique-cover witness: all-ones blocks over the color classes.

    Reached only when no rank below `upper` works, so the cover graph's
    chromatic number is exactly `upper` (a coloring with fewer colors would
    be a lower-rank witness) and is not recomputed. The blocks sit on
    disjoint classes, so the witness's rank is the number of classes.
    """
    colors = optimal_coloring(_cover_graph(g), upper)
    # the rows of a color class share one indicator tuple, so a stored
    # witness holds one row per class
    blocks = {color: tuple(1 if c == color else 0 for c in colors) for color in set(colors)}
    return FieldMatrix(p, tuple(blocks[c] for c in colors))


def solver_work_estimate(n: int, p: int, k_lo: int, k_hi: int) -> int:
    """Candidate-subspaces-times-vertices cost model for the budget check."""
    return sum(gaussian_binomial(n, k, p) for k in range(k_lo, k_hi)) * n


def _checked(
    g: GraphLike, value: int, witness: FieldMatrix, lower: int, upper: int
) -> MinrankResult:
    """The answer, once the witness represents g with rank `value`. Failures
    raise RuntimeError, so the checks hold under `python -O` too."""
    if not represents(witness, g):
        raise RuntimeError(f"internal error: the rank-{value} witness does not represent g")
    rank = witness.rank()
    if rank != value:
        raise RuntimeError(f"internal error: the rank-{value} witness has rank {rank}")
    return MinrankResult(value, witness, lower, upper)


def minrank_exact(
    g: GraphLike,
    p: int,
    work_budget: int = DEFAULT_SOLVER_BUDGET,
    jobs: int = 1,
) -> MinrankResult:
    """Exact minrank of g over GF(p) with a witness attaining it.

    Refuses explicitly (BudgetExceededError) when the subspace enumeration
    would exceed the work budget; never approximates silently. The search
    runs in this process, so `jobs` must be 1.
    """
    if jobs != 1:
        raise ValueError(f"the exact solver runs in one process, so jobs must be 1, not {jobs}")
    if not is_prime(p):
        raise ValueError(f"field size {p} is not prime")
    n = g.n
    bounds = minrank_bounds(g)
    lower, upper = bounds.lower, bounds.upper
    if lower < upper:
        check_budget(
            solver_work_estimate(n, p, lower, upper),
            work_budget,
            f"minrank enumeration for n={n}, p={p}, k in [{lower},{upper})",
        )
    allowed = _allowed_masks(g)
    vorder = sorted(range(n), key=lambda v: allowed[v].bit_count())
    outside = [(v, [u for u in range(n) if not (allowed[v] >> u) & 1]) for v in vorder]
    neighbors = [(v, [u for u in range(n) if u != v and (allowed[v] >> u) & 1]) for v in vorder]
    for k in range(lower, upper):
        for pivots in combinations(range(n), k):
            rows = _scan_pivots(n, p, pivots, (outside, neighbors))
            if rows is not None:
                witness = _witness_from_space(n, p, rows, dict(outside))
                return _checked(g, k, witness, lower, upper)
    return _checked(g, upper, _coloring_witness(g, p, upper), lower, upper)
