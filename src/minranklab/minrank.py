"""Representation checking and exact minrank over prime fields.

The exact solver does iterative deepening on the target rank k: for each k it
enumerates the k-dimensional row spaces W over GF(p). W is feasible for
vertex i when it has a vector supported inside i's allowed columns with a
nonzero i-th coordinate, which reduces to one column-span membership test per
vertex. The solver lists one space S through its canonical reduced-echelon
bases: S = W when 2k <= n, and S = W-perp, of dimension n - k, when 2k > n,
with W recovered as the nullspace of S for the witness. One kernel serves
every field and both cases: each column of S's basis is read as a vector
code, a cached table maps the code to the bitmask of projective functionals
that do not vanish on it, and the test is an OR and an AND-NOT of those
masks. The first feasible space in canonical order supplies the witness.

Canonical order: pivot sets of S in combinations order, and within one the
free cells in product order, listed column-major (by column, then row). Each
depth-first step fills one whole column in increasing column order, and each
vertex test runs as soon as every column it reads is fixed, so a failing
test cuts off every filling below it. The scan still meets the feasible
fillings in canonical order, so pruning leaves the witness as it is.
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


def _scan_pivots(n: int, p: int, pivots: Sequence[int], tests, dual: bool):
    """First passing reduced-echelon basis (as int-list rows) of a space S
    with this pivot set, or None.

    tests lists (v, columns) in test order. Vertex v's test reads col_v of
    the basis and its listed columns Z: masks[v] & ~OR(masks[Z]), where
    masks[j] is the set of projective functionals that do not vanish on
    column j, is nonzero iff col_v is outside the span of the columns in Z.
    With dual false, S is W and Z the columns outside allowed[v]: v is
    feasible iff W has a vector zero on Z and nonzero at v, so v passes when
    some functional survives. With dual true, S is W-perp and Z the
    out-neighbors N_v: the vectors of W zero outside allowed[v] have the
    annihilator W-perp + span(e_z : z outside allowed[v]), and v is feasible
    iff e_v is not in it, iff no y in W-perp vanishes on N_v with y_v != 0,
    so v passes when no functional survives.

    The free cells are filled depth-first, one column per step: the step for
    non-pivot column j sets the cells (r, j), rows increasing, and tries the
    column's codes in lexicographic order of the cell values. Steps go in
    increasing column index, so the leaves come in the product order of the
    fillings with the cells listed column-major. A vertex test reads only
    v's column and its listed columns, so it runs at the step that fixes the
    last of them (at the root when none is free) and a failure cuts the
    whole subtree below. Every cut leaf fails a test, so the first leaf
    reached is the first passing filling in that order, the one a
    fill-then-test scan would return. A step overwrites its column before
    any test reads it, and no test at an earlier step reads it, so nothing
    is restored on backtracking.
    """
    d = len(pivots)
    table = _nonzero_functionals(p, d)
    masks = [table[0]] * n
    for r, c in enumerate(pivots):
        masks[c] = table[p**r]
    # step 0 sets nothing and runs the tests that read no free cell; each
    # later step is (column, (mask, cell values) per code), the codes in
    # lexicographic order of the cell values, cell r weighing p**r. A
    # non-pivot column has a cell in each row whose pivot lies left of it,
    # so the columns between two pivots share their codes.
    steps = [(0, [(masks[0], ())])]
    codes = [(0, ())]
    for j in range(n):
        if j in pivots:
            weight = p ** len(codes[0][1])
            codes = [(code + a * weight, vals + (a,)) for code, vals in codes for a in range(p)]
            options = [(table[code], vals) for code, vals in codes]
        elif len(codes) > 1:
            steps.append((j, options))
    last_step = {j: depth for depth, (j, _) in enumerate(steps) if depth}
    ready = [[] for _ in steps]
    for v, others in tests:
        ready[max(last_step.get(u, 0) for u in (v, *others))].append((v, others))
    chosen = [()] * len(steps)

    def descend(depth):
        """Try each code of step depth's column, and below it the steps after
        it; True at the first passing leaf, with its cell values in chosen."""
        j, options = steps[depth]
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
    rows = [[0] * n for _ in range(d)]
    for r, c in enumerate(pivots):
        rows[r][c] = 1
    for (j, _), vals in zip(steps, chosen):
        for r, a in enumerate(vals):
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
        # the mask table has p^d entries for S of dimension d, so the scan
        # lists the smaller of W and W-perp
        dual = 2 * k > n
        for pivots in combinations(range(n), n - k if dual else k):
            rows = _scan_pivots(n, p, pivots, neighbors if dual else outside, dual)
            if rows is not None:
                if dual:
                    rows = mod_nullspace(rows, n, p)
                witness = _witness_from_space(n, p, rows, dict(outside))
                return _checked(g, k, witness, lower, upper)
    return _checked(g, upper, _coloring_witness(g, p, upper), lower, upper)
