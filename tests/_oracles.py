"""Independent brute-force oracles the test suite checks the library against.

Everything here recomputes results from first principles (raw enumeration,
direct expansion), deliberately sharing no code path with the implementations
under test beyond the basic Graph container.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from minranklab.graphs import Graph


def oracle_minrank(g, p: int, unit_diagonal: bool = True) -> int:
    """Minimum rank over all matrices matching g's zero pattern.

    Works for graphs and digraphs alike (off-diagonal cells are free exactly
    at arcs). Enumerates every assignment of the free cells with nonzero
    diagonal and takes the minimum rank. Scaling each row by the inverse of
    its diagonal entry preserves rank and the zero pattern, so with
    unit_diagonal=True only diagonal-1 matrices are enumerated;
    unit_diagonal=False enumerates all nonzero diagonals, which the tests
    use to validate the reduction on tiny cases.
    """
    n = g.n
    free = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and (g.adj[i] >> j) & 1
    ]
    diag_choices = (
        [(1,) * n] if unit_diagonal else list(product(range(1, p), repeat=n))
    )
    best = n
    for diag in diag_choices:
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            r = _plain_mod_rank(rows, p)
            if r < best:
                best = r
                if best == 1:
                    return 1
    return best


def _plain_mod_rank(rows: list[list[int]], p: int) -> int:
    return len(oracle_rref(rows, p))


def oracle_rref(rows: list[list[int]], p: int) -> list[list[int]]:
    """The nonzero rows of the reduced row echelon form mod p (Gauss-Jordan)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def oracle_first_feasible_space(g, p: int, k: int) -> list[list[int]] | None:
    """The solver's witness space, found by brute force: the first
    k-dimensional row space W of GF(p)^n, in canonical order, that holds for
    every vertex i a vector with a nonzero i-th entry and zeros at every
    column i's row may not use. Returned as its reduced-echelon basis.

    Canonical order: the listed space S is W when 2k <= n and W-perp, of
    dimension n - k, when 2k > n. S runs through its reduced-echelon bases:
    pivot sets in combinations order; for each, the free cells (row r,
    column j > pivot r, j not a pivot) filled in product order, the cells
    listed column-major (by j, then r). W-perp is spanned by the vectors
    e_j - sum_r S[r][j] e_{c_r}, one per non-pivot column j of S. Vertex i
    is served when column i of W's basis raises the rank of its forbidden
    columns: then some combination of the rows is zero on every forbidden
    column and nonzero at i. The answer depends only on the set of those
    columns, so it is memoized on it.
    """
    n = g.n
    dual = 2 * k > n
    forbidden = [
        [j for j in range(n) if j != i and not (g.adj[i] >> j) & 1] for i in range(n)
    ]
    raises: dict = {}  # (forbidden columns, column i) -> column i raises their rank
    for pivots in combinations(range(n), n - k if dual else k):
        free = sorted(
            ((r, j) for r, c in enumerate(pivots) for j in range(c + 1, n) if j not in pivots),
            key=lambda cell: cell[::-1],
        )
        for values in product(range(p), repeat=len(free)):
            basis = [[0] * n for _ in pivots]
            for r, c in enumerate(pivots):
                basis[r][c] = 1
            for (r, j), v in zip(free, values):
                basis[r][j] = v
            if dual:
                perp = []
                for j in range(n):
                    if j not in pivots:
                        y = [0] * n
                        y[j] = 1
                        for r, c in enumerate(pivots):
                            y[c] = -basis[r][j] % p
                        perp.append(y)
                basis = perp
            columns = list(zip(*basis))
            for i in range(n):
                key = (frozenset(columns[j] for j in forbidden[i]), columns[i])
                if key not in raises:
                    rest = list(key[0])
                    raises[key] = _plain_mod_rank(rest + [key[1]], p) > _plain_mod_rank(rest, p)
                if not raises[key]:
                    break
            else:
                return oracle_rref(basis, p)
    return None


def oracle_smallest_factor(q: int) -> int:
    """The smallest divisor d >= 2 of q >= 2, by trial division."""
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def oracle_min_basis_weight(vectors: list[list[int]], p: int) -> int:
    """Minimum total nonzeros over rank-many independent vectors, found by
    trying every subset of that size."""
    rank = _plain_mod_rank(vectors, p)
    return min(
        sum(1 for v in subset for x in v if x % p)
        for subset in combinations(vectors, rank)
        if _plain_mod_rank(list(subset), p) == rank
    )


def oracle_basis_weight_census(n: int, p: int) -> dict[tuple[int, int, int], int]:
    """Counts of all n x n matrices over GF(p) by (rank, min column basis
    weight, min row basis weight), every matrix and every subset tried."""
    counts: dict[tuple[int, int, int], int] = {}
    for flat in product(range(p), repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        columns = [list(col) for col in zip(*rows)]
        key = (
            _plain_mod_rank(rows, p),
            oracle_min_basis_weight(columns, p),
            oracle_min_basis_weight(rows, p),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def oracle_nonzero_diagonal_matrices(n: int, p: int) -> list[list[list[int]]]:
    """Every n x n matrix over GF(p) with a nonzero diagonal, as row lists."""
    out = []
    for flat in product(range(p), repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if all(rows[i][i] for i in range(n)):
            out.append(rows)
    return out


def oracle_fraction_rank(rows: list[list]) -> int:
    """Rank over the rationals by plain Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pivval = m[r][c]
        m[r] = [x / pivval for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        rank += 1
        r += 1
    return rank


def oracle_min_vertex_cover(g: Graph) -> int:
    """Minimum vertex cover size by raw subset enumeration."""
    edges = g.edges()
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable")


def oracle_min_odd_cycle(g: Graph, limit: int) -> int | None:
    """Smallest odd cycle length <= limit by enumerating vertex sequences.

    A cycle is anchored at its minimal vertex to avoid rotations; all
    remaining arrangements are tried raw.
    """
    from itertools import permutations

    for length in range(3, limit + 1, 2):
        for anchor in range(g.n):
            rest = [v for v in range(g.n) if v > anchor]
            for arrangement in permutations(rest, length - 1):
                cycle = (anchor,) + arrangement
                if all(
                    g.has_edge(cycle[i], cycle[(i + 1) % length])
                    for i in range(length)
                ):
                    return length
    return None


def oracle_least_edge_mask(g: Graph) -> int:
    """The smallest edge mask, over the pairs in lexicographic order, of the
    n! relabelings of g, trying every relabeling."""
    from itertools import permutations

    bit = [[0] * g.n for _ in range(g.n)]
    for i, (a, b) in enumerate(combinations(range(g.n), 2)):
        bit[a][b] = bit[b][a] = 1 << i
    edges = g.edges()
    return min(
        sum(bit[order[u]][order[v]] for u, v in edges) for order in permutations(range(g.n))
    )


def oracle_kneser_graph(params) -> Graph:
    """K(d, s, m): the s-subsets of {0..d-1} in lexicographic order, a pair
    adjacent when the subsets share fewer than m elements, pair by pair."""
    masks = [sum(1 << i for i in combo) for combo in combinations(range(params.d), params.s)]
    rows = [0] * len(masks)
    for a, b in combinations(range(len(masks)), 2):
        if (masks[a] & masks[b]).bit_count() < params.m:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return Graph(len(masks), tuple(rows))


def oracle_factorization_product(params) -> tuple[tuple[int, ...], ...]:
    """L diag(c_|U|) L^T entry by entry, over the s-subsets in lexicographic
    order: L[A][U] = [U ⊆ A] for the subsets U with |U| <= s-m, held as one
    bitset per vertex, and each entry sum_u c_u * popcount(L_A & L_B & S_u),
    S_u marking the columns of size u."""
    from minranklab.kneser import pattern_polynomial_coefficients

    d, s, m = params.d, params.s, params.m
    masks = [sum(1 << i for i in combo) for combo in combinations(range(d), s)]
    columns = [sum(1 << i for i in combo)
               for size in range(s - m + 1) for combo in combinations(range(d), size)]
    incidence = [sum(1 << j for j, col in enumerate(columns) if not col & ~ma)
                 for ma in masks]
    weights = [(c, sum(1 << j for j, col in enumerate(columns) if col.bit_count() == u))
               for u, c in enumerate(pattern_polynomial_coefficients(s, m))]
    return tuple(
        tuple(sum(c * (la & lb & size_bits).bit_count() for c, size_bits in weights)
              for lb in incidence)
        for la in incidence
    )


def oracle_johnson_spectrum(d: int, s: int, m: int) -> list[tuple[int, int]]:
    """(eigenvalue, multiplicity) on each eigenspace V_j, j = 0..min(s, d-s),
    of the matrix P(|A ∩ B|) over the s-subsets, P(t) = prod_{j=m}^{s-1} (t - j).

    The matrix is sum_i P(s-i) A_i, A_i joining the s-sets that meet in s-i
    elements, and A_i acts on V_j as the Eberlein polynomial
    E_i(j) = sum_h (-1)^h C(j, h) C(s-j, i-h) C(d-s-j, i-h) (Delsarte 1973).
    """
    from math import comb, prod

    top = min(s, d - s)
    return [
        (
            sum(
                prod(s - i - t for t in range(m, s)) * sum(
                    (-1) ** h * comb(j, h) * comb(s - j, i - h) * comb(d - s - j, i - h)
                    for h in range(i + 1)
                )
                for i in range(top + 1)
            ),
            comb(d, j) - (comb(d, j - 1) if j else 0),
        )
        for j in range(top + 1)
    ]


def oracle_multilinear_coefficients(d: int, s: int, m: int) -> dict[int, int]:
    """Coefficients of prod_{j=m}^{s-1} (z_1+...+z_d - j) reduced by z^2 = z.

    Returns a map from monomial bitmask over d variables to its coefficient.
    """
    poly = {0: 1}
    linear = {1 << i: 1 for i in range(d)}
    for j in range(m, s):
        factor = dict(linear)
        factor[0] = -j
        out: dict[int, int] = {}
        for mono1, c1 in poly.items():
            for mono2, c2 in factor.items():
                mono = mono1 | mono2  # idempotent variables
                out[mono] = out.get(mono, 0) + c1 * c2
        poly = {mono: c for mono, c in out.items() if c}
    return poly


def oracle_extremal(n: int, h: Graph) -> list[list[int]]:
    """The edge masks of the n-vertex graphs whose complement has no copy of
    h, grouped into isomorphism classes; classes and their masks both in
    increasing mask order.

    Every labeled graph is built in networkx from its mask over the pairs in
    lexicographic order, tested with a subgraph monomorphism search, and
    compared with each class found so far by nx.is_isomorphic.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    pairs = list(combinations(range(n), 2))
    pattern = nx.Graph()
    pattern.add_nodes_from(range(h.n))
    pattern.add_edges_from(h.edges())
    classes: list[tuple[nx.Graph, list[int]]] = []
    for mask in range(1 << len(pairs)):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pr for i, pr in enumerate(pairs) if mask >> i & 1)
        if GraphMatcher(nx.complement(g), pattern).subgraph_is_monomorphic():
            continue
        for rep, masks in classes:
            if nx.is_isomorphic(rep, g):
                masks.append(mask)
                break
        else:
            classes.append((g, [mask]))
    return [masks for _, masks in classes]


def geometric_sum_direct(r: Fraction, lo: int, hi: int) -> Fraction:
    """sum of r^i for i in [lo, hi], term by term."""
    total = Fraction(0)
    power = r**lo
    for _ in range(lo, hi + 1):
        total += power
        power *= r
    return total
