"""Undirected and directed graphs on dense integer vertices with bitset adjacency.

Vertices are 0..n-1 and every adjacency row is a Python int used as a bitset,
which keeps the exhaustive searches in the rest of the package cheap. All
graph values are immutable after construction. Besides constructors, the
module answers subgraph containment, shortest odd cycles, exact independence
and chromatic numbers, and an isomorphism-invariant canonical key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NoReturn, Optional, Sequence


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """The unordered pairs of 0..n-1 in lexicographic order."""
    return tuple(combinations(range(n), 2))


def _check_rows(n: int, adj: tuple[int, ...]) -> None:
    """Checks shared by both graph types: n >= 0, one bitset row per vertex,
    no bits outside 0..n-1 and no self-loops."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(adj) != n:
        raise ValueError("adjacency must have one row per vertex")
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"row {i} has bits outside 0..{n - 1}")
        if (row >> i) & 1:
            raise ValueError(f"self-loop at vertex {i}")


def _refuse_asymmetric(adj: tuple[int, ...]) -> NoReturn:
    """Raise a ValueError naming the first bit, in row-major order, whose
    mirror is missing."""
    i, j = next(
        (i, j) for i, row in enumerate(adj) for j in _bits(row) if not adj[j] >> i & 1
    )
    raise ValueError(f"adjacency not symmetric at ({i},{j})")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: symmetric, irreflexive bitset adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rows(self.n, self.adj)
        # each bit above the diagonal must have its mirror below it; with as
        # many bits below as above, no bit below is left without a mirror
        adj = self.adj
        above = below = 0
        for i, row in enumerate(adj):
            upper = row >> i << i
            above += upper.bit_count()
            below += (row ^ upper).bit_count()
            while upper:
                lsb = upper & -upper
                if not adj[lsb.bit_length() - 1] >> i & 1:
                    _refuse_asymmetric(adj)
                upper ^= lsb
        if above != below:
            _refuse_asymmetric(adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Graph from a bitmask over the unordered pairs in lexicographic order."""
        pairs = _pair_table(n)
        if mask < 0 or mask >= 1 << len(pairs):
            raise ValueError("edge mask out of range")
        rows = [0] * n
        for i in _bits(mask):
            u, v = pairs[i]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def edge_mask(self) -> int:
        mask = 0
        for idx, (u, v) in enumerate(_pair_table(self.n)):
            if (self.adj[u] >> v) & 1:
                mask |= 1 << idx
        return mask

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


@dataclass(frozen=True)
class Digraph:
    """Directed graph: irreflexive out-neighbor bitset rows, ordered pairs."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rows(self.n, self.adj)

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        rows = [0] * n
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) outside 0..{n - 1}")
            rows[u] |= 1 << v
        return cls(n, tuple(rows))

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u])]

    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self.adj)


# ---------------------------------------------------------------------------
# constructors

def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with one center and the given number of leaves."""
    if leaves < 1:
        raise ValueError("a star needs at least 1 leaf")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite(part_sizes: Sequence[int]) -> Graph:
    """Vertices grouped into parts, adjacent exactly when in different parts."""
    if not part_sizes:
        raise ValueError("need at least one part")
    if any(s <= 0 for s in part_sizes):
        raise ValueError("part sizes must be positive")
    n = sum(part_sizes)
    full = (1 << n) - 1
    rows: list[int] = []
    for size in part_sizes:
        part_mask = ((1 << size) - 1) << len(rows)
        rows.extend([full ^ part_mask] * size)
    return Graph(n, tuple(rows))


class GraphParameterError(ValueError):
    """A built-in graph family name with a parameter below its minimum."""


def named_graph(name: str) -> Graph:
    """Resolve built-in graph names: K5, C7, P4, star3, empty4. A family
    name with too small a parameter raises GraphParameterError."""
    text = name.strip().lower()
    for prefix, builder, minimum in (
        ("star", star_graph, 1),
        ("empty", empty_graph, 0),
        ("k", complete_graph, 1),
        ("c", cycle_graph, 3),
        ("p", path_graph, 2),
    ):
        if text.startswith(prefix) and text[len(prefix):].isdigit():
            value = int(text[len(prefix):])
            if value < minimum:
                raise GraphParameterError(f"{name}: parameter must be at least {minimum}")
            return builder(value)
    raise ValueError(f"unknown graph name: {name}")


# ---------------------------------------------------------------------------
# basic operations

def complement(g: Graph) -> Graph:
    """Exact complement on unordered pairs; an involution."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << i)) for i, row in enumerate(g.adj)))


def contains_subgraph(g: Graph, h: Graph) -> bool:
    """True iff some injective vertex map sends every edge of h into g.

    Not-necessarily-induced containment by backtracking, with h's vertices
    placed in descending-degree order. The candidates for the next one are
    the unused vertices adjacent to the images of all its placed neighbors,
    one AND of adjacency rows, tried lowest first.
    """
    if h.n == 0:
        raise ValueError("pattern graph needs at least one vertex")
    if h.n > g.n:
        return False
    order = sorted(range(h.n), key=lambda v: -h.degree(v))
    placed_neighbors = [
        [j for j in range(i) if h.has_edge(v, order[j])] for i, v in enumerate(order)
    ]
    full = (1 << g.n) - 1
    image = [0] * h.n

    def extend(i: int, used: int) -> bool:
        if i == h.n:
            return True
        candidates = full & ~used
        for j in placed_neighbors[i]:
            candidates &= g.adj[image[j]]
        for cand in _bits(candidates):
            image[i] = cand
            if extend(i + 1, used | 1 << cand):
                return True
        return False

    return extend(0, 0)


def check_odd_length(ell: int) -> None:
    """Refuse an odd-cycle length bound that is not an odd integer >= 3."""
    if ell < 3 or ell % 2 == 0:
        raise ValueError("ell must be an odd integer >= 3")


def min_odd_cycle_at_most(g: Graph, ell: int) -> Optional[int]:
    """Smallest odd cycle length <= ell in g, or None if there is none.

    Breadth-first layers from each vertex v: an edge inside layer d closes an
    odd walk of length 2d + 1 through v, so an odd cycle of at most that
    length exists. On a shortest odd cycle C through v, the two middle
    vertices are adjacent and both at distance (|C| - 1) / 2 from v, so the
    least 2d + 1 over all v is the shortest odd cycle.
    """
    check_odd_length(ell)
    best: Optional[int] = None
    cap = ell // 2
    for v in range(g.n):
        seen = layer = 1 << v
        depth = 0
        while layer and depth < cap:
            depth += 1
            reach = 0
            for u in _bits(layer):
                reach |= g.adj[u]
            layer = reach & ~seen
            seen |= layer
            # at depth 1 a layer edge closes a triangle through v; every
            # triangle is found from its least vertex, which runs first, so
            # only the neighbours above v need probing
            probe = layer >> v << v if depth == 1 else layer
            if any(g.adj[u] & layer for u in _bits(probe)):
                best, cap = 2 * depth + 1, depth - 1
                break
        if best == 3:
            return 3
    return best


def degeneracy(g: Graph) -> tuple[int, list[int]]:
    """Max degree at removal time along a min-degree elimination order."""
    remaining = (1 << g.n) - 1
    order: list[int] = []
    d = 0
    while remaining:
        v = min(_bits(remaining), key=lambda u: ((g.adj[u] & remaining).bit_count(), u))
        d = max(d, (g.adj[v] & remaining).bit_count())
        order.append(v)
        remaining ^= 1 << v
    return d, order


def greedy_coloring(g: Graph, order: Optional[Sequence[int]] = None) -> list[int]:
    """First-fit coloring along the given vertex order (default 0..n-1): each
    vertex takes the lowest color whose vertex bitset misses its neighbors."""
    if order is None:
        order = range(g.n)
    colors = [-1] * g.n
    classes = [0] * g.n  # a vertex meets at most deg(v) < n colors
    for v in order:
        c = 0
        while classes[c] & g.adj[v]:
            c += 1
        classes[c] |= 1 << v
        colors[v] = c
    return colors


def greedy_independent_set(g: Graph) -> list[int]:
    """Greedy min-degree independent set; a lower-bound heuristic for alpha."""
    remaining = (1 << g.n) - 1
    chosen: list[int] = []
    while remaining:
        v = min(_bits(remaining), key=lambda u: ((g.adj[u] & remaining).bit_count(), u))
        chosen.append(v)
        remaining &= ~((g.adj[v] | (1 << v)))
    return chosen


def independence_number(g: Graph) -> int:
    """Exact independence number by branch and bound over vertex bitsets."""
    closed = tuple(g.adj[v] | (1 << v) for v in range(g.n))
    best = len(greedy_independent_set(g))

    def expand(mask: int, size: int) -> None:
        nonlocal best
        if size + mask.bit_count() <= best:
            return
        if mask == 0:
            best = size
            return
        # branch on a max-degree vertex inside the candidate set
        v = max(_bits(mask), key=lambda u: (g.adj[u] & mask).bit_count())
        expand(mask & ~closed[v], size + 1)
        if (g.adj[v] & mask) == 0:
            return  # isolated in mask: including it was optimal
        expand(mask & ~(1 << v), size)

    expand((1 << g.n) - 1, 0)
    return best


def _color_with(g: Graph, k: int) -> Optional[list[int]]:
    """Proper coloring with at most k colors, or None, by backtracking in
    descending-degree order. Color c is free for v iff c's vertex bitset
    misses v's neighbors. Colors are tried in ascending order, with at most
    one fresh color (a symmetry break)."""
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    colors = [-1] * g.n
    classes = [0] * k

    def place(i: int, used: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for c in range(min(k, used + 1)):
            if not classes[c] & g.adj[v]:
                classes[c] |= 1 << v
                colors[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
                classes[c] ^= 1 << v
        return False

    return colors if place(0, 0) else None


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterative deepening on the color count."""
    if g.n == 0:
        return 0
    lower = independence_number(complement(g))  # clique number
    upper = max(greedy_coloring(g, degeneracy(g)[1][::-1])) + 1
    for k in range(lower, upper):
        if _color_with(g, k) is not None:
            return k
    return upper


def optimal_coloring(g: Graph, chromatic: int) -> list[int]:
    """A proper coloring with `chromatic` colors, the chromatic number of g,
    which the caller already knows (so it is not computed again)."""
    coloring = _color_with(g, chromatic)
    if coloring is None:
        raise RuntimeError(f"internal error: no coloring with {chromatic} colors")
    return coloring


def is_forest(g: Graph) -> bool:
    """True iff g has no cycle, that is iff its degeneracy is at most 1: a
    cycle has minimum degree 2, and every forest has a vertex of degree at
    most 1."""
    return degeneracy(g)[0] <= 1


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and g.edge_count() == g.n - 1 and is_forest(g)


def _stable_coloring(g: Graph) -> tuple[list[int], tuple]:
    """Color refinement from the degrees until the partition is stable.

    Each round names a vertex's new color by the rank of its signature (own
    color, sorted neighbor colors) among the sorted distinct signatures, so
    colors never depend on vertex labels. Returns the stable colors and the
    sorted signatures of the last round.
    """
    colors = [row.bit_count() for row in g.adj]
    count = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in _bits(g.adj[v]))))
            for v in range(g.n)
        ]
        names = sorted(set(sigs))
        if len(names) == count:  # no cell split: the partition is stable
            return colors, tuple(sorted(sigs))
        index = {sig: i for i, sig in enumerate(names)}
        colors = [index[sig] for sig in sigs]
        count = len(names)


def _least_encoding(adj: tuple[int, ...], pools: Sequence[int]) -> int:
    """The least encoding over the vertex orders that draw position i from
    pools[i], the cells of a vertex partition each listed once per member.
    An order's encoding packs, row by row, each vertex's adjacency to those
    before it, the first placed most significant. The search keeps every
    partial order that ties on the smallest prefix, and places twins within
    a pool (same neighbors apart from each other) in label order, since
    swapping two of them is an automorphism."""
    twins_before = [0] * len(adj)
    for pool in set(pools):
        for v in _bits(pool):
            for u in _bits(pool & ((1 << v) - 1)):
                if adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                    twins_before[v] |= 1 << u
    partial: list[tuple[tuple[int, ...], int]] = [((), 0)]  # (order, used mask)
    code = 0
    for i, pool in enumerate(pools):
        best_row = -1
        extended: list[tuple[tuple[int, ...], int]] = []
        for order, used in partial:
            for v in _bits(pool & ~used):
                if twins_before[v] & ~used:
                    continue  # a smaller twin of v must come first
                row = 0
                for u in order:
                    row = row << 1 | (adj[v] >> u) & 1
                if best_row < 0 or row < best_row:
                    best_row = row
                    extended = []
                if row == best_row:
                    extended.append((order + (v,), used | 1 << v))
        partial = extended
        code = code << i | best_row
    return code


def canonical_key(g: Graph) -> tuple:
    """A key that two graphs share exactly when they are isomorphic: the
    signature of stable color refinement, and the least encoding over the
    orders that keep the cells in color order (the search `least_edge_mask`
    runs over all orders). The work grows with the size of the cells, so the
    key is meant for small graphs (n <= 8 or refinement-friendly ones)."""
    colors, signature = _stable_coloring(g)
    cell: dict[int, int] = {}
    for v, c in enumerate(colors):
        cell[c] = cell.get(c, 0) | 1 << v
    return signature, _least_encoding(g.adj, [cell[c] for c in sorted(colors)])


def least_edge_mask(g: Graph) -> int:
    """The least `Graph.edge_mask()` over the relabelings of g: the vertex
    placed i-th takes label n-1-i, so its row is the next i mask bits from
    the top, the pairs (n-1-i, n-1), ..., (n-1-i, n-i)."""
    return _least_encoding(g.adj, [(1 << g.n) - 1] * g.n)


# ---------------------------------------------------------------------------
# random digraphs

def sample_digraph(n: int, p: float, seed: int) -> Digraph:
    """Random digraph: each ordered pair kept independently with probability p.

    Deterministic per (n, p, seed); pairs are scanned in row-major order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    rng = random.Random(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                rows[i] |= 1 << j
    return Digraph(n, tuple(rows))


def underlying_graph(d: Digraph) -> Graph:
    """Undirected graph keeping (i,j) exactly when both arcs are present."""
    incoming = [0] * d.n
    for i, row in enumerate(d.adj):
        for j in _bits(row):
            incoming[j] |= 1 << i
    return Graph(d.n, tuple(row & incoming[i] for i, row in enumerate(d.adj)))


def union_graph(d: Graph | Digraph) -> Graph:
    """Undirected graph keeping (i,j) when at least one arc is present; a
    Graph's union graph equals the graph."""
    rows = list(d.adj)
    for i, row in enumerate(d.adj):
        for j in _bits(row):
            rows[j] |= 1 << i
    return Graph(d.n, tuple(rows))


def bidirected(g: Graph) -> Digraph:
    """The digraph with both arcs for every edge of g."""
    return Digraph(g.n, g.adj)
