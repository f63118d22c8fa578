"""Seeded inputs for the solve workloads, made without minranklab.

Digraphs are drawn as `minranklab experiment g-estimate --seed S` draws
them: a master `random.Random(S)` yields one 63-bit sub-seed per sample, and
a sample keeps each ordered pair (u, v), u != v, scanned row by row, when
`random.Random(sub_seed).random() < 1/2`. The draw is repeated here so that
a change to the program's sampler cannot change the benchmark's inputs.

A round is a fixed mix of classes. A class is the solver's search range
(lower, upper), the independence number of the union graph and the
chromatic number of the complement of the two-way graph, together with the
minrank from the independent oracle. The range and the answer set most of
a solve's cost, so fixing how many digraphs each class gives keeps the work
of a round comparable between seeds, while the seed decides which digraphs
run. The mix follows the class frequencies of 3000 (GF(2), n=7) and 2000
(GF(3), n=6) draws of seed 2024, rounded to the round size; draws of a
class outside the mix or already filled are passed over. Classes outside
the mix held 3% (GF(2)) and 5% (GF(3)) of those draws. The selection runs
once per run, before the timed set-ups; a set-up draws the selected
digraphs again from their sub-seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import oracle_minrank

ARC_PROB = 0.5


@dataclass(frozen=True)
class SolveSpec:
    n: int
    p: int
    mix: dict  # (lower, upper, minrank) -> digraphs of that class in a round

    @property
    def per_round(self) -> int:
        return sum(self.mix.values())


SOLVE_SPECS = {
    "solve-gf2": SolveSpec(n=7, p=2, mix={
        (2, 3, 3): 4, (2, 4, 3): 2, (2, 4, 4): 19, (2, 5, 4): 6, (2, 5, 5): 7,
        (2, 6, 5): 1, (3, 3, 3): 1, (3, 4, 4): 9, (3, 5, 4): 2, (3, 5, 5): 7,
        (3, 6, 5): 1, (3, 6, 6): 1,
    }),
    "solve-gf3": SolveSpec(n=6, p=3, mix={
        (2, 3, 3): 5, (2, 4, 3): 2, (2, 4, 4): 8, (2, 5, 4): 2, (2, 5, 5): 2,
        (3, 3, 3): 1, (3, 4, 4): 3, (3, 5, 5): 1,
    }),
}


def draw_digraph(n: int, sub_seed: int) -> tuple[int, ...]:
    """Out-neighbour bitsets of one sampled digraph."""
    rng = random.Random(sub_seed)
    return tuple(
        sum(1 << j for j in range(n) if i != j and rng.random() < ARC_PROB)
        for i in range(n)
    )


def _independent_sets(adj: tuple[int, ...]) -> list[int]:
    """Masks of every independent vertex set of an undirected bitset graph."""
    return [
        s for s in range(1 << len(adj))
        if all(not (adj[v] & s) for v in range(len(adj)) if s >> v & 1)
    ]


def alpha(adj: tuple[int, ...]) -> int:
    return max(s.bit_count() for s in _independent_sets(adj))


def chromatic(adj: tuple[int, ...]) -> int:
    """Chromatic number by dynamic programming over vertex subsets."""
    n = len(adj)
    indep = set(_independent_sets(adj))
    best = [0] + [n + 1] * ((1 << n) - 1)
    for s in range(1, 1 << n):
        low = s & -s
        sub = s
        while sub:  # independent subsets holding the lowest vertex of s
            if sub & low and sub in indep:
                best[s] = min(best[s], best[s ^ sub] + 1)
            sub = (sub - 1) & s
    return best[-1]


def search_range(adj: tuple[int, ...]) -> tuple[int, int]:
    """(lower, upper) of the solver's search range for this digraph."""
    n = len(adj)
    full = (1 << n) - 1
    incoming = [sum(1 << i for i in range(n) if adj[i] >> j & 1) for j in range(n)]
    union = tuple(adj[i] | incoming[i] for i in range(n))
    co_two_way = tuple(full & ~(adj[i] & incoming[i]) & ~(1 << i) for i in range(n))
    return alpha(union), chromatic(co_two_way)


def select_round(spec: SolveSpec, seed: int) -> list[tuple[int, int]]:
    """Sub-seeds of the digraphs of one round, in draw order, with their
    oracle minranks."""
    rng = random.Random(seed)
    left = dict(spec.mix)
    chosen = []
    while len(chosen) < spec.per_round:
        sub_seed = rng.getrandbits(63)
        adj = draw_digraph(spec.n, sub_seed)
        bounds = search_range(adj)
        if not any(count and key[:2] == bounds for key, count in left.items()):
            continue
        value = oracle_minrank(adj, spec.p)
        key = bounds + (value,)
        if left.get(key, 0) > 0:
            left[key] -= 1
            chosen.append((sub_seed, value))
    return chosen
