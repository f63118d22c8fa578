"""Independent minrank oracle for the solve workloads, sharing no code with minranklab.

The search fixes one matrix row per vertex, in order of fewest choices. A
row of vertex v has a 1 on the diagonal (row scaling keeps rank and zero
pattern) and any value of GF(p) at v's out-arcs. The rows chosen so far are
kept as a reduced echelon basis; a branch is cut as soon as that basis would
exceed rank k, and a (depth, basis) state that failed once is not searched
again. minrank is the least k for which the search succeeds, starting from
the largest induced acyclic subgraph, which is a lower bound.

Run as a script, it recomputes the values of the solve workloads' inputs
for the given seeds and stores them in `oracle_values.json`, which keeps
those of the default seeds 0-9:

    python3 perfbench/oracle.py 0 1 2 3 4 5 6 7 8 9
"""

from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
VALUES_PATH = HERE / "oracle_values.json"


def max_acyclic_induced(adj: tuple[int, ...]) -> int:
    """Size of a largest vertex set inducing an acyclic subdigraph (brute force)."""
    n = len(adj)
    best = 0
    for s in range(1 << n):
        size = s.bit_count()
        if size <= best:
            continue
        left = s  # peel sources until none is left or a cycle blocks
        while left:
            source = next(
                (v for v in range(n) if left >> v & 1 and not any(
                    adj[u] >> v & 1 for u in range(n) if left >> u & 1
                )),
                None,
            )
            if source is None:
                break
            left &= ~(1 << source)
        if not left:
            best = size
    return best


def _row_choices(adj: tuple[int, ...], p: int, v: int) -> list[tuple[int, ...]]:
    n = len(adj)
    arcs = [j for j in range(n) if adj[v] >> j & 1]
    out = []
    for values in product(range(p), repeat=len(arcs)):
        row = [0] * n
        row[v] = 1
        for j, x in zip(arcs, values):
            row[j] = x
        out.append(tuple(row))
    return out


def _reduce(vec, basis, p):
    """Residue of vec against a reduced echelon basis of (pivot, row) pairs."""
    for piv, row in basis:
        c = vec[piv]
        if c:
            vec = tuple((x - c * y) % p for x, y in zip(vec, row))
    return vec


def _extend(basis, residue, p):
    """Basis plus a nonzero residue, kept fully reduced and sorted by pivot."""
    piv = next(j for j, x in enumerate(residue) if x)
    inv = pow(residue[piv], p - 2, p)
    new = tuple(x * inv % p for x in residue)
    rows = []
    for q, row in basis:
        c = row[piv]
        if c:
            row = tuple((x - c * y) % p for x, y in zip(row, new))
        rows.append((q, row))
    rows.append((piv, new))
    return tuple(sorted(rows))


def representable(adj: tuple[int, ...], p: int, k: int) -> bool:
    """True iff some matrix of rank <= k fits the digraph over GF(p)."""
    n = len(adj)
    choices = [_row_choices(adj, p, v) for v in range(n)]
    order = sorted(range(n), key=lambda v: len(choices[v]))
    failed: set = set()

    def search(depth: int, basis) -> bool:
        if depth == n:
            return True
        if (depth, basis) in failed:
            return False
        for row in choices[order[depth]]:
            residue = _reduce(row, basis, p)
            if any(residue):
                if len(basis) == k:
                    continue
                if search(depth + 1, _extend(basis, residue, p)):
                    return True
            elif search(depth + 1, basis):
                return True
        failed.add((depth, basis))
        return False

    return search(0, ())


def oracle_minrank(adj: tuple[int, ...], p: int) -> int:
    k = max_acyclic_induced(adj)
    while not representable(adj, p, k):
        k += 1
    return k


def load_values() -> dict:
    if not VALUES_PATH.exists():
        return {}
    with open(VALUES_PATH, encoding="ascii") as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    from inputs import SOLVE_SPECS, select_round  # inputs selects with this oracle

    if not argv or not all(a.isdigit() for a in argv):
        print("usage: python3 perfbench/oracle.py SEED [SEED ...]", file=sys.stderr)
        return 2
    values = load_values()
    values["command"] = "python3 perfbench/oracle.py SEED [SEED ...]"
    for name, spec in sorted(SOLVE_SPECS.items()):
        per_seed = values.setdefault(name, {})
        for seed in argv:
            per_seed[seed] = [value for _, value in select_round(spec, int(seed))]
    with open(VALUES_PATH, "w", encoding="ascii") as fh:
        json.dump(values, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
