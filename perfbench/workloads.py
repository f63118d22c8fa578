"""The benchmark's workloads: inputs, one round of operations, output checks.

`prepare` chooses the inputs from the seed, once per run and untimed.
`setup` makes them, and their files, for the freshly imported program `ml`;
the run times it. `operations` returns one round as zero-argument callables that look
the program's functions up at call time, so a tracer installed afterwards
sees every call. `check` takes one round's results (None for an operation
that raised) and returns the problems found by the independent checks.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import checks
from inputs import SOLVE_SPECS, draw_digraph, select_round
from oracle import load_values


def edge_text(adj: tuple[int, ...]) -> str:
    """A digraph in minranklab's `.edges` format: `n m`, then `u v` per arc."""
    n = len(adj)
    arcs = [(u, v) for u in range(n) for v in range(n) if adj[u] >> v & 1]
    return "".join([f"{n} {len(arcs)}\n"] + [f"{u} {v}\n" for u, v in arcs])


class Solve:
    """minrank_exact under the default budget, jobs=1, on seeded digraphs
    read back from `.edges` files."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.spec = SOLVE_SPECS[name]

    def prepare(self, seed: int) -> None:
        self.seed = seed
        selected = select_round(self.spec, seed)
        self.sub_seeds = [sub_seed for sub_seed, _ in selected]
        self.oracle = [value for _, value in selected]

    def setup(self, ml, workdir) -> None:
        self.adjs = [draw_digraph(self.spec.n, s) for s in self.sub_seeds]
        self.graphs = []
        for i, adj in enumerate(self.adjs):
            path = workdir / f"{i:03d}.edges"
            path.write_text(edge_text(adj), encoding="ascii")
            self.graphs.append(ml.graphio.digraph_from_edge_text(path.read_text(encoding="ascii")))

    def operations(self, ml) -> list:
        p = self.spec.p
        return [lambda g=g: ml.minrank.minrank_exact(g, p, jobs=1) for g in self.graphs]

    def check(self, results: list) -> list[str]:
        p = self.spec.p
        stored = load_values().get(self.name, {}).get(str(self.seed))
        problems = []
        if stored is not None and stored != self.oracle:
            problems.append("oracle values differ from oracle_values.json")
        for i, (adj, res) in enumerate(zip(self.adjs, results)):
            if res is not None:
                found = checks.check_solve(adj, p, res.value, res.witness.entries, self.oracle[i])
                problems.extend(f"digraph {i}: {x}" for x in found)
        return problems


class Extremal:
    """exhaustive_g(6, K3, 2): the paper's triangle case at n=6."""

    N, P = 6, 2

    def prepare(self, seed: int) -> None:
        self.reference = None

    def setup(self, ml, workdir) -> None:
        self.h = ml.graphs.complete_graph(3)

    def operations(self, ml) -> list:
        return [lambda: ml.verifiers.exhaustive_g(self.N, self.h, self.P)]

    def check(self, results: list) -> list[str]:
        if self.reference is None:
            self.reference = checks.triangle_free_complement_classes(self.N)
        problems = []
        for r in results:
            if r is not None:
                problems.extend(checks.check_extremal(
                    r.value, r.witness.adj, r.graphs_checked, r.accepted,
                    r.evaluated, self.reference, self.P))
        return problems


KNESER_RUNS = (
    {"d": 12, "s": 6, "m": 2, "odd_girth": 3},
    {"d": 10, "s": 5, "m": 2, "rank": True},
    {"d": 10, "s": 5, "m": 1, "rank": True},
)


def kneser_argv(run: dict) -> list[str]:
    argv = ["kneser", "build", "--d", str(run["d"]), "--s", str(run["s"]), "--m", str(run["m"])]
    if "odd_girth" in run:
        argv += ["--check-odd-girth", str(run["odd_girth"])]
    if run.get("rank"):
        argv.append("--check-rank")
    return argv


class Kneser:
    """In-process `minranklab kneser build` runs, stdout captured."""

    def prepare(self, seed: int) -> None:
        self.expected_rank: dict = {}

    def setup(self, ml, workdir) -> None:
        pass

    def operations(self, ml) -> list:
        def cli(argv):
            out = io.StringIO()
            with redirect_stdout(out):
                code = ml.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"minranklab {' '.join(argv)} exited {code}")
            return out.getvalue()

        return [lambda argv=kneser_argv(run): cli(argv) for run in KNESER_RUNS]

    def check(self, results: list) -> list[str]:
        problems = []
        for run, text in zip(KNESER_RUNS, results):
            if text is None:
                continue
            key = (run["d"], run["s"], run["m"])
            expected = None
            if run.get("rank"):
                if key not in self.expected_rank:
                    self.expected_rank[key] = checks.kneser_rank_mod_p(*key)
                expected = self.expected_rank[key]
            found = checks.check_kneser(run, json.loads(text)["result"], expected)
            problems.extend(f"K{key}: {x}" for x in found)
        return problems


class Census:
    """basis_weight_census(4, 2): every 4x4 matrix over GF(2)."""

    N, P = 4, 2

    def prepare(self, seed: int) -> None:
        pass

    def setup(self, ml, workdir) -> None:
        pass

    def operations(self, ml) -> list:
        return [lambda: ml.verifiers.basis_weight_census(self.N, self.P, jobs=1)]

    def check(self, results: list) -> list[str]:
        problems = []
        for counts in results:
            if counts is not None:
                problems.extend(checks.check_census(self.N, self.P, counts))
        return problems


def make(name: str):
    if name in SOLVE_SPECS:
        return Solve(name)
    return {"extremal": Extremal, "kneser": Kneser, "census": Census}[name]()


NAMES = tuple(sorted(SOLVE_SPECS)) + ("extremal", "kneser", "census")
