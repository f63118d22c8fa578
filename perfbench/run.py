"""Benchmark of minranklab, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
The run chooses its inputs from the seed, sets up SETUPS times (a fresh
import of minranklab, the inputs and their files), repeats whole rounds of
the workload's operations until S seconds have passed, and then checks
every round's outputs independently.
With --trace 0 it reports the end-to-end metrics: the median set-up CPU
time, the median round wall and CPU time, and the process's peak memory.
With --trace 1 it runs one untraced round and one traced round instead and
reports the per-layer calls and self times plus the tracing overhead. The
last line of stdout is the result as JSON; problems go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 7
PROGRAM_MODULES = ("graphs", "graphio", "minrank", "verifiers", "cli")  # used by the rounds

PER_LAYER = (
    "graphs.is_isomorphic.calls", "graphs.is_isomorphic.self_s",
    "graphs.contains_subgraph.calls", "graphs.contains_subgraph.self_s",
    "graphs.Graph.calls",
    "graphs.chromatic_number.calls", "graphs.chromatic_number.self_s",
    "graphs.independence_number.self_s",
    "graphs.min_odd_cycle_at_most.self_s",
    "matrices.gf2_rank.calls", "matrices.gf2_rank.self_s",
    "matrices.mod_rank.calls", "matrices.mod_rank.self_s",
    "matrices.mod_nullspace.calls",
    "matrices.bareiss_rank.self_s",
    "matrices.min_column_basis_weight.calls", "matrices.min_column_basis_weight.self_s",
    "matrices.FieldMatrix.rank.calls",
    "minrank.minrank_exact.calls", "minrank.minrank_exact.self_s",
    "minrank.minrank_bounds.self_s",
    "verifiers.exhaustive_g.self_s",
    "verifiers.basis_weight_census.self_s",
    "kneser.representation_matrix.self_s",
    "kneser.kneser_graph.self_s",
    "cli.main.self_s",
)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def import_program() -> SimpleNamespace:
    """Import minranklab afresh, with mpmath, which it loads at import."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("minranklab", "mpmath"):
            del sys.modules[name]
    return SimpleNamespace(**{
        short: importlib.import_module(f"minranklab.{short}") for short in PROGRAM_MODULES
    })


def run_round(ops: list) -> dict:
    results, failed = [], 0
    wall, cpu = time.perf_counter(), cpu_seconds()
    for op in ops:
        try:
            results.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"operation failed: {exc!r}", file=sys.stderr)
            results.append(None)
            failed += 1
    return {"results": results, "failed": failed,
            "wall_s": time.perf_counter() - wall, "cpu_s": cpu_seconds() - cpu}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "minranklab" / "__init__.py").is_file():
        print(f"no minranklab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    work = workloads.make(args.workload)
    work.prepare(args.seed)
    setup_s = []
    for _ in range(SETUPS):
        start = cpu_seconds()
        ml = import_program()
        work.setup(ml, workdir)
        setup_s.append(cpu_seconds() - start)
        gc.collect()  # the replaced modules, so that no round pays for them
    ops = work.operations(ml)

    tracer = None
    if args.trace:
        rounds = [run_round(ops)]
        tracer = Tracer()
        tracer.install()
        try:
            rounds.append(run_round(ops))
        finally:
            tracer.uninstall()
    else:
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(ops))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [p for r in rounds for p in work.check(r["results"])]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = tracer.metrics()
        metrics = {name: (layers.get(name, 0), "count" if name.endswith(".calls") else "s")
                   for name in PER_LAYER}
        metrics["trace_overhead_s"] = (rounds[1]["cpu_s"] - rounds[0]["cpu_s"], "s")
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    result = {
        "correct": not problems,
        "attempted": sum(len(r["results"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
