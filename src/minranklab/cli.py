"""Single command-line entry point for solvers, constructions, and sweeps.

Exit codes: 0 success, 1 domain/usage error, 2 budget refusal, 3 a
verification sweep found violations, 4 an internal check failed. Single
results are one JSON document; sweep-style commands emit JSON lines
(manifest first). Identical invocations produce byte-identical payloads up
to the manifest timestamps.

Handlers parse flags and render library results; the library owns the
decisions. `verify lemma --id count` and `--id submatrix` print the reports
their verifier returns, one per (k, ell) pair or rank k.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from typing import Optional

from . import __version__
from .budgets import (
    BudgetExceededError,
    DEFAULT_ENUMERATION_BUDGET,
    DEFAULT_RANK_BUDGET,
    DEFAULT_SOLVER_BUDGET,
    DEFAULT_VERTEX_BUDGET,
)
from .graphs import (
    Digraph,
    Graph,
    GraphParameterError,
    bidirected,
    check_odd_length,
    min_odd_cycle_at_most,
    named_graph,
    underlying_graph,
)
from .graphio import (
    graph_to_graph6,
    read_digraph,
    read_graph6,
    write_digraph,
    write_graph6,
)
from .kneser import (
    KneserParams,
    intersection_polynomial,
    odd_girth_guarantee,
    pattern_polynomial_coefficients,
    rank_bound_report,
    representation_matrix,
)
from .lll import (
    DEFAULT_MAX_EXPONENT,
    check_lll_inequalities,
    find_constants,
    find_threshold,
    gamma_stats,
)
from .matrices import FieldMatrix, format_matrix_text
from .minrank import minrank_exact
from .verifiers import (
    regime_edge_prob,
    estimate_g,
    verify_forest_bound,
    verify_principal_submatrix_decomposition,
    verify_sparse_basis_count,
    verify_sparsity_lower_bound,
)

SEED_ENV = "MINRANKLAB_SEED"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record embedded in every command's output."""

    argv: list
    command: str
    version: str
    seed: Optional[int]
    parameters: dict
    outputs: list
    started_at: str
    finished_at: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _jsonable(obj):
    """A library result as JSON values: a graph as its graph6 string, a
    matrix with its shape and modulus, a dataclass as a dict of its fields."""
    if isinstance(obj, Graph):
        return graph_to_graph6(obj)
    if isinstance(obj, FieldMatrix):
        return {
            "rows": obj.rows,
            "cols": obj.cols,
            "modulus": obj.p,
            "entries": [list(r) for r in obj.entries],
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name)) for f in dataclass_fields(obj)
        }
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _load_graph_arg(text: str):
    """Resolve a --graph/--h value: a built-in name, else a file path. With
    no file there, a built-in family given a bad parameter (C2) keeps its
    own error."""
    try:
        return named_graph(text)
    except ValueError as exc:
        name_error = exc
    if os.path.exists(text):
        return read_digraph(text) if text.endswith(".edges") else read_graph6(text)
    if isinstance(name_error, GraphParameterError):
        raise name_error
    raise ValueError(f"{text!r} is neither a built-in graph name nor a file")


def _load_pattern_arg(text: str) -> Graph:
    """Resolve a pattern flag (--h, --h-graph), which must be undirected."""
    h_graph = _load_graph_arg(text)
    if isinstance(h_graph, Digraph):
        raise ValueError("the pattern graph must be undirected")
    return h_graph


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result-or-lines, violations_found)

def _run_minrank(args):
    g = _load_graph_arg(args.graph)
    return _jsonable(minrank_exact(g, args.field, work_budget=args.budget)), False


def _run_kneser_build(args):
    params = KneserParams(args.d, args.s, args.m)
    if args.check_odd_girth is not None:
        check_odd_length(args.check_odd_girth)
    witness = representation_matrix(
        params,
        check_rank=args.check_rank,
        vertex_budget=args.vertex_budget,
        rank_budget=args.rank_budget,
    )
    graph = witness.graph()
    result = {
        "d": args.d,
        "s": args.s,
        "m": args.m,
        "vertex_count": params.vertex_count,
        "edge_count": graph.edge_count(),
        "rank_bound": params.rank_bound,
        "coefficients": pattern_polynomial_coefficients(params.s, params.m),
        "diagonal": intersection_polynomial(params.s, params.m, params.s),
        "checks": {"structure": True},
    }
    if args.check_rank:
        result["checks"]["rank"] = {
            "value": witness.rank,
            "bound": params.rank_bound,
            "ok": witness.rank <= params.rank_bound,
        }
    if args.check_odd_girth is not None:
        ell = args.check_odd_girth
        found = min_odd_cycle_at_most(graph, ell)
        entry = {"ell": ell, "cycle_found": found, "ok": found is None}
        if args.d % 2 == 0 and args.s * 2 == args.d:
            entry["hypothesis_holds"] = odd_girth_guarantee(args.d, args.m, ell)
        result["checks"]["odd_girth"] = entry
    if args.emit_matrix:
        with open(args.emit_matrix, "w", encoding="ascii") as fh:
            fh.write(format_matrix_text(witness.matrix))
    return result, False


def _run_kneser_plan(args):
    return _jsonable(rank_bound_report(args.ell, args.n)), False


def _run_lll(args):
    if args.max_exponent is not None and not args.find_threshold:
        raise ValueError("--max-exponent is read only with --find-threshold")
    if args.find_threshold and args.max_exponent is None:
        args.max_exponent = DEFAULT_MAX_EXPONENT  # set here, so the manifest records it
    h_graph = _load_pattern_arg(args.h_graph)
    stats = gamma_stats(h_graph)
    inst = find_constants(stats, args.field_size)
    result = {
        "h": stats.h,
        "f": stats.f,
        "gamma": str(stats.gamma),
        "gamma0": str(stats.gamma0),
        "field_size": args.field_size,
        "c1": str(inst.c1),
        "c2": str(inst.c2),
        "c3": str(inst.c3),
        "c4": str(inst.c4),
        "constraint_items": list(inst.constraint_items()),
    }
    if args.find_threshold:
        at_n0, grid = find_threshold(inst, args.max_exponent)
        result["n0"] = None if at_n0 is None else at_n0.n
        result["grid"] = [
            {"n": r.n, "holds": r.holds, "failures": r.failures} for r in grid
        ]
        if at_n0 is not None:
            result["report_at_n0"] = _jsonable(at_n0)
    else:
        result["report"] = _jsonable(check_lll_inequalities(inst, args.n))
    return result, False


# the flags among --n, --n-max, --k, --ell and --h (all default None) that
# each lemma reads
_LEMMA_FLAGS = {
    "sparsity": ("n_max",),
    "count": ("n", "k", "ell"),
    "submatrix": ("n_max", "k"),
    "forest": ("n", "h"),
}


def _run_verify(args):
    unread = [
        "--" + flag.replace("_", "-")
        for flag in ("n", "n_max", "k", "ell", "h")
        if getattr(args, flag) is not None and flag not in _LEMMA_FLAGS[args.id]
    ]
    if unread:
        raise ValueError(f"--id {args.id} does not read {', '.join(unread)}")
    if args.id in ("count", "forest") and args.n is None:
        raise ValueError(f"--n is required for --id {args.id}")
    if args.id == "forest" and args.h is None:
        raise ValueError("--h is required for --id forest")
    if args.id in ("sparsity", "submatrix") and args.n_max is None:
        args.n_max = 3  # set here, so the manifest records the default
    budget = args.enumeration_budget
    if args.id == "sparsity":
        reports = [
            verify_sparsity_lower_bound(args.n_max, args.field, enumeration_budget=budget)
        ]
    elif args.id == "count":
        reports = verify_sparse_basis_count(
            args.n, args.field, args.k, args.ell, enumeration_budget=budget
        )
    elif args.id == "submatrix":
        reports = verify_principal_submatrix_decomposition(
            args.n_max, args.field, args.k, enumeration_budget=budget
        )
    elif args.id == "forest":
        h_graph = _load_pattern_arg(args.h)
        reports = [verify_forest_bound(args.n, h_graph, args.field, graph_budget=budget)]
    else:
        raise ValueError(f"unknown lemma id {args.id!r}")
    lines = [_jsonable(r) for r in reports]
    if args.csv:
        _write_csv(
            args.csv,
            ["lemma", "params", "instances_checked", "violations", "ok"],
            [
                [
                    r.lemma,
                    json.dumps(r.params, sort_keys=True),
                    r.instances_checked,
                    len(r.violations),
                    r.ok,
                ]
                for r in reports
            ],
        )
    return lines, any(not r.ok for r in reports)


def _run_estimate(args):
    h_graph = _load_pattern_arg(args.h)
    seed = _resolve_seed(args.seed)
    edge_prob = args.edge_prob
    if args.regime_edge_prob:
        # arc probability tuned so the rejection rate q = c2 * n^-gamma
        stats = gamma_stats(h_graph)
        inst = find_constants(stats, args.field)
        edge_prob = regime_edge_prob(stats.gamma, inst.c2, args.n)
    estimate = estimate_g(
        args.n,
        h_graph,
        args.field,
        args.samples,
        edge_prob=edge_prob,
        seed=seed,
    )
    line = _jsonable(estimate)
    if args.csv:
        _write_csv(args.csv, list(line.keys()), [list(line.values())])
    return [line], False


def _run_convert(args):
    src, dst = args.infile, args.out
    if src.endswith(".g6"):
        payload: object = read_graph6(src)
    elif src.endswith(".edges"):
        payload = read_digraph(src)
    else:
        raise ValueError(f"unsupported input extension on {src!r} (.g6 or .edges)")
    if dst.endswith(".g6"):
        write_graph6(payload if isinstance(payload, Graph) else underlying_graph(payload), dst)
    elif dst.endswith(".edges"):
        write_digraph(payload if isinstance(payload, Digraph) else bidirected(payload), dst)
    else:
        raise ValueError(f"unsupported output extension on {dst!r} (.g6 or .edges)")
    return {"read": src, "wrote": dst}, False


def _write_csv(path: str, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> _Parser:
    parser = _Parser(prog="minranklab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_minrank = sub.add_parser("minrank")
    mr_sub = p_minrank.add_subparsers(dest="action", required=True)
    p_exact = mr_sub.add_parser("exact")
    p_exact.add_argument("--field", type=int, required=True)
    p_exact.add_argument("--graph", required=True)
    p_exact.add_argument("--budget", type=int, default=DEFAULT_SOLVER_BUDGET)
    p_exact.add_argument("--out")
    p_exact.set_defaults(handler=_run_minrank, style="single")

    p_kneser = sub.add_parser("kneser")
    kn_sub = p_kneser.add_subparsers(dest="action", required=True)
    p_build = kn_sub.add_parser("build")
    p_build.add_argument("--d", type=int, required=True)
    p_build.add_argument("--s", type=int, required=True)
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--check-rank", action="store_true")
    p_build.add_argument("--check-odd-girth", type=int, metavar="L")
    p_build.add_argument("--emit-matrix", metavar="PATH")
    p_build.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)
    p_build.add_argument("--rank-budget", type=int, default=DEFAULT_RANK_BUDGET)
    p_build.add_argument("--out")
    p_build.set_defaults(handler=_run_kneser_build, style="single")
    p_plan = kn_sub.add_parser("plan")
    p_plan.add_argument("--ell", type=int, required=True)
    p_plan.add_argument("--n", type=int, required=True)
    p_plan.add_argument("--out")
    p_plan.set_defaults(handler=_run_kneser_plan, style="single")

    p_lll = sub.add_parser("lll")
    lll_sub = p_lll.add_subparsers(dest="action", required=True)
    p_analyze = lll_sub.add_parser("analyze")
    p_analyze.add_argument("--h-graph", required=True)
    p_analyze.add_argument("--field-size", type=int, required=True)
    mode = p_analyze.add_mutually_exclusive_group(required=True)
    mode.add_argument("--n", type=int)
    mode.add_argument("--find-threshold", action="store_true")
    p_analyze.add_argument("--max-exponent", type=int)
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(handler=_run_lll, style="single")

    p_verify = sub.add_parser("verify")
    vf_sub = p_verify.add_subparsers(dest="action", required=True)
    p_lemma = vf_sub.add_parser("lemma")
    p_lemma.add_argument("--id", required=True,
                         choices=["sparsity", "count", "submatrix", "forest"])
    p_lemma.add_argument("--n", type=int)
    p_lemma.add_argument("--n-max", type=int)
    p_lemma.add_argument("--k", type=int)
    p_lemma.add_argument("--ell", type=int)
    p_lemma.add_argument("--field", type=int, default=2)
    p_lemma.add_argument("--h")
    p_lemma.add_argument(
        "--enumeration-budget", type=int, default=DEFAULT_ENUMERATION_BUDGET
    )
    p_lemma.add_argument("--csv")
    p_lemma.add_argument("--out")
    p_lemma.set_defaults(handler=_run_verify, style="lines")

    p_exp = sub.add_parser("experiment")
    exp_sub = p_exp.add_subparsers(dest="action", required=True)
    p_gest = exp_sub.add_parser("g-estimate")
    p_gest.add_argument("--n", type=int, required=True)
    p_gest.add_argument("--h", required=True)
    p_gest.add_argument("--field", type=int, required=True)
    p_gest.add_argument("--samples", type=int, required=True)
    p_gest.add_argument("--seed", type=int)
    arc_prob = p_gest.add_mutually_exclusive_group()
    arc_prob.add_argument("--edge-prob", type=float, default=0.5)
    arc_prob.add_argument("--regime-edge-prob", action="store_true")
    p_gest.add_argument("--csv")
    p_gest.add_argument("--out")
    p_gest.set_defaults(handler=_run_estimate, style="lines")

    p_convert = sub.add_parser("convert")
    p_convert.add_argument("--in", dest="infile", required=True)
    p_convert.add_argument("--out", required=True)
    p_convert.set_defaults(handler=_run_convert, style="single")

    return parser


def _manifest(argv: list, args, started: float, outputs: list) -> RunManifest:
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in {"handler", "style", "command", "action"} and v is not None
    }
    seed = getattr(args, "seed", None)
    return RunManifest(
        argv=argv,
        command=" ".join(argv),
        version=__version__,
        seed=_resolve_seed(seed) if hasattr(args, "seed") else None,
        parameters={k: _jsonable(v) for k, v in params.items()},
        outputs=outputs,
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        finished_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    started = time.time()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result, violations = args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a failed internal check, never bad input
        message = str(exc).removeprefix("internal error: ")
        print(f"internal error: {message}", file=sys.stderr)
        return 4
    outputs = [
        path
        for path in (
            getattr(args, "out", None),
            getattr(args, "emit_matrix", None),
            getattr(args, "csv", None),
        )
        if path
    ]
    manifest = _manifest(argv, args, started, outputs)
    if args.style == "single":
        text = json.dumps(
            {"manifest": _jsonable(manifest), "result": result}, sort_keys=True, indent=2
        ) + "\n"
    else:
        lines = [json.dumps({"manifest": _jsonable(manifest)}, sort_keys=True)]
        lines.extend(json.dumps(line, sort_keys=True) for line in result)
        text = "\n".join(lines) + "\n"
    out_path = getattr(args, "out", None)
    if out_path and args.handler is not _run_convert:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
