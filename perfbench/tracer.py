"""Span tracing of minranklab from outside: wrappers on its public functions.

Every public module-level function of the traced modules is replaced by a
wrapper, both in its own module and under every name by which another
minranklab module imported it (`minrank` looks `gf2_rank` up in its own
globals, so a wrapper on `matrices.gf2_rank` alone would miss its calls).
`Graph.__post_init__` (validated constructions, reported as `graphs.Graph`)
and `FieldMatrix.rank` are wrapped on their classes.

A wrapper records a span (id, name, start, end, parent id) and adds the
span's duration minus its children's to the name's self time. Counts and
self times cover every call; the first SPAN_LIMIT spans are kept in memory
and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

PACKAGE = "minranklab"
SPAN_LIMIT = 20_000
MODULES = ("graphs", "matrices", "minrank", "verifiers", "kneser", "cli", "lll", "graphio")
METHODS = (("graphs", "Graph", "__post_init__", "graphs.Graph"),
           ("matrices", "FieldMatrix", "rank", "matrices.FieldMatrix.rank"))


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        calls, self_ns, spans, stack = self.calls, self.self_ns, self.spans, self._stack
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_LIMIT:
                    spans.append((span_id, name, start, end, parent))

        return traced

    def install(self) -> None:
        """Wrap the package's public functions wherever they are looked up."""
        traced = [importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES]
        mods = {k: v for k, v in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")}
        wrapped = {}
        for short, mod in zip(MODULES, traced):
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        for short, cls_name, method, name in METHODS:
            cls = getattr(mods[f"{PACKAGE}.{short}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
