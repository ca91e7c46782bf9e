"""Span tracing of the altitude modules from outside the program.

``Tracer.installed()`` replaces every public function of each module under
``altitude`` -- and every name another module bound to it at import, such
as ``adversary.longest_increasing_path`` or ``cli.exact_f`` -- with a
wrapper that records a span: name, layer, start, end, parent, thread id and
the thread's CPU time.  The campaign row functions are wrapped as well, so
the rows' pool waiting is visible.  Spans stay in memory until the caller
writes them out; leaving the context restores the original functions.

A span started on a pool thread has no parent on its own thread; its
parent is the innermost open span of the installing thread, which is
blocked in the pool call that started it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("graphs", "orderings", "paths", "pedestrian", "density", "exactf", "bounds",
          "adversary", "experiments", "cli")
PRIVATE = {"experiments": ("_gnp_row", "_hypercube_row")}
ROW_SPANS = tuple(f"experiments.{name}" for name in PRIVATE["experiments"])


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    thread: int
    item: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    nodes: int | None = None
    exact: bool | None = None
    steps: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: int | None = None  # the harness's current item, shared by its spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            top = stack[-1] if stack else (self._root[-1] if self._root else None)
            span = Span(next(self._ids), name, layer, top.sid if top else None,
                        threading.get_ident(), self.item, 0.0)
            self.spans.append(span)
            stack.append(span)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
            if hasattr(out, "explored") and hasattr(out, "exact"):
                span.nodes, span.exact = out.explored, out.exact
            elif hasattr(out, "iterations"):
                span.steps, span.exact = out.iterations, out.verified
            return out

        return traced

    @contextmanager
    def installed(self):
        modules = [importlib.import_module(f"altitude.{layer}") for layer in LAYERS]
        modules.append(importlib.import_module("altitude"))
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if own and (not name.startswith("_") or name in PRIVATE.get(layer, ())):
                    wrappers[obj] = self._wrap(obj, layer)
        patched = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        self._root = self._stack()
        try:
            yield self
        finally:
            for mod, name, obj in patched:
                setattr(mod, name, obj)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.end - s.start - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy time, counts and ratios for the spans of one pass."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    busy = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        busy[s.layer] += own[s.sid]

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def finished(name: str) -> list[Span]:  # calls that returned a result
        return [s for s in named(name) if s.nodes is not None or s.steps is not None]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    psi = finished("paths.longest_increasing_path")
    psi_nodes = sum(s.nodes for s in psi)
    zeta = finished("density.zeta_exact")
    exact_f = finished("exactf.exact_f")
    f_nodes = sum(s.nodes for s in exact_f)
    checks = [s for s in psi if s.parent and by_id[s.parent].layer == "adversary"]
    rows = [s for s in spans if s.name in ROW_SPANS]
    out = {f"{layer}.busy_ms": busy[layer] * 1000 for layer in LAYERS}
    out.update({
        "orderings.calls": sum(s.layer == "orderings" for s in spans),
        "paths.psi_calls": len(psi),
        "paths.nodes": psi_nodes,
        "paths.budget_hits": sum(not s.exact for s in psi),
        "paths.nodes_per_s": ratio(psi_nodes, sum(s.end - s.start for s in psi)),
        "paths.shortcut_share": ratio(sum(s.nodes == 0 for s in psi), len(psi)),
        "density.calls": len(zeta),
        "density.nodes": sum(s.nodes for s in zeta),
        "density.budget_hits": sum(not s.exact for s in zeta),
        "exactf.nodes": f_nodes,
        "exactf.nodes_per_s": ratio(f_nodes, sum(own[s.sid] for s in exact_f)),
        "exactf.budget_hits": sum(not s.exact for s in exact_f),
        "exactf.orbits_ms": 1000 * sum(s.end - s.start for s in named("exactf.edge_orbits")),
        "adversary.steps": sum(s.steps for s in finished("adversary.local_search_min_psi")),
        "adversary.verified_share": ratio(sum(s.exact for s in checks), len(checks)),
        "experiments.rows": len(rows),
        "experiments.wait_ms": 1000 * sum(s.end - s.start - s.cpu for s in rows),
    })
    return out


COUNTERS = ("orderings.calls", "paths.psi_calls", "paths.nodes", "paths.budget_hits",
            "paths.shortcut_share", "density.calls", "density.nodes", "density.budget_hits",
            "exactf.nodes", "exactf.budget_hits", "adversary.steps", "adversary.verified_share",
            "experiments.rows")


def dump(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
