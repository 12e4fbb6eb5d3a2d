"""Span tracing from outside the program: timing wrappers on layer entries.

:class:`Tracer` wraps each timed function and rebinds the wrapper wherever
callers look the name up: every loaded ``repro`` module whose attribute
*is* the original function (``from x import f`` binds at import time), or
the class for a method. Each call records a span — run id, span id, parent
span id, name, thread, start, end, self time — in memory; a per-thread
parent stack keeps the serve solver thread's spans apart from the request
path. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: Timed entries: ``(span name, module, attribute path)``. Span names use
#: the layer (module) names the benchmark reports under.
TIMED = (
    ("core.online.solve_window", "repro.core.online.base", "solve_window"),
    ("core.offline.OfflineOptimal.solve", "repro.core.offline", "OfflineOptimal.solve"),
    ("core.polish.polish_caching", "repro.core.polish", "polish_caching"),
    ("core.primal_dual.solve_primal_dual", "repro.core.primal_dual", "solve_primal_dual"),
    ("core.caching_lp.solve_caching", "repro.core.caching_lp", "solve_caching"),
    ("core.capped.capped_cancel_stack", "repro.core.capped", "capped_cancel_stack"),
    ("core.load_balancing.solve_p2", "repro.core.load_balancing", "solve_p2"),
    ("core.load_balancing.solve_y_given_x", "repro.core.load_balancing", "solve_y_given_x"),
    ("optim.waterfill.waterfill_batch", "repro.optim.waterfill", "waterfill_batch"),
    ("optim.fista.minimize_fista", "repro.optim.fista", "minimize_fista"),
    ("network.costs.total_cost", "repro.network.costs", "total_cost"),
    ("sim.engine.evaluate_plan", "repro.sim.engine", "evaluate_plan"),
    ("serve.routing.select_server", "repro.serve.routing", "OptimalYStrategy.select_server"),
)


@dataclasses.dataclass(frozen=True)
class Span:
    run: str
    sid: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    #: False when a same-name span encloses this one (recursion), so
    #: inclusive time is not counted twice.
    outermost: bool


class _Frame:
    __slots__ = ("sid", "name", "start", "child")

    def __init__(self, sid: int, name: str, start: float) -> None:
        self.sid = sid
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Records spans around the :data:`TIMED` entries while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        #: Per-name hook called with each call's return value.
        self.on_result: dict[str, Callable[[Any], None]] = {}

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        hooks = self.on_result

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = _Frame(next(self._ids), name, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].child += duration
                self.spans.append(
                    Span(
                        self.run_id,
                        frame.sid,
                        stack[-1].sid if stack else None,
                        name,
                        threading.get_ident(),
                        frame.start,
                        end,
                        duration - frame.child,
                        all(f.name != name for f in stack),
                    )
                )
            hook = hooks.get(name)
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every :data:`TIMED` entry to its traced wrapper."""
        for name, module_name, attr in TIMED:
            owner: Any = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original)
            if path:  # a method: the class is where callers look it up
                self._patch(owner, leaf, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") and (
                    getattr(module, leaf, None) is original
                ):
                    self._patch(module, leaf, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def layer_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += s.self_s
        if s.outermost:
            row["s"] += s.end - s.start
    return out


def covered_seconds(spans: Iterable[Span]) -> float:
    """Wall time covered by root spans on any thread (union of intervals)."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent is None)
    total = 0.0
    lo = hi = None
    for start, end in intervals:
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total
