"""Benchmark-side layer tracer.

The traced run wraps public entry points of each ``repro`` layer in
timers owned by this file; nothing under ``src/`` changes.  Every
wrapper records a span (name, duration, the span that was open when it
started) and adds its duration to that parent's child time, so a
layer's *self* time is its span minus the spans it caused.  Spans are
aggregated in memory as they close - per name and per (parent, name)
edge - and written out once when the benchmark ends.

A name that is already open on the stack passes straight through
(``best_alpha`` calling ``best_alpha_constrained``, a scheduler
subclass calling ``super().execute``), so inclusive totals never count
the same interval twice.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


class Tracer:
    """Span stack plus per-layer aggregates and work counters."""

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []   # open spans: [name, child_s]
        self._open: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop the aggregates in place (open spans stay open)."""
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0])
        # Cleared, not rebound: install()'s counter hooks hold it.
        if hasattr(self, "counts"):
            self.counts.clear()
        else:
            self.counts: Dict[str, float] = defaultdict(float)

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             on_exit: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_exit(args, kwargs,
        result)`` runs after each outermost call to update counters."""
        stack, open_names = self._stack, self._open

        def traced(*args, **kwargs):
            if open_names[name]:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            open_names[name] += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                open_names[name] -= 1
                stack.pop()
                self._close(name, elapsed, frame[1])
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _close(self, name: str, elapsed: float, child_s: float) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += elapsed
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child_s
        edge = self.edges[(parent[0] if parent else "", name)]
        edge[0] += 1
        edge[1] += elapsed

    def span(self, name: str) -> "_Span":
        """Context-manager span for the benchmark's own code."""
        return _Span(self, name)

    # -- patching --------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str,
              on_exit: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with its traced twin until
        :meth:`uninstall`.  A missing target is recorded, not fatal:
        the layer then reads zero and :attr:`missing` names it."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, on_exit))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- cross-process merge ---------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the aggregates (a forked child's share) to ``path``."""
        payload = {
            "calls": self.calls, "total_s": self.total_s,
            "self_s": self.self_s, "counts": self.counts,
            "edges": [[p, n, c, s] for (p, n), (c, s) in self.edges.items()],
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)

    def merge_file(self, path: str) -> None:
        with open(path) as fh:
            payload = json.load(fh)
        for key in ("calls", "total_s", "self_s", "counts"):
            target = getattr(self, key)
            for name, value in payload[key].items():
                target[name] += value
        for parent, name, calls, seconds in payload["edges"]:
            edge = self.edges[(parent, name)]
            edge[0] += calls
            edge[1] += seconds

    def tree(self) -> List[Dict[str, Any]]:
        """The (parent, child) span edges, heaviest first."""
        return [{"parent": p, "span": n, "calls": int(c), "s": s}
                for (p, n), (c, s) in sorted(self.edges.items(),
                                             key=lambda kv: -kv[1][1])]


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._frame = [name, 0.0]

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self._frame)
        self._tracer._open[self._frame[0]] += 1
        self._start = _perf()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = _perf() - self._start
        tracer = self._tracer
        tracer._open[self._frame[0]] -= 1
        tracer._stack.pop()
        tracer._close(self._frame[0], elapsed, self._frame[1])


# -- the layer map ---------------------------------------------------------------

def install(tracer: Tracer, child_dir: Optional[str] = None) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    ``child_dir``: where forked service children write their share of
    the aggregates (their spans would otherwise die with them).
    """
    from repro.core import baselines, optimizer, scheduler
    from repro.fleet import dispatcher, policies
    from repro.harness import engine
    from repro.runtime import runtime
    from repro.service import daemon, store
    from repro.soc import simulator

    counts = tracer.counts

    def after_phase(args, kwargs, result):
        processor = args[0]
        counts["soc.phases"] += 1
        counts["soc.ticks"] += processor._last_phase_ticks
        counts["soc.macro_steps"] += processor._last_phase_macro_steps
        counts["soc.phase_replays"] += int(processor._last_phase_replayed)

    proc = simulator.IntegratedProcessor
    tracer.patch(proc, "run_phase", "soc.run_phase", after_phase)
    tracer.patch(proc, "idle", "soc.idle")
    tracer.patch(runtime.ConcordRuntime, "parallel_for",
                 "runtime.parallel_for")

    def after_eas(args, kwargs, record):
        # Every exit path of execute() appends exactly one decision.
        decisions = args[0].decisions
        counts["core.eas.profiling_rounds"] += record.profile_rounds
        counts["core.eas.table_hits"] += int(
            bool(decisions) and decisions[-1].table_hit)

    tracer.patch(scheduler.EnergyAwareScheduler, "execute",
                 "core.eas.execute", after_eas)
    for cls in (baselines.CpuOnlyScheduler, baselines.GpuOnlyScheduler,
                baselines.StaticAlphaScheduler,
                baselines.ProfiledPerfScheduler,
                baselines.RaceToIdleScheduler):
        tracer.patch(cls, "execute", "core.baselines")
    for attr in ("best_alpha", "best_alpha_constrained"):
        tracer.patch(optimizer.AlphaOptimizer, attr, "core.optimizer")

    def after_batch(args, kwargs, result):
        counts["harness.engine.tasks"] += len(result)

    def after_get(args, kwargs, result):
        counts["harness.cache.get.hits"] += int(result is not None)

    tracer.patch(engine.ExecutionEngine, "run_batch",
                 "harness.engine.run_batch", after_batch)
    tracer.patch(engine.ResultCache, "get", "harness.cache.get", after_get)
    tracer.patch(engine.ResultCache, "put", "harness.cache.put")

    def after_least_loaded(args, kwargs, result):
        # backlog_s itself is not wrapped (millions of calls); the
        # scan length is the work count.
        counts["fleet.node_scans"] += len(args[1])

    tracer.patch(policies.FleetView, "least_loaded", "fleet.least_loaded",
                 after_least_loaded)
    for cls in policies.PlacementPolicy.__subclasses__():
        if "place" in cls.__dict__:
            tracer.patch(cls, "place", "fleet.place")
    tracer.patch(dispatcher, "trace_columns", "fleet.trace")
    tracer.patch(dispatcher, "dispatch_stream", "fleet.dispatch")

    for attr, value in list(vars(store.DurableStore).items()):
        if inspect.isfunction(value) and not attr.startswith("_"):
            name = attr if attr in STORE_OPS else "other"
            tracer.patch(store.DurableStore, attr, f"service.store.{name}")
    tracer.patch(daemon.SchedulerService, "submit", "service.submit")
    tracer.patch(daemon.SchedulerService, "run_until_idle", "service.drain")
    if child_dir is not None:
        for attr in ("_child_execute_warm", "_child_execute_cold"):
            _patch_child_entry(tracer, daemon, attr, child_dir)


#: DurableStore operations timed on service-mixed.
STORE_OPS = ("submit_job", "claim_next", "mark_running", "complete_job",
             "load_table_rows", "load_characterization")


def _patch_child_entry(tracer: Tracer, module: Any, attr: str,
                       child_dir: str) -> None:
    """Service children run forked: reset the inherited aggregates on
    entry and dump the child's own share on the way out."""
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return

    def child_entry(*args, **kwargs):
        tracer.reset()
        try:
            return original(*args, **kwargs)
        finally:
            tracer.dump(os.path.join(child_dir, f"child-{os.getpid()}.json"))

    child_entry.__name__ = attr
    setattr(module, attr, child_entry)
    tracer._patches.append((module, attr, original))


def merge_children(tracer: Tracer, child_dir: str) -> int:
    """Fold every child dump into ``tracer``; returns how many."""
    merged = 0
    for entry in sorted(os.listdir(child_dir)):
        if entry.endswith(".json"):
            path = os.path.join(child_dir, entry)
            tracer.merge_file(path)
            os.remove(path)
            merged += 1
    return merged
