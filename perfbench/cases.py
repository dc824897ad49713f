"""The benchmark's four workloads.

Each case does its set-up once (timed into ``setup_s``, stage by
stage), then exposes one *operation* - the unit a user waits for - as
``op(i)``: the i-th operation of the stream the benchmark seed
defines.  ``op`` times only the call into ``repro``'s public API and
checks the call's outputs afterwards, outside the timed region.

``traced(tracer)`` runs a fixed amount of work (the first few
operations of the same stream) once untraced and once under the layer
tracer, so the per-layer counts repeat exactly for a given seed and
the difference between the two walls is the tracing overhead.

See README.md in this directory for why each workload exists and which
layer metric should move which end-to-end metric on it.
"""

from __future__ import annotations

import contextlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from layers import Tracer, install, merge_children

_perf = time.perf_counter

PAPER_EDP_PCT = {"desktop": 96.2, "tablet": 93.2}
#: Seed of the pinned canary input of the seeded workloads.
CANARY_SEED = 2016


@dataclass
class OpResult:
    """One operation: work items done, host wall, failed checks."""

    items: int
    wall_s: float
    problems: List[str] = field(default_factory=list)
    #: perf_counter() when the timed call began.
    started: float = 0.0
    #: Work counters a traced operation added (see _paired).
    counts: Dict[str, float] = field(default_factory=dict)


class Context:
    """Run-wide state: seed, scratch dir, set-up stages and the pins."""

    def __init__(self, seed: int, work_dir: str,
                 pins: Dict[str, object]) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.pins = pins
        self.stages: Dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        start = _perf()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + _perf() - start

    def check(self, key: str, value: object) -> List[str]:
        """Compare ``value`` with its pin."""
        if key not in self.pins:
            return [f"no pin for {key}"]
        if self.pins[key] != value:
            return [f"{key}: got {value!r}, pinned {self.pins[key]!r}"]
        return []

    def path(self, *parts: str) -> str:
        path = os.path.join(self.work_dir, *parts)
        os.makedirs(path, exist_ok=True)
        return path


def _characterize(ctx: Context, specs) -> Dict[str, str]:
    """Fresh characterizations (the run's cache dir starts empty)."""
    from repro.harness.suite import get_characterization

    texts = {}
    for spec in specs:
        with ctx.stage("core.characterize"):
            texts[spec.name] = get_characterization(spec).to_json()
    return texts


def _build(ctx: Context, pairs) -> None:
    """First kernel build of every (workload, tablet) the run uses;
    the graph workloads memoize their inputs per process."""
    from repro.workloads.registry import workload_by_abbrev

    with ctx.stage("workloads.build"):
        for abbrev, tablet in pairs:
            workload = workload_by_abbrev(abbrev)
            workload.make_kernel(tablet=tablet)
            workload.invocations(tablet=tablet)


def _traced_op(tracer: Tracer, op: Callable[[], object],
               child_dir: Optional[str] = None):
    """``op()`` under the layer wrappers, as one ``bench.op`` span."""
    install(tracer, child_dir)
    try:
        with tracer.span("bench.op"):
            result = op()
    finally:
        tracer.uninstall()
    if child_dir is not None:
        tracer.counts["service.children"] += merge_children(tracer,
                                                           child_dir)
    return result


def _counted(tracer: Tracer, op: Callable[[], OpResult]) -> OpResult:
    """``_traced_op`` that keeps the counters this one op added."""
    before = dict(tracer.counts)
    result = _traced_op(tracer, op)
    result.counts = {key: value - before.get(key, 0.0)
                     for key, value in tracer.counts.items()}
    return result


def _paired(tracer: Tracer, ops: List[Callable[[], OpResult]]
            ) -> Tuple[List[OpResult], List[OpResult]]:
    """Each op untraced and traced, alternating which runs first."""
    plain, traced = [], []
    for j, op in enumerate(ops):
        if j % 2 == 0:
            plain.append(op())
            traced.append(_counted(tracer, op))
        else:
            traced.append(_counted(tracer, op))
            plain.append(op())
    return plain, traced


def overhead_pct(traced: List[OpResult], plain: List[OpResult]) -> float:
    return 100.0 * (sum(r.wall_s for r in traced)
                    / sum(r.wall_s for r in plain) - 1.0)


# -- figure suites -----------------------------------------------------------------

class FigureCase:
    """One figure evaluation: 11-point Oracle sweep + CPU/GPU/PERF/EAS
    per workload, EDP metric, through ``evaluate_suite``.

    The suite is the input; it has no seeded part, so every operation
    of every run evaluates the same specs and must reproduce the
    pinned fingerprint.

    Measured operations run on a serial engine: the speed sampler
    (speed.py) cannot follow work into pool workers, and pooled walls
    spread 0.22-0.31 of their median over ten seeds.  With
    ``pool_jobs > 1`` the traced run also times a pooled evaluation and
    reports its cost as ``harness.engine.overhead_s``.
    """

    #: Traced run: this many untraced + traced evaluation pairs.
    traced_pairs = 2

    def __init__(self, ctx: Context, platform: str, tick_mode: str,
                 suite: Tuple[str, ...], pool_jobs: int = 1,
                 min_ops: int = 1) -> None:
        self.ctx = ctx
        #: Operations a measured run makes at least, even past --seconds.
        self.min_ops = min_ops
        self.platform = platform
        self.tablet = platform == "tablet"
        self.tick_mode = tick_mode
        self.suite = suite
        self.pool_jobs = min(pool_jobs, os.cpu_count() or 1)
        self.eas_pct: Optional[float] = None

    def setup(self) -> None:
        from repro.harness.engine import ExecutionEngine
        from repro.soc.spec import baytrail_tablet, haswell_desktop
        from repro.workloads.registry import workload_by_abbrev

        factory = baytrail_tablet if self.tablet else haswell_desktop
        self.spec = factory(tick_mode=self.tick_mode)
        _characterize(self.ctx, [self.spec])
        _build(self.ctx, [(a, self.tablet) for a in self.suite])
        self.workloads = [workload_by_abbrev(a) for a in self.suite]
        # No result cache: every evaluation simulates.
        self.engine = ExecutionEngine(jobs=1, cache=None)

    def op(self, i: int, engine=None) -> OpResult:
        from repro.core.metrics import EDP
        from repro.harness.suite import evaluate_suite

        start = _perf()
        evaluation = evaluate_suite(self.spec, self.workloads, EDP,
                                    tablet=self.tablet,
                                    engine=engine or self.engine)
        wall = _perf() - start
        items = sum(len(evaluation.sweeps[w].runs) + 2
                    for w in evaluation.workloads())
        # Sorted order: the float sum must not depend on suite order.
        self.eas_pct = statistics.fmean(
            evaluation.outcome(w, "EAS").efficiency_pct
            for w in sorted(evaluation.workloads()))
        problems = self.ctx.check("fingerprint", evaluation.fingerprint())
        problems += self.ctx.check("eas_oracle_edp_pct", repr(self.eas_pct))
        return OpResult(items, wall, problems, start)

    def traced(self, tracer: Tracer) -> Tuple[List[OpResult], Dict]:
        from repro.harness.engine import ExecutionEngine

        extra: Dict[str, float] = {}
        if self.pool_jobs > 1:
            # Worker spans die with the pool: the split comes from the
            # serial traced run, and the pool's cost is its wall minus
            # the serial wall.
            pooled = self.op(0, engine=ExecutionEngine(
                jobs=self.pool_jobs, cache=None))
            plain, traced = _paired(tracer, [lambda: self.op(0)])
            extra["harness.engine.overhead_s"] = (
                pooled.wall_s - plain[0].wall_s)
            results = [pooled] + plain + traced
        else:
            plain, traced = _paired(
                tracer, [lambda: self.op(0)] * self.traced_pairs)
            results = plain + traced
        extra["obs.trace_overhead_pct"] = overhead_pct(traced, plain)
        # Every traced evaluation must repeat the pinned work exactly.
        for result in traced:
            for key in ("soc.ticks", "soc.phases", "harness.engine.tasks"):
                result.problems.extend(self.ctx.check(
                    f"per_op.{key}", int(result.counts.get(key, 0))))
        return results, extra

    def report(self) -> List[str]:
        if self.eas_pct is None:
            return []
        paper = PAPER_EDP_PCT[self.platform]
        return [
            f"eas_oracle_edp_pct = {self.eas_pct:.2f} % over "
            f"{len(self.suite)} workloads ({','.join(self.suite)}); "
            f"paper {paper} % over its full {self.platform} suite; "
            f"signed error {self.eas_pct - paper:+.2f} points",
            "The model has no validation beyond the paper's suite "
            "averages (simulated, deterministic).",
        ]


# -- fleet dispatch ----------------------------------------------------------------

FLEET_RATE_HZ = 1000.0
#: Requests per operation: each run dispatches FLEET_TRACES bursty
#: traces whose sizes all fall within FLEET_SIZE_TOL of this, so every
#: operation does the same amount of work whatever the seed.
FLEET_REQUESTS = 2000
FLEET_SIZE_TOL = 20
FLEET_TRACES = 3
#: Trace seed of the set-up dispatch that resolves every cell.
FLEET_WARM_SEED = 7


@dataclass(frozen=True)
class _Slice:
    """What the benchmark keeps of one dispatch (not the result)."""

    n: int
    energy_j: float
    misses: int
    p50_s: float
    p99_s: float
    fingerprint: str


class FleetCase:
    """``dispatch_stream`` of seeded bursty traces over 2000 nodes
    (50/50 desktop/tablet) under ``energy_aware``; cells resolved in
    set-up, so an operation is trace generation plus placement."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.slices: List[_Slice] = []

    @staticmethod
    def _trace(seed: int, duration_s: float):
        from repro.fleet.trace import TraceSpec

        return TraceSpec(kind="bursty", duration_s=duration_s,
                         mean_rate_hz=FLEET_RATE_HZ, seed=seed)

    def setup(self) -> None:
        from repro.fleet import dispatcher
        from repro.fleet.topology import FleetSpec
        from repro.fleet.trace import DEFAULT_TRACE_WORKLOADS, trace_columns
        from repro.harness.engine import ExecutionEngine, ResultCache

        self.fleet = FleetSpec(n_nodes=2000, desktop_fraction=0.5,
                               tick_mode="fast")
        _characterize(self.ctx, [self.fleet.platform_spec("desktop"),
                                 self.fleet.platform_spec("tablet")])
        workloads = DEFAULT_TRACE_WORKLOADS
        _build(self.ctx, [(w, t) for w in workloads for t in (False, True)])
        self.engine = ExecutionEngine(jobs=1, cache=ResultCache(
            self.ctx.path("cache", "fleet-runs")))
        with self.ctx.stage("fleet.cells"):
            warm = dispatcher.dispatch_stream(
                self.fleet, self._trace(FLEET_WARM_SEED, 0.5),
                policy="energy_aware", engine=self.engine)
        if {c.workload for c in warm.cells} != set(workloads):
            raise RuntimeError("set-up dispatch did not resolve every cell")
        # The first seed-derived traces of the target size.
        duration_s = FLEET_REQUESTS / FLEET_RATE_HZ
        self.traces = []
        k = 0
        while len(self.traces) < FLEET_TRACES:
            trace = self._trace(self.ctx.seed * 1000 + k, duration_s)
            if abs(len(trace_columns(trace)[0])
                   - FLEET_REQUESTS) <= FLEET_SIZE_TOL:
                self.traces.append(trace)
            k += 1

    def _dispatch(self, trace) -> Tuple[object, float]:
        from repro.fleet import dispatcher

        start = _perf()
        result = dispatcher.dispatch_stream(self.fleet, trace,
                                            policy="energy_aware",
                                            engine=self.engine)
        return result, _perf() - start

    def op(self, i: int) -> OpResult:
        start = _perf()
        result, wall = self._dispatch(self.traces[i % len(self.traces)])
        n = result.n_requests
        self.slices.append(_Slice(
            n, result.total_energy_j, result.deadline_misses,
            result.latency_percentile_s(50), result.latency_percentile_s(99),
            result.fingerprint()))
        problems = []
        if abs(n - FLEET_REQUESTS) > FLEET_SIZE_TOL:
            problems.append(f"dispatched {n} requests")
        if sum(result.dispatches_by_kind().values()) != n:
            problems.append("dispatch counts do not sum to the requests")
        if result.sketch.count != n:
            problems.append("latency sketch misses requests")
        if not 0 <= result.deadline_misses <= n:
            problems.append("deadline misses out of range")
        if not result.total_energy_j > 0.0:
            problems.append("non-positive fleet energy")
        return OpResult(n, wall, problems, start)

    def canary(self, tracer: Optional[Tracer] = None) -> List[str]:
        """The pinned trace: fingerprint, and node scans when traced."""
        trace = self._trace(CANARY_SEED, 0.5)
        if tracer is None:
            result = self._dispatch(trace)[0]
        else:
            result = _traced_op(tracer, lambda: self._dispatch(trace)[0])
        problems = self.ctx.check("canary.fingerprint", result.fingerprint())
        if tracer is not None:
            problems += self.ctx.check(
                "canary.fleet.node_scans",
                int(tracer.counts["fleet.node_scans"]))
        return problems

    def traced(self, tracer: Tracer) -> Tuple[List[OpResult], Dict]:
        first = len(self.slices)
        plain, traced = _paired(
            tracer, [lambda i=i: self.op(i) for i in range(FLEET_TRACES)])
        # Tracing must not change a single placement.
        runs = self.slices[first:]
        for j in range(FLEET_TRACES):
            if runs[2 * j].fingerprint != runs[2 * j + 1].fingerprint:
                traced[j].problems.append(
                    f"trace {j}: traced and untraced fingerprints differ")
        traced[-1].problems.extend(self.canary(Tracer()))
        return plain + traced, {
            "obs.trace_overhead_pct": overhead_pct(traced, plain)}

    def report(self) -> List[str]:
        # One entry per distinct trace: repeats are identical.
        distinct = list({s.fingerprint: s for s in self.slices}.values())
        if not distinct:
            return []
        n = sum(s.n for s in distinct)
        misses = sum(s.misses for s in distinct)
        energy = sum(s.energy_j for s in distinct)
        return [
            f"fleet_energy_j_per_req = {energy / n:.4f} J (simulated)",
            f"fleet_latency_p50_s = "
            f"{statistics.median(s.p50_s for s in distinct):.4f} s, "
            f"fleet_latency_p99_s = "
            f"{statistics.median(s.p99_s for s in distinct):.4f} s "
            "(simulated; median over the run's traces)",
            f"fleet_miss_rate = {misses / n:.6f} ({misses} of {n} "
            "requests missed their deadline)",
        ]


# -- scheduler service -------------------------------------------------------------

#: (workload, platform) pairs the service mix draws from: every pair
#: whose job takes 15-45 ms on a 2-vCPU x86 host.  The graph kernels
#: (BFS, CC, SP), BS, and MB and SL on the desktop take 60 ms-1.7 s a
#: job; with them the p90 job latency would sit on the edge of that
#: slow group and turn on where a seed placed them.
SERVICE_PAIRS = tuple(
    [(w, "desktop") for w in ("BH", "FD", "MM", "NB", "RT", "SM")]
    + [(w, "tablet") for w in ("MB", "SL", "MM", "NB", "RT", "SM")])
#: Repeating job-kind pattern: F first-sight EAS (profiles, writes
#: table G), W warm-table EAS (table hit, no profiling), C cold EAS
#: (no table; profiles; result cached under its spec), R exact
#: resubmission of an earlier C job (replays from the result cache,
#: no fork).  Warm jobs cannot be replayed: their cache key folds in
#: the table-G digest, which every warm completion changes.
SERVICE_PATTERN = "FWCWRWCRWR"
#: Traced run: jobs per campaign (run untraced, then traced).
SERVICE_TRACED_JOBS = 150
#: Canary campaign length (pinned fingerprint).
SERVICE_CANARY_JOBS = 12


class JobStream:
    """The seeded job mix: kinds follow SERVICE_PATTERN, kernels a
    seeded permutation of SERVICE_PAIRS."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.order = list(SERVICE_PAIRS)
        rng.shuffle(self.order)
        self.unseen = list(self.order)
        self.seen: List[Tuple[str, str]] = []
        self.cold: List[object] = []
        self.n = 0
        self._warm_n: Dict[Tuple[str, str], int] = {}
        self._cold_cursor = 0
        self._replay_cursor = 0
        self._warm_cursor = 0

    def next(self):
        from repro.service.jobs import JobSpec

        kind = SERVICE_PATTERN[self.n % len(SERVICE_PATTERN)]
        self.n += 1
        if kind == "F" and not self.unseen:
            kind = "W"
        if kind == "R" and not self.cold:
            kind = "C"
        if kind == "F":
            pair = self.unseen.pop(0)
            self.seen.append(pair)
            return kind, JobSpec(workload=pair[0], platform=pair[1],
                                 tick_mode="fast")
        if kind == "W":
            pair = self.seen[self._warm_cursor % len(self.seen)]
            self._warm_cursor += 1
            self._warm_n[pair] = self._warm_n.get(pair, 0) + 1
            return kind, JobSpec(workload=pair[0], platform=pair[1],
                                 tick_mode="fast", seed=self._warm_n[pair])
        if kind == "C":
            pair = self.order[self._cold_cursor % len(self.order)]
            self._cold_cursor += 1
            spec = JobSpec(workload=pair[0], platform=pair[1],
                           tick_mode="fast", warm_table=False,
                           seed=self._cold_cursor)
            self.cold.append(spec)
            return kind, spec
        spec = self.cold[self._replay_cursor % len(self.cold)]
        self._replay_cursor += 1
        return kind, spec


class ServiceCase:
    """One client, closed loop: submit a job to a ``SchedulerService``
    (fresh sqlite store, execution in forked children), drain, repeat."""

    #: Every job forks a child that shares the speed sampler's pages,
    #: so the machine is sampled between jobs (see speed.py).
    forks_per_op = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.latencies: Dict[str, List[float]] = {}

    def setup(self) -> None:
        from repro.soc.spec import baytrail_tablet, haswell_desktop

        self.platforms = [haswell_desktop(tick_mode="fast"),
                          baytrail_tablet(tick_mode="fast")]
        self.char_texts = _characterize(self.ctx, self.platforms)
        _build(self.ctx, [(w, p == "tablet") for w, p in SERVICE_PAIRS])
        with self.ctx.stage("service.store"):
            self.service = self._new_service("service")
        self.stream = JobStream(self.ctx.seed)
        self.submitted: List[Tuple[str, object, int]] = []

    def _new_service(self, name: str, observer=None):
        from repro.service.daemon import SchedulerService

        root = self.ctx.path(name)
        service = SchedulerService(os.path.join(root, "store.db"), root,
                                   observer=observer)
        for platform in self.platforms:
            service.store.save_characterization(
                platform.name, self.char_texts[platform.name])
        return service

    def _run_job(self, service, kind: str, spec) -> Tuple[OpResult, int]:
        start = _perf()
        submitted = service.submit(spec)
        service.run_until_idle()
        wall = _perf() - start
        problems = []
        if not submitted.accepted:
            problems.append(f"rejected: {submitted.decision.reason}")
            return OpResult(1, wall, problems, start), -1
        state = service.store.job(submitted.job_id).state
        if state != "DONE":
            problems.append(f"job {submitted.job_id} ({kind}) ended {state}")
        return OpResult(1, wall, problems, start), submitted.job_id

    def op(self, i: int) -> OpResult:
        kind, spec = self.stream.next()
        result, job_id = self._run_job(self.service, kind, spec)
        self.latencies.setdefault(kind, []).append(result.wall_s)
        self.submitted.append((kind, spec, job_id))
        return result

    def verify(self) -> List[str]:
        """Every job DONE with its result recallable; every exact
        resubmission resolved to its original's result key."""
        store, cache = self.service.store, self.service.cache
        problems = []
        key_of: Dict[str, str] = {}
        for kind, spec, job_id in self.submitted:
            job = store.job(job_id) if job_id >= 0 else None
            if job is None or job.state != "DONE" or not job.result_key:
                problems.append(f"job {job_id} ({kind}) has no result")
                continue
            if cache.get(job.result_key) is None:
                problems.append(f"job {job_id}: result missing from cache")
            if kind in ("C", "R"):
                first = key_of.setdefault(spec.sha(), job.result_key)
                if first != job.result_key:
                    problems.append(f"job {job_id}: resubmission resolved "
                                    "to a different result")
        return problems

    def _campaign(self, name: str, seed: int, n_jobs: int,
                  observer=None) -> Tuple[List[OpResult], object]:
        """``n_jobs`` of stream ``seed`` on a fresh service; returns the
        jobs' results and the (still open) service."""
        service = self._new_service(name, observer)
        stream = JobStream(seed)
        return [self._run_job(service, *stream.next())[0]
                for _ in range(n_jobs)], service

    @staticmethod
    def _fingerprint(service) -> str:
        try:
            return service.fingerprint()
        finally:
            service.close()

    def canary(self) -> List[str]:
        from repro.obs.observer import Observer

        observer = Observer()
        results, service = self._campaign(
            "canary", CANARY_SEED, SERVICE_CANARY_JOBS, observer)
        problems = [p for r in results for p in r.problems]
        problems += self.ctx.check("canary.fingerprint",
                                   self._fingerprint(service))
        counters = observer.metrics.snapshot()["counters"]
        problems += self.ctx.check("canary.service.replays",
                                   int(counters.get("service.replays", 0)))
        return problems

    def traced(self, tracer: Tracer) -> Tuple[List[OpResult], Dict]:
        from repro.obs.observer import Observer

        plain, service = self._campaign("plain", self.ctx.seed,
                                        SERVICE_TRACED_JOBS)
        plain_fp = self._fingerprint(service)
        observer = Observer()
        traced, service = _traced_op(
            tracer, lambda: self._campaign("traced", self.ctx.seed,
                                           SERVICE_TRACED_JOBS, observer),
            self.ctx.path("children"))
        if self._fingerprint(service) != plain_fp:
            traced[-1].problems.append(
                "traced and untraced campaigns fingerprint differently")
        counters = observer.metrics.snapshot()["counters"]
        tracer.counts["service.replays"] = counters.get("service.replays",
                                                        0.0)
        return plain + traced, {
            "obs.trace_overhead_pct": overhead_pct(traced, plain)}

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()

    def report(self) -> List[str]:
        walls = [w for ws in self.latencies.values() for w in ws]
        if not walls:
            return []
        lines = [f"jobs_per_s = {len(walls) / sum(walls):.2f} 1/s over "
                 f"{len(walls)} jobs",
                 f"job_latency_p50_s = {statistics.median(walls):.4f} s, "
                 f"job_latency_p90_s = {percentile(walls, 90):.4f} s"]
        for kind in "FWCR":
            ws = self.latencies.get(kind)
            if ws:
                lines.append(f"  kind {kind}: {len(ws)} jobs, p50 "
                             f"{statistics.median(ws):.4f} s")
        return lines


def percentile(values: List[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default):
    with a handful of operations a nearest-rank p90 is just the max."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


CASES = {
    "fig9-desktop-exact": lambda ctx: FigureCase(
        ctx, "desktop", "exact", ("MB", "NB", "BH", "MM", "RT")),
    "fig11-tablet-fast": lambda ctx: FigureCase(
        ctx, "tablet", "fast", ("MB", "SL", "BS", "MM", "NB", "RT", "SM"),
        pool_jobs=2, min_ops=3),
    "fleet-bursty-energy-aware": FleetCase,
    "service-mixed": ServiceCase,
}
