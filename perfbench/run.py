#!/usr/bin/env python3
"""The repository's benchmark: four workloads against the public API.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9-desktop-exact --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed share of the same work untraced and under
the layer wrappers (``layers.py``) and reports the per-layer split.
Both print a human-readable report, then as the last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Every run is isolated: it builds nothing, imports ``repro`` from the
checkout's ``src/``, and points ``REPRO_CACHE_DIR`` (and ``TMPDIR``)
at a new empty directory under ``.perfbench/`` that is removed at
exit, so no characterization or result persisted by another commit
can serve this one.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from cases import CASES, Context, percentile
from layers import STORE_OPS, Tracer
from speed import REFERENCE_WALK_S, SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
_perf = time.perf_counter
#: A run stops after this many operations in a row raised.
MAX_RAISES_IN_A_ROW = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb(sampler) -> float:
    """Largest peak RSS of this process or any child it reaped, less
    the speed sampler's data (which forked children map too)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (max(own, children) - sampler.footprint_kib) / 1024.0


def _measure(case, seconds: float, after_op):
    """Operations of the seeded stream until ``seconds`` of them ran;
    ``after_op()`` runs after each one.

    Returns the results, the failure messages, and how many operations
    were attempted and failed (raised, or failed a check).  An
    operation that raised counts its time too, and a stream that keeps
    raising stops early, so the run always ends and reports.
    """
    results, messages, failed = [], [], 0
    busy = 0.0
    i = raises = 0
    while True:
        start = _perf()
        try:
            result = case.op(i)
        except Exception:
            busy += _perf() - start
            failed += 1
            raises += 1
            messages.append(f"op {i} raised:\n{traceback.format_exc()}")
            if raises == MAX_RAISES_IN_A_ROW:
                return results, messages, i + 1, failed
        else:
            raises = 0
            results.append(result)
            busy += result.wall_s
            failed += bool(result.problems)
            messages.extend(f"op {i}: {p}" for p in result.problems)
        i += 1
        after_op()
        if busy >= seconds and i >= getattr(case, "min_ops", 1):
            return results, messages, i, failed


def _end_to_end(results, sampler, setup_s):
    walls = [sampler.at_reference(r.started, r.wall_s) for r in results]
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (statistics.median(
            r.items / w for r, w in zip(results, walls)), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_p90_s": (percentile(walls, 90), "s"),
        "peak_rss_mb": (_peak_rss_mb(sampler), "MiB"),
    }


def _per_layer(tracer, stages, extra):
    t, s, c, n = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    phase_s = t["soc.run_phase"] + t["soc.idle"]
    events = n["soc.ticks"] + n["soc.macro_steps"]
    gets, places = c["harness.cache.get"], c["fleet.place"]
    metrics = {
        "soc.run_phase.calls": (c["soc.run_phase"], "count"),
        "soc.run_phase.s": (phase_s, "s"),
        "soc.ticks": (n["soc.ticks"], "count"),
        "soc.macro_steps": (n["soc.macro_steps"], "count"),
        "soc.phase_replays": (n["soc.phase_replays"], "count"),
        "soc.phases": (n["soc.phases"], "count"),
        "soc.us_per_event": (1e6 * phase_s / events if events else 0.0, "us"),
        "runtime.parallel_for.calls": (c["runtime.parallel_for"], "count"),
        "runtime.self_s": (s["runtime.parallel_for"], "s"),
        "core.eas.execute.calls": (c["core.eas.execute"], "count"),
        "core.eas.self_s": (s["core.eas.execute"], "s"),
        "core.eas.profiling_rounds": (n["core.eas.profiling_rounds"],
                                      "count"),
        "core.eas.table_hits": (n["core.eas.table_hits"], "count"),
        "core.baselines.self_s": (s["core.baselines"], "s"),
        "core.optimizer.s": (t["core.optimizer"], "s"),
        "core.characterize.s": (stages.get("core.characterize", 0.0), "s"),
        "workloads.build_s": (stages.get("workloads.build", 0.0), "s"),
        "harness.engine.run_batch.s": (t["harness.engine.run_batch"], "s"),
        "harness.engine.tasks": (n["harness.engine.tasks"], "count"),
        "harness.engine.overhead_s": (
            extra.get("harness.engine.overhead_s", 0.0), "s"),
        "harness.cache.get.calls": (gets, "count"),
        "harness.cache.get.s": (t["harness.cache.get"], "s"),
        "harness.cache.put.calls": (c["harness.cache.put"], "count"),
        "harness.cache.put.s": (t["harness.cache.put"], "s"),
        "harness.cache.hit_ratio": (
            n["harness.cache.get.hits"] / gets if gets else 0.0, "fraction"),
        "fleet.place.calls": (places, "count"),
        "fleet.place.s": (t["fleet.place"], "s"),
        "fleet.place.us_per_req": (
            1e6 * t["fleet.place"] / places if places else 0.0, "us"),
        "fleet.least_loaded.calls": (c["fleet.least_loaded"], "count"),
        "fleet.node_scans": (n["fleet.node_scans"], "count"),
        "fleet.trace.s": (t["fleet.trace"], "s"),
        "fleet.cells.s": (stages.get("fleet.cells", 0.0), "s"),
        "fleet.dispatch.self_s": (s["fleet.dispatch"], "s"),
        **{f"service.store.{op}.s": (t[f"service.store.{op}"], "s")
           for op in STORE_OPS},
        "service.store.other.s": (t["service.store.other"], "s"),
        "service.submit.self_s": (s["service.submit"], "s"),
        "service.exec_s": (s["service.drain"], "s"),
        "service.replays": (n["service.replays"], "count"),
        "service.children": (n["service.children"], "count"),
        "obs.trace_overhead_pct": (extra["obs.trace_overhead_pct"], "%"),
        "trace.wall_s": (t["bench.op"], "s"),
        "trace.unattributed_s": (s["bench.op"], "s"),
    }
    return metrics


def run(args, work_dir: str, sampler, setup_start: float) -> dict:
    with open(PINS_PATH) as fh:
        pins = json.load(fh).get(args.workload, {})
    ctx = Context(args.seed, work_dir, pins)
    case = CASES[args.workload](ctx)
    case.setup()
    setup_wall = time.perf_counter() - setup_start
    # Cases that fork per operation are sampled between operations.
    between_ops = getattr(case, "forks_per_op", False)
    if sampler is not None and between_ops:
        sampler.stop()

    if args.trace:
        tracer = Tracer()
        results, extra = case.traced(tracer)
        failures = [p for r in results for p in r.problems]
        attempted = len(results)
        failed = sum(1 for r in results if r.problems)
        metrics = _per_layer(tracer, ctx.stages, extra)
        if tracer.missing:
            print("untraced (missing) entry points: "
                  + ", ".join(sorted(set(tracer.missing))))
        trace_path = os.path.join(os.path.dirname(work_dir),
                                  f"trace-{args.workload}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.tree()}, fh, indent=1)
    else:
        results, failures, attempted, failed = _measure(
            case, args.seconds,
            sampler.between if between_ops else lambda: None)
        sampler.stop()
        setup_s = sampler.at_reference(setup_start, setup_wall)
        metrics = _end_to_end(results, sampler, setup_s) if results else {}
        if results:
            raw = [r.wall_s for r in results]
            slow, fast = sampler.walk_range()
            print(f"raw walls: setup {setup_wall:.3f} s, op p50 "
                  f"{statistics.median(raw):.4f} s, op p90 "
                  f"{percentile(raw, 90):.4f} s over {len(raw)} ops; "
                  f"speed walks {slow * 1e3:.2f}-{fast * 1e3:.2f} ms "
                  f"(reference {REFERENCE_WALK_S * 1e3:.2f} ms)")
        if hasattr(case, "verify"):
            problems = case.verify()   # one problem per failed job
            failed += len(problems)
            failures.extend(problems)
    if hasattr(case, "canary") and not args.trace:
        attempted += 1
        try:
            canary = case.canary()
        except Exception:
            canary = [f"raised:\n{traceback.format_exc()}"]
        failed += bool(canary)
        failures.extend(f"canary: {p}" for p in canary)
    if hasattr(case, "close"):
        case.close()

    print(f"== {args.workload} seed={args.seed} trace={args.trace} ==")
    for name, seconds in ctx.stages.items():
        print(f"setup stage {name}: {seconds:.3f} s")
    for line in case.report():
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"FAILED {failure}")
    return {
        "correct": not failures and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _reap_children() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {root}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sampler = None
    if not args.trace:
        sampler = SpeedSampler()
        sampler.start()
    # setup_s runs from here: everything but the sampler's own data.
    setup_start = time.perf_counter()
    sys.path.insert(0, src)
    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work_dir, "cache")
    os.environ["TMPDIR"] = os.path.join(work_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    tempfile.tempdir = None
    try:
        result = run(args, work_dir, sampler, setup_start)
    finally:
        if sampler is not None:
            sampler.stop()
        _reap_children()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
