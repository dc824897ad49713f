#!/usr/bin/env python3
"""Is the speed sampler neutral to the program it times?

Host times are scaled by walks that run inside the timed operations
(speed.py), on the same core and caches as the program.  If the
program's own memory use slowed the walks, a change to its working
set would be scaled back up or hidden.  This script measures that:

    python3 perfbench/check_speed.py              # synthetic working sets
    python3 perfbench/check_speed.py --workload fig9-desktop-exact

The first form times the walks during synthetic operations that
randomly read 0.25-128 MiB of floats, interleaved round by round with
idle stretches (the process asleep, walks still firing).  The second
does the same around the operations of one benchmark workload.  A
neutral sampler shows the same walk time in every row, within the
host's noise; see README.md for the figures at this commit.
"""

from __future__ import annotations

import argparse
import bisect
import os
import random
import shutil
import statistics
import sys
import tempfile
import time

from speed import SpeedSampler

_perf = time.perf_counter
IDLE_S = 0.5


def _walk_ms(sampler: SpeedSampler, start: float, end: float) -> float:
    lo = bisect.bisect_left(sampler._starts, start)
    hi = bisect.bisect_right(sampler._starts, end)
    return 1e3 * statistics.fmean(sampler._walks[lo:hi])


def _idle(sampler: SpeedSampler, rows) -> None:
    start = _perf()
    time.sleep(IDLE_S)
    rows["idle"].append(_walk_ms(sampler, start, _perf()))


def synthetic(sampler: SpeedSampler, rounds: int, rows) -> None:
    rng = random.Random(0)
    sets = {}
    for mib in (0.25, 4, 32, 128):
        n = int(mib * 2 ** 20 / 32)   # a float and its list slot: 32 B
        sets[f"{mib} MiB"] = ([float(i) for i in range(n)],
                              [rng.randrange(n) for _ in range(20000)])
    for _ in range(rounds):
        for name, (values, order) in sets.items():
            start = _perf()
            while _perf() - start < 1.5:
                total = 0.0
                for j in order:
                    total += values[j]
            rows.setdefault(name, []).append(
                _walk_ms(sampler, start, _perf()))
            _idle(sampler, rows)


def workload(sampler: SpeedSampler, name: str, rounds: int, rows) -> None:
    from cases import CASES, Context

    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="check-", dir=scratch)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work_dir, "cache")
    try:
        case = CASES[name](Context(1, work_dir, {}))
        if getattr(case, "forks_per_op", False):
            raise SystemExit(f"{name} is sampled between operations")
        case.setup()
        for i in range(rounds):
            result = case.op(i)
            rows.setdefault(name, []).append(_walk_ms(
                sampler, result.started, result.started + result.wall_s))
            _idle(sampler, rows)
        if hasattr(case, "close"):
            case.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sampler = SpeedSampler()
    sampler.start()
    rows = {"idle": []}
    try:
        if args.workload:
            workload(sampler, args.workload, args.rounds, rows)
        else:
            synthetic(sampler, args.rounds, rows)
    finally:
        sampler.stop()
    idle = statistics.median(rows["idle"])
    for name, walks in rows.items():
        median = statistics.median(walks)
        print(f"{name:>22}: walk {median:.3f} ms, {median / idle:.3f} x "
              f"idle (per round {min(walks):.3f}-{max(walks):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
