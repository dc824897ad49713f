"""Host times at a reference machine speed.

The host is shared.  Other tenants slow this process by up to about
2x for seconds at a time; steal time stays near zero, so CPU-time
clocks slow down as well, and the slowdown tracks cache and memory
contention on our own core (a sampler in another process tracks it
poorly).  So the benchmark samples the machine's speed *in process*:
every 50 ms a SIGALRM handler walks 1000 random entries of a 16 MiB
list of floats and takes the walk's thread CPU time (so time the
process spends descheduled behind its own pool workers does not count
as slowness).  A measured interval whose walks ran slower than
REFERENCE_WALK_S is reported as its wall times REFERENCE_WALK_S over
their mean.  One whose walks ran faster is reported as measured: on a
host quieter than the reference the walk speeds up far more than the
program does (README.md).  The walks run inside the timed operations
and add 1-3% to their walls.

The walks share the core and caches with the program they time.  Each
reads 1000 of 2**19 entries and returns to an entry only about every
26 s, so it finds its data as cold whether the program ran or slept:
check_speed.py shows the walk time does not follow the working set of
the operation around it (README.md has the figures).

Walking a float bumps its reference count, a write.  While a forked
child shares those pages, the write copies them, and the walk would
time page faults instead of the machine; a walk that faulted is
dropped.  An operation that forks a child each time (a service job)
would leave no clean walk, so for those the timer is off and
between() walks after each operation instead, once the child is gone:
it first writes one float per page, which makes every page private
again, then times the walk.

Only the parent samples: interval timers are not inherited across
fork, so pool workers never see SIGALRM.  Python retries system calls
a signal interrupts (PEP 475), so the handler changes no result.
"""

from __future__ import annotations

import bisect
import random
import resource
import signal
import statistics
import time
from array import array
from typing import List, Tuple

_perf = time.perf_counter
_cpu = time.thread_time

INTERVAL_S = 0.05
WALK = 1000
#: Entries in the walked list: 2**19 floats, about 16 MiB of objects.
SIZE = 1 << 19
#: Walk time on the reference machine (2-vCPU x86 host, no contention).
REFERENCE_WALK_S = 0.0004
#: A window with fewer samples than this borrows the nearest ones.
MIN_SAMPLES = 5


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def _rss_kib() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() // 1024


class SpeedSampler:
    """Timed memory walks on SIGALRM, and intervals scaled by them."""

    def __init__(self) -> None:
        before = _rss_kib()
        rng = random.Random(0)
        self._values = [rng.random() for _ in range(SIZE)]
        self._order = array("l", range(SIZE))
        rng.shuffle(self._order)
        #: Resident memory the walk's data adds (forked children map it
        #: too); peak-RSS figures subtract it.
        self.footprint_kib = max(0, _rss_kib() - before)
        self._cursor = 0
        self._starts: List[float] = []
        self._walks: List[float] = []

    def _walk(self, signum, frame) -> None:
        faults = _faults()
        start, cpu = _perf(), _cpu()
        values, cursor = self._values, self._cursor
        total = 0.0
        for j in self._order[cursor:cursor + WALK]:
            total += values[j]
        walk = _cpu() - cpu
        self._cursor = (cursor + WALK) % (SIZE - WALK)
        if _faults() == faults:
            self._starts.append(start)
            self._walks.append(walk)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._walk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def between(self) -> None:
        """One walk between operations, at most every INTERVAL_S."""
        if self._starts and _perf() - self._starts[-1] < INTERVAL_S:
            return
        # Slicing takes a reference to one float in 64: a write to
        # every page, which undoes fork sharing so the timed walk below
        # takes no copy-on-write fault.
        touched = self._values[::64]
        del touched
        self._walk(None, None)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference(self, start: float, wall: float) -> float:
        """``wall`` seconds from ``start`` at reference speed; as
        measured when the machine ran faster than the reference."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, start + wall)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self._walks)):
            if lo > 0:
                lo -= 1
            if hi < len(self._walks) and hi - lo < MIN_SAMPLES:
                hi += 1
        speed = statistics.fmean(self._walks[lo:hi])
        return wall * min(1.0, REFERENCE_WALK_S / speed)

    def walk_range(self) -> Tuple[float, float]:
        return min(self._walks), max(self._walks)
