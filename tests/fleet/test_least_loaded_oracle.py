"""The vectorized least-loaded kernel against an independent scalar oracle.

Both dispatch modes place through the same :class:`FleetView`, so the
cross-mode fingerprint lock cannot see a bug in its kernel.  The
oracle here is the plain strict-``<`` scan over Python floats: a
property test pins the pick for arbitrary backlogs and candidate
orders, and a differential test swaps the oracle into the dispatcher
and requires byte-identical fingerprints.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    TRACE_KINDS,
    FleetSpec,
    FleetView,
    TraceSpec,
    dispatcher,
    run_fleet,
)
from repro.harness.engine import ExecutionEngine, ResultCache
from repro.soc.carbon import CarbonSpec


class ScalarFleetView(FleetView):
    """:class:`FleetView` with the scalar least-loaded scan: first of
    equals in candidate order, backlogs as Python floats."""

    def least_loaded(self, indices):
        best, best_backlog = None, None
        for i in indices:
            backlog = max(0.0, float(self.free_at[i]) - self.now)
            if best is None or backlog < best_backlog:
                best, best_backlog = int(i), backlog
        return best


N_NODES = 12
#: A few shared values, so free_at duplicates, all-idle ties and
#: ``now == free_at`` (exact-zero backlogs) come up constantly.
_POOL = (0.0, 0.5, 1.0, 2.0, 3.0)
_TIMES = st.sampled_from(_POOL) | st.floats(
    0.0, 1e4, allow_nan=False, allow_infinity=False)


def _views(free_at, now):
    nodes = FleetSpec(n_nodes=N_NODES).nodes()
    views = FleetView(nodes), ScalarFleetView(nodes)
    for view in views:
        view.free_at[:] = free_at
        view.now = now
    return views


class TestKernelMatchesScalarScan:
    @settings(max_examples=300, deadline=None)
    @given(free_at=st.lists(_TIMES, min_size=N_NODES, max_size=N_NODES),
           now=_TIMES,
           candidates=st.lists(st.integers(0, N_NODES - 1), min_size=1,
                               max_size=N_NODES, unique=True),
           as_array=st.booleans())
    # All idle: every backlog clamps to zero, the first candidate wins.
    @example(free_at=[1.0] * N_NODES, now=3.0, candidates=[7, 2, 9],
             as_array=True)
    # Exact-zero backlogs beside positive ones.
    @example(free_at=[2.0, 3.0] * (N_NODES // 2), now=2.0,
             candidates=[1, 3, 0, 2], as_array=False)
    # Duplicate positive backlogs: the earlier candidate keeps the tie.
    @example(free_at=[5.0] * N_NODES, now=1.0, candidates=[11, 0, 4],
             as_array=True)
    def test_pick_equals_scalar_scan(self, free_at, now, candidates,
                                     as_array):
        fast, oracle = _views(free_at, now)
        indices = (np.asarray(candidates, dtype=np.int64) if as_array
                   else candidates)
        pick = fast.least_loaded(indices)
        assert pick == oracle.least_loaded(candidates)
        assert type(pick) is int
        assert type(fast.backlog_s(pick)) is float

    def test_kind_and_eligible_sets_are_index_arrays(self):
        view = FleetView(FleetSpec(n_nodes=N_NODES).nodes())
        for workload in ("MM", "CC"):
            eligible = view.eligible_nodes(workload)
            assert eligible.dtype == np.int64
            kinds = [view.platform_kind(i) for i in eligible.tolist()]
            assert kinds == sorted(kinds)  # desktop block, then tablet
        assert view.least_loaded_of_kind("tablet", "MM") == 0


FLEET = FleetSpec(n_nodes=12, desktop_fraction=0.5, tick_mode="fast",
                  seed=9)
CARBON_FLEET = dataclasses.replace(FLEET,
                                   carbon=CarbonSpec(period_s=60.0))
VIEW_POLICIES = ("least_loaded", "energy_aware", "deadline_aware")


def _trace(kind):
    return TraceSpec(kind=kind, duration_s=30.0, mean_rate_hz=6.0,
                     workloads=("MM", "RT", "BH"), seed=9)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("oracle-cache")))
    return ExecutionEngine(cache=cache)


def _digests(engine, policy, kind):
    trace = _trace(kind)
    ref = run_fleet(FLEET, trace, policy=policy, engine=engine)
    stream = run_fleet(FLEET, trace, policy=policy, engine=engine,
                       dispatch_mode="streaming", chunk_size=37)
    carbon = run_fleet(CARBON_FLEET,
                       dataclasses.replace(trace, deferral_fraction=0.8),
                       policy=policy, engine=engine)
    queued = sum(1 for o in ref.outcomes if o.t_start_s > o.t_arrival_s)
    return (ref.fingerprint(), ref.stream_fingerprint(),
            stream.fingerprint(), carbon.fingerprint()), queued


class TestDispatchAgainstOracle:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    @pytest.mark.parametrize("policy", VIEW_POLICIES)
    def test_fingerprints_match_oracle(self, engine, monkeypatch, policy,
                                       kind):
        production, queued = _digests(engine, policy, kind)
        monkeypatch.setattr(dispatcher, "FleetView", ScalarFleetView)
        oracle, _ = _digests(engine, policy, kind)
        assert production == oracle
        # The trace loads the fleet, so the picks rank real backlogs.
        assert queued > 0
