"""Property: fast-forwarding never skips a scheduled discrete event.

The fast clock mode's macro-steps jump hours of simulated time in one
arithmetic move, so the natural failure mode is stepping *across* a
scheduled fault.  The simulator's event-source contract says that can
never happen: both clock modes bound every advance - scalar tick or
macro-step - by the event horizon.  We drive randomly
scheduled MSR wrap jumps (the fault substrate's event-source client)
through idle waits and real phases in both modes and require every
event to fire exactly once, at its scheduled instant, identically in
exact and fast mode.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.cost_model import KernelCostModel
from repro.soc.faults import FaultConfig, FaultySoC
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.spec import haswell_desktop
from repro.soc.work import CostProfile, split_for_offload

# Each example runs two full simulations; keep the count moderate.
SETTINGS = settings(max_examples=25, deadline=None)

#: Scheduled instants spanning the whole simulated window and beyond
#: its end (events past the end must never fire).
event_times = st.lists(
    st.floats(min_value=0.0, max_value=2.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=8)

#: Firing tolerance: the clock lands ticks on the horizon exactly, but
#: the _MIN_DT clamp (1e-7 s) may carry it an epsilon past it.
_FIRE_TOL = 1e-6

_COST = KernelCostModel(
    name="props-mixed",
    instructions_per_item=500.0,
    loadstore_fraction=0.3,
    l3_miss_rate=0.4,
)


def _simulate(tick_mode, times):
    """Idle, run a co-executing phase, idle again; return (log, now)."""
    spec = replace(haswell_desktop(), tick_mode=tick_mode)
    soc = FaultySoC(IntegratedProcessor(spec),
                    FaultConfig(scheduled_wrap_times=tuple(times)))
    soc.idle(0.4)
    gpu_region, cpu_region = split_for_offload(
        CostProfile(_COST), 3e5, 0.0, 3e5, 0.5)
    soc.run_phase(PhaseRequest(cost=_COST, cpu_region=cpu_region,
                               gpu_region=gpu_region))
    soc.idle(0.5)
    return soc.fault_log, soc.now


class TestMacroSteppingNeverSkipsScheduledFaults:
    @SETTINGS
    @given(times=event_times)
    def test_every_due_event_fires_once_at_its_instant(self, times):
        log, now = _simulate("fast", times)
        events = [e for e in log.events if e.kind == "msr-scheduled-wrap"]
        due = sorted(t for t in times if t <= now - _FIRE_TOL)
        pending = [t for t in times if t > now + _FIRE_TOL]
        # Every event past the end of the simulation stays unfired, and
        # every due one fired exactly once, in schedule order.  (Times
        # within the tolerance band of `now` may legitimately land on
        # either side; they are excluded from both lists.)
        assert len(events) >= len(due)
        assert len(events) <= len(times) - len(pending)
        for scheduled, event in zip(due, events):
            assert abs(event.t - scheduled) <= _FIRE_TOL, (
                f"event scheduled at {scheduled} fired at {event.t}")

    @SETTINGS
    @given(times=event_times)
    def test_fast_and_exact_modes_fire_identically(self, times):
        fast_log, fast_now = _simulate("fast", times)
        exact_log, exact_now = _simulate("exact", times)
        fast_events = [e for e in fast_log.events
                       if e.kind == "msr-scheduled-wrap"]
        exact_events = [e for e in exact_log.events
                        if e.kind == "msr-scheduled-wrap"]
        assert len(fast_events) == len(exact_events)
        for fe, ee in zip(fast_events, exact_events):
            assert abs(fe.t - ee.t) <= _FIRE_TOL
            assert fe.detail == ee.detail  # same jump, same schedule slot

    def test_macro_step_is_interrupted_by_a_mid_span_event(self):
        """Deterministic core case: a settled idle macro-step spanning
        a scheduled event must split at the event, not jump over it."""
        spec = replace(haswell_desktop(), tick_mode="fast")
        soc = FaultySoC(IntegratedProcessor(spec),
                        FaultConfig(scheduled_wrap_times=(1.0,)))
        soc.idle(3.0)  # one settled wait spanning the event
        events = [e for e in soc.fault_log.events
                  if e.kind == "msr-scheduled-wrap"]
        assert len(events) == 1
        assert abs(events[0].t - 1.0) <= _FIRE_TOL
