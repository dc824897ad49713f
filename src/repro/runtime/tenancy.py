"""Multiprogram tenancy: N kernel streams co-scheduled on one SoC.

The paper's Section 5 fallback - "if the GPU is busy with other work,
run CPU-alone" - presumes *other work exists*.  Every harness entry
point so far ran exactly one application at a time, so the ``gpu_busy``
counter (A26) only ever went high under fault injection.  This module
makes the signal real:

* :class:`TenantSpec` describes one tenant: a workload stream plus its
  arbitration attributes (priority, optional deadline);
* :class:`GpuLeaseArbiter` grants the integrated GPU to one tenant at
  a time.  A tenant that wins the lease keeps it for
  ``lease_quantum`` of its own invocations; denied tenants spill to
  CPU-only execution through the scheduler's own EXIT_GPU_BUSY path
  and queue as waiters.  Two policies:

  - ``fifo``: on release the lease is reserved for the longest-waiting
    denied tenant (bounded starvation: every waiter is served within
    one round of its predecessors' quanta);
  - ``priority``: earliest deadline first, then highest priority, then
    FIFO arrival - losers keep spilling to the CPU (deadline-aware
    energy scheduling in the spirit of Mei et al., see PAPERS.md);

* :class:`TenantSoCView` is the per-tenant window onto the shared
  processor: identical to it in every software-visible way except that
  ``gpu_busy`` also reads *true* while the lease is held elsewhere.
  The scheduler underneath stays completely black-box - it sees a busy
  counter, debounces it, and takes its own Section-5 fallback;
* :func:`run_multiprogram` interleaves the tenants' invocation streams
  round-robin on one simulated SoC (one invocation is one indivisible
  scheduling step, as on real Concord where ``parallel_for`` blocks),
  giving each tenant its own :class:`~repro.core.scheduler.EnergyAwareScheduler`
  (own table G, own decision records) over its own view.

Contention-aware table G: an alpha profiled while the GPU was leased
away reflects a degenerate co-run, not the kernel.  The coordinator
therefore sets each scheduler's ``co_run_context`` per invocation
(``"mpN"`` with N active tenants, ``""`` once the tenant runs solo),
and the scheduler keys table G by it - co-run and solo alphas never
mix.  Everything is deterministic: same tenant mix, policy, and seed
produce byte-identical :meth:`MultiprogramResult.fingerprint` under
either tick mode's reference semantics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError, SpecError
from repro.obs.observer import Observer
from repro.obs.records import EXIT_GPU_BUSY, DecisionRecord
from repro.runtime.runtime import ConcordRuntime, InvocationResult
from repro.soc.faults import FaultConfig, FaultySoC
from repro.soc.simulator import IntegratedProcessor
from repro.soc.spec import PlatformSpec, haswell_desktop

if TYPE_CHECKING:  # repro.core imports cycle back into repro.runtime
    from repro.core.metrics import EnergyMetric
    from repro.core.scheduler import SchedulerConfig

#: The arbitration policies the lease arbiter implements.
ARBITER_POLICIES: Tuple[str, ...] = ("fifo", "priority")

#: Invocations a lease winner keeps the GPU for before re-arbitration.
DEFAULT_LEASE_QUANTUM = 2

#: Note attached to a tenant's decision record when its EXIT_GPU_BUSY
#: came from the arbiter (as opposed to a fault-injected busy flap).
LEASE_DENIED_NOTE = "lease-denied-by"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload stream plus arbitration attributes.

    ``deadline_s`` does double duty (so the priority arbiter and the
    per-SoC objective agree): earliest deadline wins the GPU lease
    first under the ``priority`` policy, and the same value becomes
    the tenant scheduler's per-invocation completion budget via a
    :class:`~repro.core.metrics.ConstrainedMetric` in
    :func:`run_multiprogram`.  A deadline, when present, must be a
    positive finite number - negative, zero, NaN, or infinite values
    would silently build a nonsense arbiter ordering and an
    unsatisfiable (or vacuous) objective, so construction rejects
    them with :class:`~repro.errors.SpecError`.
    """

    name: str
    #: Table-1 workload abbreviation (registry key).
    workload: str
    #: Larger wins ties under the ``priority`` policy.
    priority: int = 0
    #: Simulated-seconds deadline; earliest deadline wins first under
    #: the ``priority`` policy (None = no deadline).
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.deadline_s is None:
            return
        if (isinstance(self.deadline_s, bool)
                or not isinstance(self.deadline_s, (int, float))
                or not math.isfinite(self.deadline_s)
                or self.deadline_s <= 0):
            raise SpecError(
                f"tenant {self.name!r}: deadline_s must be a positive "
                f"finite number (or None), got {self.deadline_s!r}")


@dataclass(frozen=True)
class TenancySpec:
    """Typed, frozen description of one multiprogram co-scheduling cell.

    The arbitration policy, the lease quantum, and the tenant roster
    are real fields, validated at construction, hashable, and
    picklable - so the spec participates in engine cache keys through
    :meth:`canonical_dict`.
    """

    #: Arbitration policy: one of :data:`ARBITER_POLICIES`.
    policy: str = "fifo"
    #: Invocations a lease winner keeps the GPU for.
    lease_quantum: int = DEFAULT_LEASE_QUANTUM
    #: The tenant roster, in registration (round-robin) order.
    tenants: Tuple[TenantSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if self.policy not in ARBITER_POLICIES:
            raise SchedulingError(
                f"unknown arbitration policy {self.policy!r}; "
                f"expected one of {ARBITER_POLICIES}")
        if int(self.lease_quantum) < 1:
            raise SchedulingError("lease_quantum must be >= 1")
        if not self.tenants:
            raise SchedulingError("tenancy spec needs at least one tenant")
        for tenant in self.tenants:
            if not isinstance(tenant, TenantSpec):
                raise SchedulingError(
                    f"tenants must be TenantSpec instances, got "
                    f"{type(tenant).__name__}")

    @property
    def tenant_text(self) -> str:
        """The roster in ``--tenants`` syntax (for display)."""
        entries = []
        for tenant in self.tenants:
            entry = tenant.workload
            if tenant.deadline_s is not None:
                entry += f":{tenant.priority}:{tenant.deadline_s:g}"
            elif tenant.priority:
                entry += f":{tenant.priority}"
            entries.append(entry)
        return ",".join(entries)

    def canonical_dict(self) -> dict:
        """Canonical JSON-ready form for engine cache keys."""
        return {
            "policy": self.policy,
            "lease_quantum": int(self.lease_quantum),
            "tenants": [
                {
                    "name": t.name,
                    "workload": t.workload,
                    "priority": t.priority,
                    "deadline_s": t.deadline_s,
                }
                for t in self.tenants
            ],
        }


@dataclass(frozen=True)
class LeaseEvent:
    """One arbiter transition, in simulated time."""

    t: float
    tenant: str
    #: ``grant`` | ``deny`` | ``release``.
    action: str
    #: Lease holder (or reservation) at the time of the event.
    holder: Optional[str] = None

    def canonical(self) -> str:
        return f"{self.t!r}|{self.tenant}|{self.action}|{self.holder or ''}"


class GpuLeaseArbiter:
    """Grants the integrated GPU to one tenant at a time.

    The protocol is invocation-granular, mirroring how the coordinator
    interleaves tenants: ``begin_invocation`` opens a tenant's step,
    the tenant's :class:`TenantSoCView` calls :meth:`poll` when (and
    only when) its scheduler reads ``gpu_busy``, and
    ``end_invocation`` closes the step and advances the lease quantum.
    ``poll`` is idempotent within one invocation - debounce re-reads
    see the same answer, so the debounce filter keeps rejecting only
    *transient* (fault-injected) flaps, never arbiter decisions.
    """

    def __init__(self, policy: str = "fifo",
                 lease_quantum: int = DEFAULT_LEASE_QUANTUM) -> None:
        if policy not in ARBITER_POLICIES:
            raise SchedulingError(
                f"unknown arbitration policy {policy!r}; "
                f"expected one of {ARBITER_POLICIES}")
        if lease_quantum < 1:
            raise SchedulingError("lease_quantum must be >= 1")
        self.policy = policy
        self.lease_quantum = lease_quantum
        self.events: List[LeaseEvent] = []
        self.grants: Dict[str, int] = {}
        self.denials: Dict[str, int] = {}
        self._tenants: Dict[str, TenantSpec] = {}
        self._holder: Optional[str] = None
        self._held_invocations = 0
        #: Tenant the next lease is reserved for (set on release).
        self._reserved: Optional[str] = None
        #: Waiting tenants -> arrival sequence of their first denial.
        self._waiters: Dict[str, int] = {}
        self._arrival_seq = 0
        self._current: Optional[str] = None
        self._decision: Optional[bool] = None
        self._last_denier: Optional[str] = None

    # -- registration ------------------------------------------------------------

    def register(self, tenant: TenantSpec) -> None:
        if tenant.name in self._tenants:
            raise SchedulingError(f"duplicate tenant name {tenant.name!r}")
        self._tenants[tenant.name] = tenant
        self.grants.setdefault(tenant.name, 0)
        self.denials.setdefault(tenant.name, 0)

    # -- invocation protocol -----------------------------------------------------

    def begin_invocation(self, tenant: str, now: float) -> None:
        if tenant not in self._tenants:
            raise SchedulingError(f"unregistered tenant {tenant!r}")
        if self._current is not None:
            raise SchedulingError(
                f"tenant {self._current!r} still has an invocation open")
        self._current = tenant
        self._decision = None
        self._last_denier = None

    def poll(self, tenant: str, now: float) -> bool:
        """True when ``tenant`` holds (or just acquired) the lease."""
        if tenant != self._current:
            raise SchedulingError(
                f"poll from {tenant!r} outside its invocation "
                f"(current: {self._current!r})")
        if self._decision is not None:
            return self._decision
        if self._holder == tenant:
            granted = True
        elif self._holder is None and self._reserved in (None, tenant):
            self._holder = tenant
            self._held_invocations = 0
            self._reserved = None
            self._waiters.pop(tenant, None)
            granted = True
        else:
            granted = False
        if granted:
            self.grants[tenant] += 1
            self.events.append(LeaseEvent(now, tenant, "grant", tenant))
        else:
            self.denials[tenant] += 1
            if tenant not in self._waiters:
                self._waiters[tenant] = self._arrival_seq
                self._arrival_seq += 1
            self._last_denier = self._holder or self._reserved
            self.events.append(
                LeaseEvent(now, tenant, "deny", self._last_denier))
        self._decision = granted
        return granted

    def denied_this_invocation(self) -> Tuple[bool, Optional[str]]:
        """Whether the open invocation was denied, and by which holder."""
        if self._decision is False:
            return True, self._last_denier
        return False, None

    def end_invocation(self, tenant: str, now: float) -> None:
        if tenant != self._current:
            raise SchedulingError(
                f"end_invocation from {tenant!r} outside its invocation")
        granted = self._decision
        self._current = None
        self._decision = None
        if granted and self._holder == tenant:
            self._held_invocations += 1
            if self._held_invocations >= self.lease_quantum:
                self._release(tenant, now)

    def retire(self, tenant: str, now: float) -> None:
        """Tenant's stream is exhausted: free anything it holds."""
        self._waiters.pop(tenant, None)
        if self._holder == tenant:
            self._release(tenant, now)
        elif self._reserved == tenant:
            self._reserved = self._take_next_waiter()

    # -- internals ---------------------------------------------------------------

    def _release(self, tenant: str, now: float) -> None:
        self._holder = None
        self._held_invocations = 0
        self._reserved = self._take_next_waiter()
        self.events.append(LeaseEvent(now, tenant, "release", self._reserved))

    def _take_next_waiter(self) -> Optional[str]:
        chosen = self._next_waiter()
        if chosen is not None:
            del self._waiters[chosen]
        return chosen

    def _next_waiter(self) -> Optional[str]:
        if not self._waiters:
            return None
        if self.policy == "fifo":
            return min(self._waiters, key=self._waiters.__getitem__)

        def rank(name: str) -> Tuple[float, int, int]:
            tenant = self._tenants[name]
            deadline = (tenant.deadline_s if tenant.deadline_s is not None
                        else float("inf"))
            return (deadline, -tenant.priority, self._waiters[name])

        return min(self._waiters, key=rank)


class TenantSoCView:
    """A tenant's software-visible window onto the shared processor.

    Every attribute delegates to the underlying processor (or
    :class:`~repro.soc.faults.FaultySoC` wrapper), so clocks, MSRs,
    counters, and phase execution are shared SoC state.  Only
    ``gpu_busy`` differs: it is the *logical* A26 - physically busy,
    or leased to another tenant.  The scheduler on top cannot tell the
    difference, which is the point: the Section-5 fallback executes
    against genuine contention with zero scheduler changes.
    """

    def __init__(self, processor, arbiter: GpuLeaseArbiter,
                 tenant: str) -> None:
        self._processor = processor
        self._arbiter = arbiter
        self._tenant = tenant

    @property
    def gpu_busy(self) -> bool:
        if self._processor.gpu_busy:
            return True
        return not self._arbiter.poll(self._tenant, self._processor.now)

    def __getattr__(self, name: str):
        return getattr(self._processor, name)


@dataclass(frozen=True)
class TenantResult:
    """Per-tenant outcome of one multiprogram run."""

    name: str
    workload: str
    priority: int
    invocations: int
    #: Sum of the tenant's invocation durations / software-visible
    #: MSR energies (exact attribution: invocations are serialized).
    time_s: float
    energy_j: float
    #: Arbiter bookkeeping for this tenant.
    lease_grants: int
    lease_denials: int
    #: Invocations that exited through EXIT_GPU_BUSY.
    gpu_busy_exits: int
    results: Tuple[InvocationResult, ...] = ()
    #: Audit payload; excluded from :meth:`canonical` (same contract
    #: as :class:`~repro.harness.chaos.ChaosCell`).
    decisions: Tuple[DecisionRecord, ...] = ()

    def canonical(self) -> str:
        """Byte-stable serialization of every measured quantity."""
        invocations = ";".join(
            f"{r.kernel_name}|{r.n_items!r}|{r.duration_s!r}|{r.energy_j!r}|"
            f"{r.cpu_items!r}|{r.gpu_items!r}|{r.alpha!r}|{','.join(r.notes)}"
            for r in self.results)
        return (f"{self.name}|{self.workload}|{self.priority}|"
                f"{self.invocations}|{self.time_s!r}|{self.energy_j!r}|"
                f"{self.lease_grants}|{self.lease_denials}|"
                f"{self.gpu_busy_exits}|{invocations}")


@dataclass
class MultiprogramResult:
    """Outcome of one multiprogram co-scheduling run."""

    platform: str
    policy: str
    seed: int
    fault_level: float
    lease_quantum: int
    tenants: List[TenantResult]
    lease_events: Tuple[LeaseEvent, ...] = ()
    #: Ground-truth totals over the whole co-run (shared SoC clock and
    #: lifetime MSR, immune to software MSR fault injection).
    total_time_s: float = 0.0
    total_energy_j: float = 0.0
    #: Ground-truth work accounting from the simulator's counters -
    #: the runtime's all-items-processed contract, verified across
    #: every tenant's whole stream.
    items_expected: float = 0.0
    items_processed: float = 0.0

    @property
    def all_items_processed(self) -> bool:
        return abs(self.items_processed - self.items_expected) <= max(
            1e-6 * self.items_expected, 1e-6)

    @property
    def total_gpu_busy_exits(self) -> int:
        return sum(t.gpu_busy_exits for t in self.tenants)

    @property
    def total_lease_denials(self) -> int:
        return sum(t.lease_denials for t in self.tenants)

    def tenant(self, name: str) -> TenantResult:
        for result in self.tenants:
            if result.name == name:
                return result
        raise SchedulingError(f"no tenant named {name!r}")

    def fingerprint(self) -> str:
        """Byte-identical reruns (same mix, policy, seed) hash equal."""
        payload = "\n".join([
            f"{self.platform}|{self.policy}|{self.seed}|"
            f"{self.fault_level!r}|{self.lease_quantum}|"
            f"{self.total_time_s!r}|{self.total_energy_j!r}|"
            f"{self.items_expected!r}|{self.items_processed!r}",
            *(t.canonical() for t in self.tenants),
            *(e.canonical() for e in self.lease_events),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def render(self) -> str:
        from repro.harness.report import format_table, heading

        rows = [(t.name, t.workload, t.priority, t.invocations,
                 t.lease_grants, t.lease_denials, t.gpu_busy_exits,
                 t.time_s, t.energy_j)
                for t in self.tenants]
        table = format_table(
            ["tenant", "workload", "prio", "invocations", "grants",
             "denials", "gpu-busy exits", "time (s)", "energy (J)"],
            rows, float_digits=4)
        return "\n".join([
            heading(f"Multiprogram run on {self.platform} "
                    f"(policy={self.policy}, quantum={self.lease_quantum}, "
                    f"seed={self.seed})"),
            table,
            "",
            f"total: {self.total_time_s:.4f} s, "
            f"{self.total_energy_j:.2f} J, "
            f"{len(self.lease_events)} lease events",
            f"all items processed: "
            f"{'PASS' if self.all_items_processed else 'FAIL'}",
            f"fingerprint: {self.fingerprint()}",
        ])


def parse_tenant_specs(text: str) -> Tuple[TenantSpec, ...]:
    """Parse the CLI's ``--tenants`` syntax.

    Comma-separated entries, each ``ABBREV[:priority[:deadline_s]]``,
    e.g. ``"MM,BS"`` or ``"MM:2,BS:0:1.5"``.  Names are assigned
    positionally (``<abbrev>-<index>``), so two tenants may run the
    same workload.

    Deadlines must be positive and finite: ``float()`` happily parses
    ``"-5"``, ``"0"``, ``"nan"``, and ``"inf"``, all of which would
    corrupt the arbiter's earliest-deadline ordering, so entries
    carrying them are rejected with :class:`~repro.errors.SpecError`
    naming the offending entry.
    """
    entries = [e.strip() for e in text.split(",") if e.strip()]
    if not entries:
        raise SchedulingError("empty tenant specification")
    specs = []
    for i, entry in enumerate(entries):
        parts = entry.split(":")
        if len(parts) > 3:
            raise SchedulingError(
                f"bad tenant entry {entry!r}; expected "
                "ABBREV[:priority[:deadline_s]]")
        abbrev = parts[0].strip().upper()
        try:
            priority = int(parts[1]) if len(parts) > 1 else 0
            deadline = float(parts[2]) if len(parts) > 2 else None
        except ValueError as exc:
            raise SchedulingError(f"bad tenant entry {entry!r}: {exc}")
        try:
            specs.append(TenantSpec(name=f"{abbrev}-{i}", workload=abbrev,
                                    priority=priority, deadline_s=deadline))
        except SpecError as exc:
            raise SpecError(f"bad tenant entry {entry!r}: {exc}") from None
    return tuple(specs)


def run_multiprogram(spec: Optional[PlatformSpec] = None,
                     tenants: Sequence[TenantSpec] = (),
                     policy: str = "fifo",
                     seed: int = 0,
                     metric: Optional["EnergyMetric"] = None,
                     tablet: bool = False,
                     fault_level: float = 0.0,
                     fault_config: Optional[FaultConfig] = None,
                     lease_quantum: int = DEFAULT_LEASE_QUANTUM,
                     eas_config: Optional["SchedulerConfig"] = None,
                     observer: Optional[Observer] = None,
                     characterization=None) -> MultiprogramResult:
    """Co-schedule ``tenants`` on one simulated SoC under EAS.

    The tenants' invocation streams interleave round-robin in
    registration order - one ``parallel_for`` invocation is one
    indivisible step, exactly as on real Concord where the call blocks
    the issuing application.  Each tenant gets its own scheduler (own
    table G, own decision stream) over its own
    :class:`TenantSoCView`; the shared :class:`GpuLeaseArbiter` makes
    ``gpu_busy`` real.  Fully deterministic for a fixed (mix, policy,
    seed): there is no wall-clock or OS-thread nondeterminism anywhere
    in the loop.

    ``fault_level > 0`` additionally wraps the shared SoC in the PR-1
    fault-injection substrate, so chaos campaigns can exercise
    contention and hardware faults together.  ``fault_config``
    overrides the level-derived :class:`FaultConfig` with an explicit
    one (the differential harness uses this to run faulted cells with
    MSR read corruption off); ``fault_level`` still stamps the result.
    """
    from repro.core.metrics import EDP, ConstrainedMetric
    from repro.core.scheduler import EnergyAwareScheduler
    from repro.harness.suite import get_characterization
    from repro.workloads.registry import workload_by_abbrev

    spec = spec or haswell_desktop()
    if metric is None:
        metric = EDP
    if not tenants:
        raise SchedulingError("run_multiprogram needs at least one tenant")
    if characterization is None:
        characterization = get_characterization(spec)

    inner = IntegratedProcessor(spec, observer=observer)
    processor = inner
    if fault_config is not None:
        processor = FaultySoC(inner, fault_config)
    elif fault_level > 0.0:
        processor = FaultySoC(
            inner, FaultConfig.from_level(fault_level, seed=seed))
    arbiter = GpuLeaseArbiter(policy=policy, lease_quantum=lease_quantum)

    class _Tenant:
        def __init__(self, ts: TenantSpec) -> None:
            self.spec = ts
            self.workload = workload_by_abbrev(ts.workload)
            self.view = TenantSoCView(processor, arbiter, ts.name)
            self.observer = None
            if observer is not None and observer.enabled:
                self.observer = Observer(metadata={
                    "tenant": ts.name, "workload": ts.workload,
                    "policy": policy})
            self.runtime = ConcordRuntime(self.view, observer=self.observer)
            # A tenant deadline constrains that tenant's own objective:
            # the same deadline_s the arbiter ranks by becomes the
            # scheduler's per-invocation completion budget, so lease
            # priority and the per-SoC alpha search finally agree.
            # Already-constrained or custom metrics pass through as-is.
            tenant_metric = metric
            if (ts.deadline_s is not None
                    and not isinstance(metric, ConstrainedMetric)
                    and metric.custom_fn is None):
                tenant_metric = ConstrainedMetric.constrain(
                    metric, ts.deadline_s)
            self.scheduler = EnergyAwareScheduler(
                characterization, tenant_metric, config=eas_config,
                observer=self.observer)
            self.kernel = self.workload.make_kernel(tablet=tablet)
            self.pending = list(self.workload.invocations(tablet=tablet))
            self.results: List[InvocationResult] = []

    states = []
    for ts in tenants:
        arbiter.register(ts)
        states.append(_Tenant(ts))

    t0 = inner.now
    e0 = inner.msr.lifetime_joules
    counters0 = inner.snapshot_counters()
    expected = sum(inv.n_items for s in states for inv in s.pending)
    active = [s for s in states if s.pending]
    while active:
        context = "" if len(active) == 1 else f"mp{len(active)}"
        for state in list(active):
            name = state.spec.name
            invocation = state.pending.pop(0)
            state.scheduler.co_run_context = context
            arbiter.begin_invocation(name, processor.now)
            decisions_before = len(state.scheduler.decisions)
            result = state.runtime.parallel_for(
                state.kernel, invocation.n_items, state.scheduler)
            denied, denier = arbiter.denied_this_invocation()
            arbiter.end_invocation(name, processor.now)
            state.results.append(result)
            for record in state.scheduler.decisions[decisions_before:]:
                record.tenant = name
                if denied and record.exit_path == EXIT_GPU_BUSY:
                    record.notes.append(
                        f"{LEASE_DENIED_NOTE}:{denier or 'reservation'}")
            if not state.pending:
                arbiter.retire(name, processor.now)
        active = [s for s in states if s.pending]

    tenant_results = []
    for state in states:
        name = state.spec.name
        decisions = tuple(state.scheduler.decisions)
        tenant_results.append(TenantResult(
            name=name,
            workload=state.spec.workload,
            priority=state.spec.priority,
            invocations=len(state.results),
            time_s=sum(r.duration_s for r in state.results),
            energy_j=sum(r.energy_j for r in state.results),
            lease_grants=arbiter.grants[name],
            lease_denials=arbiter.denials[name],
            gpu_busy_exits=sum(1 for d in decisions
                               if d.exit_path == EXIT_GPU_BUSY),
            results=tuple(state.results),
            decisions=decisions,
        ))
        if observer is not None and state.observer is not None:
            state.observer.bind_sim_clock(None)
            observer.set_gauge(f"tenancy.lease_grants.{name}",
                               arbiter.grants[name])
            observer.set_gauge(f"tenancy.lease_denials.{name}",
                               arbiter.denials[name])
            observer.merge_child(state.observer)
    if observer is not None and observer.enabled:
        observer.event("tenancy.run_complete", policy=policy,
                       tenants=len(states),
                       lease_events=len(arbiter.events))

    counters1 = inner.snapshot_counters()
    return MultiprogramResult(
        platform=spec.name,
        policy=policy,
        seed=seed,
        fault_level=fault_level,
        lease_quantum=lease_quantum,
        tenants=tenant_results,
        lease_events=tuple(arbiter.events),
        total_time_s=inner.now - t0,
        total_energy_j=inner.msr.lifetime_joules - e0,
        items_expected=expected,
        items_processed=(counters1.cpu_items - counters0.cpu_items
                         + counters1.gpu_items - counters0.gpu_items),
    )
