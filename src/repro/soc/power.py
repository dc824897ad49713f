"""Component power model for the simulated package.

Package power is the sum the paper enumerates in Section 2: CPU cores,
GPU cores, and the uncore (ring interconnect, LLC, memory controller),
plus an idle floor.  Core and EU dynamic power scale super-linearly
with frequency (``coeff * f**exponent``, the classical ``C*V^2*f`` shape
with voltage folded into the exponent).  Memory-stalled units clock-gate
much of their datapath, so their dynamic power is scaled by a per-device
stall factor - on the desktop calibration, stalled CPU cores still burn
most of their power (deep out-of-order machinery keeps spinning), while
on the tablet stalled in-order cores gate down hard; this asymmetry is
what produces the paper's observation that memory-bound work draws
*more* power than compute-bound work on the desktop (63 W vs 55 W
during co-execution) but *less* on the tablet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.device import DeviceRates
from repro.soc.spec import PlatformSpec


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous package power split by component, watts."""

    cpu_w: float
    gpu_w: float
    uncore_w: float
    idle_w: float

    @property
    def package_w(self) -> float:
        return self.cpu_w + self.gpu_w + self.uncore_w + self.idle_w


def _stall_scaled(dynamic_w: float, stall_fraction: float, stall_factor: float) -> float:
    """Scale dynamic power for a unit that is partially memory-stalled.

    A unit stalled for fraction ``s`` of the time burns full dynamic
    power while executing and ``stall_factor`` of it while stalled.
    """
    return dynamic_w * ((1.0 - stall_fraction) + stall_fraction * stall_factor)


def package_power(spec: PlatformSpec, rates: DeviceRates,
                  cpu_freq_hz: float, gpu_freq_hz: float,
                  cpu_active_cores: float, gpu_active: bool) -> PowerBreakdown:
    """Instantaneous package power for the current tick."""
    cpu_w = 0.0
    if cpu_active_cores > 0:
        dyn = spec.cpu.dynamic_power_w(cpu_freq_hz, cpu_active_cores)
        dyn = _stall_scaled(dyn, rates.cpu_memory_stall_fraction,
                            spec.cpu.memory_stall_power_factor)
        cpu_w = dyn + spec.cpu.leakage_per_core_w * cpu_active_cores

    gpu_w = 0.0
    if gpu_active:
        # EU utilization tracks throughput relative to a fully-occupied
        # array; approximate it as 1.0 while a kernel is resident (the
        # array is clock-ungated) with stall scaling on top.
        dyn = spec.gpu.dynamic_power_w(gpu_freq_hz, 1.0)
        dyn = _stall_scaled(dyn, rates.gpu_memory_stall_fraction,
                            spec.gpu.memory_stall_power_factor)
        gpu_w = dyn + spec.gpu.leakage_w

    uncore_w = (spec.memory.uncore_static_w
                + spec.memory.traffic_power_w(rates.total_traffic_bytes_per_s))

    return PowerBreakdown(cpu_w=cpu_w, gpu_w=gpu_w,
                          uncore_w=uncore_w, idle_w=spec.idle_power_w)


def idle_power(spec: PlatformSpec) -> PowerBreakdown:
    """Package power when both devices are idle."""
    return PowerBreakdown(cpu_w=0.0, gpu_w=0.0,
                          uncore_w=spec.memory.uncore_static_w,
                          idle_w=spec.idle_power_w)
