"""Property suite for the roofline throughput model (``compute_rates``).

Physical sanity the simulator's rate model must keep for any kernel
cost: throughput is non-negative, stall fractions stay in [0, 1], and
CPU throughput is monotone in CPU frequency when the GPU is off the
memory system.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.cost_model import KernelCostModel
from repro.soc.device import compute_rates
from repro.soc.spec import baytrail_tablet, haswell_desktop

_SPECS = {"desktop": haswell_desktop(), "tablet": baytrail_tablet()}


@st.composite
def cost_models(draw):
    return KernelCostModel(
        name="prop",
        instructions_per_item=draw(st.floats(10.0, 1e6)),
        loadstore_fraction=draw(st.floats(0.0, 1.0)),
        l3_miss_rate=draw(st.floats(0.0, 1.0)),
        cpu_simd_efficiency=draw(st.floats(0.05, 1.0)),
        gpu_simd_efficiency=draw(st.floats(0.05, 1.0)),
        gpu_divergence=draw(st.floats(0.0, 0.9)),
        gpu_instruction_expansion=draw(st.floats(0.5, 4.0)),
        gpu_traffic_factor=draw(st.floats(0.25, 2.0)),
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SPECS)), cost_models(),
       st.integers(0, 2**32 - 1))
def test_cpu_rate_monotone_in_frequency_gpu_idle(platform, cost, seed):
    """With the GPU off the memory system, raising the CPU clock never
    lowers CPU throughput (roofline: compute leg rises, bandwidth leg
    caps)."""
    spec = _SPECS[platform]
    rng = np.random.default_rng(seed)
    cpu_f = np.sort(rng.uniform(spec.cpu.min_freq_hz,
                                spec.cpu.turbo_freq_hz, 16))
    rates = [compute_rates(spec, cost, float(f), spec.gpu.min_freq_hz,
                           float(spec.cpu.num_cores), 0.0,
                           cpu_active=True, gpu_active=False)
             for f in cpu_f]
    items = np.array([r.cpu_items_per_s for r in rates])
    assert np.all(items >= 0.0)
    assert np.all(np.diff(items) >= 0.0)
    stalls = np.array([r.cpu_memory_stall_fraction for r in rates])
    assert np.all((stalls >= 0.0) & (stalls <= 1.0))
