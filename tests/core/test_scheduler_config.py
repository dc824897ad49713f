""":class:`SchedulerConfig` validation; loose scheduler knobs are rejected."""

import warnings

import pytest

from repro.core.metrics import EDP
from repro.core.scheduler import EnergyAwareScheduler, SchedulerConfig
from repro.errors import SchedulingError


class TestValidation:
    def test_defaults_are_valid(self):
        SchedulerConfig()  # __post_init__ validates

    @pytest.mark.parametrize("field,value", [
        ("alpha_step", 0.0),
        ("alpha_step", 1.5),
        ("profile_fraction", 0.0),
        ("profile_fraction", 1.1),
        ("chunk_growth", 0.5),
        ("reprofile_growth", 0.9),
        ("gpu_profile_size", 0),
        ("gpu_profile_size", -1),
        ("max_profile_retries", -1),
        ("retry_backoff_s", -0.1),
        ("fault_cooldown_s", -1.0),
        ("fault_budget", 0),
        ("max_profile_rounds", 0),
        ("gpu_busy_rechecks", -1),
        ("gpu_busy_recheck_idle_s", -1e-9),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(SchedulingError, match=field):
            SchedulerConfig(**{field: value})

    def test_negative_convergence_tolerance_is_a_sentinel(self):
        """-1 disables convergence; it must stay constructible."""
        SchedulerConfig(convergence_tolerance=-1.0)

    def test_gpu_profile_size_none_means_platform_default(self):
        assert SchedulerConfig(gpu_profile_size=None).gpu_profile_size is None


class TestDeprecationShims:
    """The retired loose-knob spelling: SchedulerConfig is the only way
    to tune the scheduler."""

    def test_scheduler_config_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SchedulerConfig(fault_budget=5)

    def test_loose_knobs_rejected(self, desktop_characterization):
        with pytest.raises(TypeError):
            EnergyAwareScheduler(desktop_characterization, EDP,
                                 fault_budget=7)

    def test_config_and_kwargs_together_rejected(
            self, desktop_characterization):
        with pytest.raises(TypeError):
            EnergyAwareScheduler(desktop_characterization, EDP,
                                 config=SchedulerConfig(),
                                 fault_budget=7)
