"""Explicit tick-mode plumbing: the clock mode is a spec field."""

import pytest

from repro.errors import SpecError
from repro.soc.spec import TICK_MODES, baytrail_tablet, haswell_desktop


class TestExplicitParameter:
    def test_factories_take_tick_mode(self):
        for factory in (haswell_desktop, baytrail_tablet):
            assert factory().tick_mode == "exact"
            assert factory(tick_mode="fast").tick_mode == "fast"
            assert factory(tick_mode=None).tick_mode == "exact"

    def test_with_tick_mode(self):
        spec = haswell_desktop()
        fast = spec.with_tick_mode("fast")
        assert fast.tick_mode == "fast"
        assert spec.tick_mode == "exact"  # original untouched
        assert fast.name == spec.name
        assert spec.with_tick_mode("exact") is spec  # no-op shortcut

    def test_invalid_mode_rejected(self):
        with pytest.raises(SpecError):
            haswell_desktop(tick_mode="warp")
        with pytest.raises(SpecError):
            haswell_desktop().with_tick_mode("warp")

    def test_modes_inventory(self):
        assert TICK_MODES == ("exact", "fast", "bounded")

    def test_bounded_tol_validated(self):
        spec = haswell_desktop(tick_mode="bounded")
        assert spec.bounded_tol == pytest.approx(1e-6)
        import dataclasses

        with pytest.raises(SpecError):
            dataclasses.replace(spec, bounded_tol=0.0)
        with pytest.raises(SpecError):
            dataclasses.replace(spec, bounded_tol=-1e-9)


class TestNoCrossTestLeakage:
    """Building a spec never mutates process state: two tests that
    pick different modes cannot contaminate each other."""

    def test_fast_spec_leaves_default_alone(self):
        spec = haswell_desktop(tick_mode="fast")
        assert spec.tick_mode == "fast"
        assert haswell_desktop().tick_mode == "exact"

    def test_sibling_specs_independent(self):
        fast = haswell_desktop(tick_mode="fast")
        exact = haswell_desktop(tick_mode="exact")
        assert (fast.tick_mode, exact.tick_mode) == ("fast", "exact")

