"""Characterization caches (process, disk, pool seeding) and trace
CSV export."""

import dataclasses
import os

import pytest

from repro.core.metrics import EDP
from repro.core.scheduler import EnergyAwareScheduler
from repro.harness.engine import ExecutionEngine, RunSpec, SchedulerSpec
from repro.harness.experiment import run_application
from repro.harness.suite import (
    characterization_key,
    characterization_path,
    clear_characterization_cache,
    get_characterization,
)
from repro.soc.simulator import IntegratedProcessor, PhaseRequest
from repro.soc.spec import baytrail_tablet
from repro.workloads.registry import workload_by_abbrev
from repro.soc.trace import write_csv
from repro.soc.work import CostProfile, WorkRegion


class TestDiskCache:
    def test_characterization_persisted_and_reloaded(self, desktop, tmp_path):
        cache_dir = str(tmp_path / "cache")
        clear_characterization_cache()
        try:
            first = get_characterization(desktop, cache_dir=cache_dir)
            path = characterization_path(cache_dir, desktop)
            assert os.path.basename(path).startswith(
                f"characterization-{desktop.name}-")
            assert os.listdir(cache_dir) == [os.path.basename(path)]

            # A fresh process would hit the file: simulate by clearing
            # the in-memory cache and poisoning the file check.
            clear_characterization_cache()
            reloaded = get_characterization(desktop, cache_dir=cache_dir)
            assert reloaded.platform_name == first.platform_name
            for category, curve in first.curves.items():
                assert reloaded.curve_for(category).coefficients == \
                    pytest.approx(curve.coefficients)
        finally:
            # Leave the session-scoped in-memory cache repopulated for
            # other tests.
            clear_characterization_cache()
            get_characterization(desktop)

    def test_corrupt_cache_file_raises_cleanly(self, desktop, tmp_path):
        cache_dir = str(tmp_path)
        path = characterization_path(cache_dir, desktop)
        with open(path, "w") as fh:
            fh.write("{not json")
        clear_characterization_cache()
        try:
            with pytest.raises(Exception):
                get_characterization(desktop, cache_dir=cache_dir)
        finally:
            clear_characterization_cache()
            get_characterization(desktop)


def _recapped_tablet():
    """The stock tablet under a lower package cap, keeping its name."""
    stock = baytrail_tablet()
    return dataclasses.replace(
        stock, pcu=dataclasses.replace(stock.pcu, package_cap_w=1.5))


class TestCharacterizationKey:
    """Every characterization cache is keyed on the platform's model
    identity and the sweep step, never on the platform name alone."""

    def test_stepping_fields_share_a_key(self):
        exact = baytrail_tablet()
        assert (characterization_key(exact)
                == characterization_key(baytrail_tablet(tick_mode="fast"))
                == characterization_key(dataclasses.replace(
                    exact, tick_mode="bounded", bounded_tol=1e-3)))

    def test_model_fields_and_step_move_the_key(self, tmp_path):
        stock = baytrail_tablet()
        keys = {characterization_key(stock),
                characterization_key(_recapped_tablet()),
                characterization_key(stock, sweep_step=0.1)}
        assert len(keys) == 3
        assert (characterization_path(str(tmp_path), stock)
                != characterization_path(str(tmp_path), _recapped_tablet()))

    def test_recapped_platform_gets_its_own_fit(
            self, tablet_characterization):
        # The stock fit is cached first, under the same platform name.
        fit = get_characterization(_recapped_tablet())
        assert fit.platform_name == tablet_characterization.platform_name
        assert fit.to_json() != tablet_characterization.to_json()
        assert get_characterization(_recapped_tablet()) is fit

    def test_recapped_eas_payload_serial_equals_pool(
            self, tablet_characterization):
        recapped = _recapped_tablet()
        specs = [RunSpec(platform=recapped, workload=abbrev,
                         scheduler=SchedulerSpec.eas(), tablet=True)
                 for abbrev in ("MM", "SL")]
        serial = ExecutionEngine(jobs=1).run_batch(specs)
        pooled = ExecutionEngine(jobs=2).run_batch(specs)
        for got, want in zip(pooled, serial):
            assert got.payload.canonical() == want.payload.canonical()
        # MM's EAS run depends on the fit: against the stock curves it
        # comes out differently, so the engine did not use them.
        on_stock_fit = run_application(
            recapped, workload_by_abbrev("MM"),
            EnergyAwareScheduler(tablet_characterization, EDP),
            strategy_name="EAS", tablet=True)
        assert serial[0].payload.canonical() != on_stock_fit.canonical()

    def test_sweep_steps_get_distinct_fits(self, tablet_characterization):
        coarse = get_characterization(baytrail_tablet(), sweep_step=0.1)
        assert coarse is not tablet_characterization
        assert coarse is get_characterization(baytrail_tablet(),
                                              sweep_step=0.1)
        assert coarse.to_json() != tablet_characterization.to_json()


class TestTraceCsv:
    def test_roundtrip_columns(self, desktop, compute_cost, tmp_path):
        processor = IntegratedProcessor(desktop, trace_enabled=True)
        region = WorkRegion.for_span(CostProfile(compute_cost), 50_000.0,
                                     0.0, 50_000.0)
        processor.run_phase(PhaseRequest(cost=compute_cost,
                                         cpu_region=region, gpu_region=None))
        path = str(tmp_path / "trace.csv")
        rows = write_csv(processor.trace, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].split(",")[0] == "t_s"
        assert len(lines) == rows + 1
        first = lines[1].split(",")
        assert len(first) == 9
        assert float(first[2]) > 0.0  # package watts

    def test_empty_trace(self, tmp_path):
        from repro.soc.trace import PowerTrace

        path = str(tmp_path / "empty.csv")
        assert write_csv(PowerTrace(), path) == 0
