"""Engine tests: the content-addressed result cache, the pool, and
the input check in front of both.

Five contracts:

1. **key sensitivity** - the cache key moves when any RunSpec field
   or the schema version changes, so no spec can ever be served
   another spec's result;
2. **integrity** - corrupted or truncated entries are detected via
   checksum, evicted, and recomputed, never trusted;
3. **bypass** - ``--no-cache`` (engine without a cache) neither reads
   nor writes;
4. **pool** - a pooled batch returns results in submission order and
   dies promptly, caching nothing, when a worker is interrupted;
5. **input check** - grids a worker could not rebuild from specs are
   refused before any simulation.
"""

import dataclasses
import os
import pickle
import time

import pytest

from repro.core.metrics import EnergyMetric, metric_by_name
from repro.core.scheduler import SchedulerConfig
from repro.errors import HarnessError
from repro.harness import engine as engine_mod
from repro.harness.chaos import run_chaos_campaign
from repro.harness.cli import _make_cache
from repro.harness.engine import (
    _MAGIC,
    ExecutionEngine,
    ResultCache,
    RunResult,
    RunSpec,
    SchedulerSpec,
    execute_spec,
    get_default_engine,
    set_default_engine,
    use_engine,
)
from repro.harness.suite import evaluate_suite, sweep_alphas
from repro.soc.spec import baytrail_tablet, haswell_desktop
from repro.workloads.registry import workload_by_abbrev


@pytest.fixture
def base_spec():
    return RunSpec(platform=haswell_desktop(), workload="MB",
                   scheduler=SchedulerSpec.static(0.5))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "runs"))


class TestKeySensitivity:
    def test_key_is_deterministic(self, base_spec):
        clone = RunSpec(platform=haswell_desktop(), workload="MB",
                        scheduler=SchedulerSpec.static(0.5))
        assert base_spec.cache_key() == clone.cache_key()

    @pytest.mark.parametrize("override", [
        {"platform": baytrail_tablet()},
        {"workload": "BS"},
        {"scheduler": SchedulerSpec.static(0.6)},
        {"scheduler": SchedulerSpec.eas()},
        {"scheduler": SchedulerSpec.perf()},
        {"tablet": True},
        {"fault_level": 0.25},
        {"seed": 1},
        {"params": (("alpha", 0.9),)},
        {"observe": True},
    ])
    def test_any_field_change_moves_the_key(self, base_spec, override):
        changed = dataclasses.replace(base_spec, **override)
        assert changed.cache_key() != base_spec.cache_key()

    def test_scheduler_overrides_move_the_key(self, base_spec):
        from repro.core.scheduler import SchedulerConfig

        tweaked = dataclasses.replace(
            base_spec,
            scheduler=SchedulerSpec.eas(
                config=SchedulerConfig(profile_fraction=0.2)))
        plain = dataclasses.replace(base_spec,
                                    scheduler=SchedulerSpec.eas())
        assert tweaked.cache_key() != plain.cache_key()

    def test_schema_version_moves_the_key(self, base_spec, monkeypatch):
        before = base_spec.cache_key()
        monkeypatch.setattr(engine_mod, "CACHE_SCHEMA_VERSION",
                            engine_mod.CACHE_SCHEMA_VERSION + 1)
        assert base_spec.cache_key() != before

    def test_metric_name_moves_eas_key(self, base_spec):
        edp = dataclasses.replace(base_spec,
                                  scheduler=SchedulerSpec.eas("edp"))
        energy = dataclasses.replace(base_spec,
                                     scheduler=SchedulerSpec.eas("energy"))
        assert edp.cache_key() != energy.cache_key()

    def test_tick_modes_hash_distinct(self, base_spec):
        keys = {
            dataclasses.replace(
                base_spec, platform=haswell_desktop(tick_mode=mode)
            ).cache_key()
            for mode in ("exact", "fast", "bounded")
        }
        assert len(keys) == 3

    def test_bounded_tol_hashes_distinct(self, base_spec):
        base = haswell_desktop(tick_mode="bounded")
        loose = dataclasses.replace(base, bounded_tol=1e-4)
        assert (dataclasses.replace(base_spec, platform=base).cache_key()
                != dataclasses.replace(base_spec, platform=loose).cache_key())


class TestEasMetricRoundTrip:
    """Workers rebuild the EAS metric from ``SchedulerSpec.metric``
    alone, so a metric object its name does not reproduce must be
    refused at spec construction, not silently run as another one."""

    def test_name_alias_with_other_exponent_rejected(self):
        from repro.core.metrics import EnergyMetric

        with pytest.raises(HarnessError, match="edp"):
            SchedulerSpec.eas(EnergyMetric(name="edp", delay_exponent=3.0))

    def test_standard_and_constrained_objects_round_trip(self):
        from repro.core.metrics import ED2, EDP, ENERGY, ConstrainedMetric

        for metric in (ENERGY, EDP, ED2,
                       ConstrainedMetric.constrain(EDP, 2.0)):
            spec = SchedulerSpec.eas(metric)
            assert metric_by_name(spec.metric) == metric


class TestIntegrity:
    def _seed_entry(self, cache, key="k" * 64):
        cache.put(key, RunResult(key=key, payload={"x": 1.5}))
        return key, cache.path_for(key)

    def test_round_trip(self, cache):
        key, _ = self._seed_entry(cache)
        result = cache.get(key)
        assert result is not None
        assert result.payload == {"x": 1.5}
        assert result.from_cache is False  # set by the engine, not get()

    def test_truncated_entry_evicted(self, cache):
        key, path = self._seed_entry(cache)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:len(blob) // 2])
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_flipped_byte_evicted(self, cache):
        key, path = self._seed_entry(cache)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not os.path.exists(path)

    def test_wrong_magic_evicted(self, cache):
        key, path = self._seed_entry(cache)
        with open(path, "wb") as fh:
            fh.write(b"not a cache entry")
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_checksummed_but_non_result_pickle_rejected(self, cache):
        import hashlib

        key = "k" * 64
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        data = pickle.dumps({"not": "a RunResult"})
        with open(path, "wb") as fh:
            fh.write(_MAGIC + hashlib.sha256(data).digest() + data)
        assert cache.get(key) is None
        assert not os.path.exists(path)

    def test_eviction_emits_metric_and_warning(self, cache):
        """Evict-on-corruption is never silent: it bumps the
        ``cache.corrupt_evictions`` counter and warns with the key."""
        from repro.obs.observer import Observer

        observer = Observer()
        cache.observer = observer
        key, path = self._seed_entry(cache)
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        with pytest.warns(RuntimeWarning,
                          match=f"evicted corrupt entry {key}"):
            assert cache.get(key) is None
        counters = observer.metrics.snapshot()["counters"]
        assert counters["cache.corrupt_evictions"] == 1.0

    def test_run_batch_attaches_observer_to_cache(self, cache):
        from repro.obs.observer import Observer

        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=cache)
        engine.run_batch([spec])
        path = cache.path_for(spec.cache_key())
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        observer = Observer()
        with pytest.warns(RuntimeWarning, match="evicted corrupt entry"):
            engine.run_batch([spec], observer=observer)
        counters = observer.metrics.snapshot()["counters"]
        assert counters["cache.corrupt_evictions"] == 1.0

    def test_corrupted_entry_recomputed_through_engine(self, cache):
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=cache)
        reference = engine.run_batch([spec])[0]
        path = cache.path_for(spec.cache_key())
        with open(path, "wb") as fh:
            fh.write(b"garbage")
        recomputed = engine.run_batch([spec])[0]
        assert recomputed.from_cache is False
        assert (recomputed.payload.canonical()
                == reference.payload.canonical())
        # ...and the repaired entry is served on the next lookup.
        assert engine.run_batch([spec])[0].from_cache is True


class TestBypass:
    def test_no_cache_flag_yields_no_cache(self, tmp_path):
        import argparse

        args = argparse.Namespace(no_cache=True,
                                  cache_dir=str(tmp_path))
        assert _make_cache(args) is None
        args = argparse.Namespace(no_cache=False,
                                  cache_dir=str(tmp_path))
        built = _make_cache(args)
        assert isinstance(built, ResultCache)
        assert built.root == os.path.join(str(tmp_path), "runs")

    def test_engine_without_cache_touches_no_disk(self, tmp_path,
                                                  monkeypatch):
        # Even with REPRO_CACHE_DIR pointing somewhere, an engine built
        # with cache=None must not read or write run results there.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=None)
        result = engine.run_batch([spec])[0]
        assert result.from_cache is False
        assert not os.path.exists(os.path.join(str(tmp_path), "runs"))

    def test_no_cache_ignores_poisoned_entries(self, cache):
        """A cache-less engine cannot be poisoned: plant a wrong entry
        under the spec's key and verify the engine recomputes."""
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        truth = execute_spec(spec)
        cache.put(spec.cache_key(),
                  RunResult(key=spec.cache_key(), payload="poison"))
        without = ExecutionEngine(jobs=1, cache=None).run_batch([spec])[0]
        assert without.payload.canonical() == truth.payload.canonical()
        withc = ExecutionEngine(jobs=1, cache=cache).run_batch([spec])[0]
        assert withc.payload == "poison"  # proves the cache *was* live


class TestDefaultEngine:
    def test_use_engine_scopes_and_restores(self):
        baseline = get_default_engine()
        scoped = ExecutionEngine(jobs=2)
        with use_engine(scoped):
            assert get_default_engine() is scoped
        restored = get_default_engine()
        assert restored is not scoped
        assert restored.jobs == baseline.jobs

    def test_set_default_engine_none_falls_back(self):
        set_default_engine(None)
        engine = get_default_engine()
        assert engine.jobs == 1

    def test_default_engine_cache_follows_env(self, tmp_path,
                                              monkeypatch):
        set_default_engine(None)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert get_default_engine().cache is None
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = get_default_engine().cache
        assert cache is not None
        assert cache.root == os.path.join(str(tmp_path), "runs")

    def test_batch_deduplicates_identical_specs(self, cache):
        spec = RunSpec(platform=haswell_desktop(), workload="MB",
                       scheduler=SchedulerSpec.static(0.5))
        engine = ExecutionEngine(jobs=1, cache=cache)
        results = engine.run_batch([spec, spec, spec])
        assert cache.writes == 1
        assert results[0] is results[1] is results[2]


def _static_spec(platform, seed, tablet=False):
    return RunSpec(platform=platform, workload="MB",
                   scheduler=SchedulerSpec.static(0.5), seed=seed,
                   tablet=tablet)


def _first_spec_interrupts(spec):
    """Stand-in for ``execute_spec``: seed 0 raises KeyboardInterrupt,
    every other spec hangs (module-level so pool workers can unpickle
    it by qualified name)."""
    if spec.seed == 0:
        raise KeyboardInterrupt()
    time.sleep(120.0)


class TestPool:
    def test_single_spec_batch_through_parallel_engine(self):
        """jobs>1 with one pending spec runs in-process and still
        produces the reference result."""
        spec = _static_spec(haswell_desktop(), seed=7)
        parallel = ExecutionEngine(jobs=4).run_batch([spec])
        serial = ExecutionEngine(jobs=1).run_batch([spec])
        assert len(parallel) == 1
        assert parallel[0].payload.canonical() == serial[0].payload.canonical()

    def test_mixed_platform_batch_keeps_submission_order(self):
        specs = [_static_spec(haswell_desktop(), seed=0),
                 _static_spec(baytrail_tablet(), seed=1, tablet=True),
                 _static_spec(haswell_desktop(), seed=2)]
        results = ExecutionEngine(jobs=2).run_batch(specs)
        reference = ExecutionEngine(jobs=1).run_batch(specs)
        assert [r.key for r in results] == [s.cache_key() for s in specs]
        for got, want in zip(results, reference):
            assert got.payload.canonical() == want.payload.canonical()

    def test_keyboard_interrupt_tears_down_pool(self, monkeypatch, cache):
        """An interrupted worker kills the whole pooled batch promptly
        instead of waiting out every queued spec, and caches nothing."""
        monkeypatch.setattr(engine_mod, "execute_spec",
                            _first_spec_interrupts)
        engine = ExecutionEngine(jobs=2, cache=cache)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            engine.run_batch([_static_spec(haswell_desktop(), seed=i)
                              for i in range(4)])
        assert time.monotonic() - start < 30.0
        assert cache.writes == 0


class _SubclassedSL(type(workload_by_abbrev("SL"))):
    """A registry workload subclass that keeps the registry abbrev."""


class _TweakedConfig(SchedulerConfig):
    """A SchedulerConfig subclass: not rebuildable from its fields."""


class _RefusingEngine:
    def run_batch(self, specs, observer=None):
        raise AssertionError("simulated before the input check")


def _evaluate(workloads, metric, eas_config):
    return evaluate_suite(haswell_desktop(), workloads, metric,
                          eas_config=eas_config, engine=_RefusingEngine())


def _chaos(workloads, metric, eas_config):
    return run_chaos_campaign(workloads=workloads, metric=metric,
                              eas_config=eas_config,
                              engine=_RefusingEngine())


class TestEngineInputCheck:
    """evaluate_suite and run_chaos_campaign run only through the
    engine, so anything a worker would rebuild differently is refused
    up front, naming the input, instead of silently simulating the
    registry default."""

    @pytest.mark.parametrize("entry", [_evaluate, _chaos])
    @pytest.mark.parametrize("workloads, metric, eas_config, named", [
        ([_SubclassedSL()], metric_by_name("edp"), None, "_SubclassedSL"),
        ([workload_by_abbrev("SL")],
         EnergyMetric(name="mine", custom_fn=lambda p, t: p * t * t),
         None, "mine"),
        ([workload_by_abbrev("SL")], metric_by_name("edp"),
         _TweakedConfig(), "_TweakedConfig"),
    ], ids=["subclassed-workload", "custom-metric", "config-subclass"])
    def test_rejected_before_any_simulation(self, entry, workloads, metric,
                                            eas_config, named):
        with pytest.raises(HarnessError, match=named):
            entry(workloads, metric, eas_config)

    def test_sweep_alphas_runs_a_subclass_in_process(self):
        """sweep_alphas keeps its in-process loop for workloads the
        engine cannot rebuild; it matches the engine-run registry
        workload exactly."""
        desktop = haswell_desktop()
        inline = sweep_alphas(desktop, _SubclassedSL(), step=0.5,
                              engine=_RefusingEngine())
        engine = sweep_alphas(desktop, workload_by_abbrev("SL"), step=0.5,
                              engine=ExecutionEngine(jobs=1))
        assert inline.alphas == [0.0, 0.5, 1.0]
        assert inline.fingerprint() == engine.fingerprint()
