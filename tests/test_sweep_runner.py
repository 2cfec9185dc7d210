"""Tests for the sweep-execution layer (repro.experiments.runner).

Covers the ISSUE-1 guarantees: byte-identical rows between serial and
parallel execution, cache hit-on-rerun / miss-on-spec-change, observer
accounting, and a warm-cache figure rerun being >= 5x faster than the
cold run.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.experiments.common import synthetic_phases
from repro.experiments.runner import (
    CACHE_SCHEMA_VERSION,
    PointSpec,
    SweepCache,
    SweepObserver,
    run_sweep,
)
from repro.noc.config import NocConfig
from repro.noc.layers import RunOptions

TINY = synthetic_phases(0.04)


def tiny_specs(seed: int = 7, loads=(0.02, 0.10, 0.20, 0.30)):
    config = NocConfig.multi_noc(2)
    return [
        PointSpec.synthetic(config, "uniform", load, TINY, seed)
        for load in loads
    ]


class RecordingObserver(SweepObserver):
    def __init__(self):
        self.started_with = None
        self.finished = []
        self.failures = []
        self.stats = None

    def sweep_started(self, specs, jobs, cached):
        self.started_with = len(specs)

    def point_finished(self, spec, result):
        self.finished.append((result.index, result.cached))

    def point_failed(self, spec, result):
        self.failures.append((result.index, result.error))

    def sweep_finished(self, stats):
        self.stats = stats


class TestPointSpec:
    def test_digest_is_stable_and_label_free(self):
        a, b = tiny_specs()[0], tiny_specs()[0]
        assert a.digest() == b.digest()
        assert a.with_label(variant="x").digest() == a.digest()

    def test_digest_changes_with_spec(self):
        spec = tiny_specs()[0]
        assert dataclasses.replace(spec, seed=99).digest() != spec.digest()
        assert (
            dataclasses.replace(spec, load=0.5).digest() != spec.digest()
        )

    def test_unknown_kind_rejected(self):
        from repro.experiments.runner import execute_point

        with pytest.raises(ValueError, match="unknown point kind"):
            execute_point(PointSpec(kind="nope"))

    def test_describe_names_the_point(self):
        text = tiny_specs()[0].describe()
        assert "2NT-256b" in text and "uniform" in text


class TestDeterminism:
    def test_serial_and_parallel_rows_identical(self):
        specs = tiny_specs()
        serial = run_sweep(specs, jobs=1, cache=None)
        parallel = run_sweep(specs, jobs=4, cache=None)
        assert serial == parallel

    def test_rows_are_labelled_in_spec_order(self):
        specs = [
            spec.with_label(order=i)
            for i, spec in enumerate(tiny_specs(loads=(0.02, 0.10)))
        ]
        rows = run_sweep(specs, jobs=2, cache=None)
        assert [row["order"] for row in rows] == [0, 1]


class TestCache:
    def test_hit_on_rerun(self, tmp_path):
        specs = tiny_specs(loads=(0.02, 0.10))
        cache = SweepCache(tmp_path)
        cold_obs, warm_obs = RecordingObserver(), RecordingObserver()
        cold = run_sweep(specs, jobs=1, cache=cache, observers=[cold_obs])
        warm = run_sweep(specs, jobs=1, cache=cache, observers=[warm_obs])
        assert cold == warm
        assert cold_obs.stats.cache_misses == 2
        assert warm_obs.stats.cache_hits == 2
        assert warm_obs.stats.cache_misses == 0

    def test_miss_on_spec_change(self, tmp_path):
        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)
        run_sweep([spec], jobs=1, cache=cache)
        changed = dataclasses.replace(spec, seed=8)
        obs = RecordingObserver()
        run_sweep([changed], jobs=1, cache=cache, observers=[obs])
        assert obs.stats.cache_misses == 1

    def test_schema_version_guards_entries(self, tmp_path):
        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)
        rows = run_sweep([spec], jobs=1, cache=cache)
        assert cache.get(spec) == rows
        # Corrupt the stored schema version: must read as a miss.
        path = next(tmp_path.glob("*.json"))
        path.write_text(
            path.read_text().replace(
                f'"schema": {CACHE_SCHEMA_VERSION}',
                f'"schema": {CACHE_SCHEMA_VERSION + 1}',
            )
        )
        assert cache.get(spec) is None

    def test_corrupt_file_reads_as_miss(self, tmp_path):
        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)
        run_sweep([spec], jobs=1, cache=cache)
        next(tmp_path.glob("*.json")).write_text("{not json")
        assert cache.get(spec) is None

    def test_clear(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(tiny_specs(loads=(0.02,)), jobs=1, cache=cache)
        assert cache.clear() == 1
        assert cache.clear() == 0

    def test_warm_fig06_rerun_is_5x_faster(self, tmp_path, monkeypatch):
        """Acceptance: warm-cache fig06 >= 5x faster than cold."""
        from repro.experiments.fig06_subnet_scaling import run_fig06

        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        started = time.perf_counter()
        cold = run_fig06(scale=0.1)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm = run_fig06(scale=0.1)
        warm_s = time.perf_counter() - started
        assert cold.rows == warm.rows
        assert warm_s * 5 <= cold_s, (cold_s, warm_s)


class TestFailureHandling:
    """Per-point crash capture: retry once serially, then surface."""

    def bad_spec(self):
        # Fails identically in workers and in the parent retry: the
        # executor raises on the unknown traffic pattern.
        config = NocConfig.multi_noc(2)
        return PointSpec.synthetic(config, "no-such-pattern", 0.1, TINY, 7)

    def test_transient_failure_is_retried_once(self, monkeypatch):
        from repro.experiments import runner as runner_mod

        real = runner_mod._EXECUTORS["synthetic"]
        calls = {"n": 0}

        def flaky(spec):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient worker crash")
            return real(spec)

        monkeypatch.setitem(runner_mod._EXECUTORS, "synthetic", flaky)
        obs = RecordingObserver()
        rows = run_sweep(
            tiny_specs(loads=(0.02,)), jobs=1, cache=None, observers=[obs]
        )
        assert rows
        assert obs.stats.retried_points == 1
        assert obs.stats.failed_points == []
        assert obs.failures == []

    def test_permanent_failure_is_surfaced_not_raised(self):
        specs = tiny_specs(loads=(0.02, 0.10)) + [self.bad_spec()]
        obs = RecordingObserver()
        rows = run_sweep(specs, jobs=1, cache=None, observers=[obs])
        assert len(obs.stats.failed_points) == 1
        index, error = obs.stats.failed_points[0]
        assert index == 2
        assert "ValueError" in error and "no-such-pattern" in error
        assert obs.failures == [(2, error)]
        # The healthy points still produced their rows.
        assert rows == run_sweep(
            tiny_specs(loads=(0.02, 0.10)), jobs=1, cache=None
        )

    def test_pool_failure_does_not_poison_other_points(self):
        specs = [self.bad_spec()] + tiny_specs(loads=(0.02, 0.10))
        obs = RecordingObserver()
        rows = run_sweep(specs, jobs=3, cache=None, observers=[obs])
        assert [index for index, _ in obs.stats.failed_points] == [0]
        assert rows == run_sweep(
            tiny_specs(loads=(0.02, 0.10)), jobs=1, cache=None
        )

    def test_failed_points_never_enter_the_cache(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep([self.bad_spec()], jobs=1, cache=cache, observers=None)
        assert list(tmp_path.glob("*.json")) == []


class TestCacheCrashSafety:
    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_sweep(tiny_specs(loads=(0.02,)), jobs=1, cache=cache)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_truncated_file_reads_as_miss(self, tmp_path):
        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)
        run_sweep([spec], jobs=1, cache=cache)
        path = next(tmp_path.glob("*.json"))
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        assert cache.get(spec) is None

    def test_non_dict_payload_reads_as_miss(self, tmp_path):
        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)
        cache.put(spec, [{"latency": 1.0}])
        cache._path(spec).write_text("[1, 2, 3]")
        assert cache.get(spec) is None

    def test_failed_replace_cleans_up_temp_file(
        self, tmp_path, monkeypatch
    ):
        import os

        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk full"):
            cache.put(spec, [{"latency": 1.0}])
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert cache.get(spec) is None

    def test_orphan_temp_files_are_invisible(self, tmp_path):
        spec = tiny_specs()[0]
        cache = SweepCache(tmp_path)
        cache.put(spec, [{"latency": 1.0}])
        (tmp_path / "orphanxyz.tmp").write_text("half-written")
        assert cache.get(spec) == [{"latency": 1.0}]
        assert cache.clear() == 1
        assert (tmp_path / "orphanxyz.tmp").exists()


class TestObserver:
    def test_callbacks_fire_per_point(self):
        obs = RecordingObserver()
        specs = tiny_specs(loads=(0.02, 0.10))
        run_sweep(specs, jobs=1, cache=None, observers=[obs])
        assert obs.started_with == 2
        assert sorted(i for i, _ in obs.finished) == [0, 1]
        assert obs.stats.points == 2
        assert obs.stats.wall_seconds > 0
        assert len(obs.stats.point_seconds) == 2


class TestEnvJobs:
    def test_default_is_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert RunOptions.from_env().jobs == (os.cpu_count() or 1)
        assert RunOptions.from_env({"REPRO_JOBS": "3"}).jobs == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert RunOptions.from_env().jobs == 2

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            RunOptions.from_env()


class TestMultiRowKinds:
    def test_table02_expands_to_four_rows(self):
        rows = run_sweep([PointSpec.table02()], jobs=1, cache=None)
        assert len(rows) == 4
        assert {row["router_width_bits"] for row in rows} == {128, 512}

    def test_bursty_rows_survive_cache_round_trip(self, tmp_path):
        from repro.experiments.fig12_bursty import (
            SAMPLE_PERIOD,
            TOTAL_CYCLES,
            burst_schedule,
        )

        spec = PointSpec.bursty(
            NocConfig.multi_noc(4, power_gating=True),
            "uniform",
            tuple(burst_schedule()),
            sample_period=SAMPLE_PERIOD,
            total_cycles=TOTAL_CYCLES,
        )
        cache = SweepCache(tmp_path)
        cold = run_sweep([spec], jobs=1, cache=cache)
        warm = run_sweep([spec], jobs=1, cache=cache)
        assert cold == warm
        assert len(cold) == TOTAL_CYCLES // SAMPLE_PERIOD
