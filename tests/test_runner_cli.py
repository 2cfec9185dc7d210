"""Tests for the catnap-experiments command-line interface."""

from __future__ import annotations

import os

import pytest

from tests.conftest import cli_run_options

from repro.experiments.cli import (
    EXPERIMENTS,
    PAPER_EXPERIMENTS,
    main,
    render_experiment,
    run_experiment,
)


class TestMain:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in PAPER_EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig08" in capsys.readouterr().out

    def test_runs_table02(self, capsys):
        assert main(["table02"]) == 0
        out = capsys.readouterr().out
        assert "2.900" in out or "2.9" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["fig07", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig07.txt").exists()

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            main(["nope"])


class TestRenderExperiment:
    def test_chartless_experiment_is_table_only(self):
        result = run_experiment("table02")
        assert render_experiment(result) == result.to_table()

    def test_chart_specs_only_reference_known_experiments(self):
        from repro.experiments.cli import _CHART_SPECS

        assert set(_CHART_SPECS) <= set(EXPERIMENTS)


class TestRegistry:
    def test_paper_experiments_subset(self):
        assert set(PAPER_EXPERIMENTS) <= set(EXPERIMENTS)

    def test_extension_registered(self):
        assert "ext_class_partition" in EXPERIMENTS


class TestTelemetryFlags:
    def test_trace_out_implies_telemetry_and_writes_artifacts(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.noc.layers import BY_NAME

        for name in ("REPRO_TELEMETRY", "REPRO_TELEMETRY_DIR"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        out_dir = tmp_path / "tel"
        options = cli_run_options(
            monkeypatch,
            ["fig06", "--scale", "0.02", "--trace-out", str(out_dir)],
        )
        assert options.spec(BY_NAME["telemetry"]) == "1"
        assert options.out_dir(BY_NAME["telemetry"]) == str(out_dir)
        names = sorted(p.name for p in out_dir.iterdir())
        assert any(n.endswith(".trace.json") for n in names)
        assert any(n.endswith(".timeseries.json") for n in names)
        err = capsys.readouterr().err
        assert "telemetry:" in err

        from repro.telemetry.__main__ import main as telemetry_main

        assert telemetry_main(["validate", str(out_dir)]) == 0

    def test_percentiles_flag_keeps_tables_without_the_columns(
        self, capsys
    ):
        assert main(["table02", "--percentiles"]) == 0
        out = capsys.readouterr().out
        assert "latency_p50" not in out

    def test_percentiles_render_appends_columns(self):
        from dataclasses import replace

        from repro.experiments.common import ExperimentResult

        rows = [
            {
                "load": 0.1,
                "latency": 20.0,
                "latency_p50": 19.0,
                "latency_p95": 30.0,
                "latency_p99": 40.0,
            }
        ]
        result = ExperimentResult(
            "figX", "t", rows, columns=["load", "latency"]
        )
        plain = render_experiment(result)
        with_pct = render_experiment(result, percentiles=True)
        assert "latency_p95" not in plain
        assert "latency_p95" in with_pct
        # The default rendering is untouched (paper tables stay
        # byte-identical) and the result object is not mutated.
        assert render_experiment(result) == plain
        assert result.columns == ["load", "latency"]


class TestFaultFlags:
    def test_bad_spec_is_a_usage_error(self, capsys):
        # Validation happens at argument-parsing time: a typo must
        # exit with argparse's usage status, not as one captured
        # failure per sweep point (which would render an empty table
        # and exit 0).
        with pytest.raises(SystemExit) as excinfo:
            main(["fig06", "--faults", "rate=banana"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--faults" in err

    def test_good_spec_enables_faults_and_disables_cache(self, monkeypatch):
        from repro.noc.layers import BY_NAME

        for name in ("REPRO_FAULTS", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        options = cli_run_options(
            monkeypatch,
            ["fig14", "--scale", "0.02", "--faults", "rate=0.001;seed=3"],
        )
        assert options.spec(BY_NAME["faults"]) == "rate=0.001;seed=3"
        # Faulted rows must never enter (or be served from) the
        # healthy-result cache.
        assert options.cache_dir is None


class TestBackendFlag:
    def test_unknown_backend_is_a_usage_error(self, capsys):
        # Validation happens at argument-parsing time (mirrors
        # --faults): a typo must exit 2 with a usage error naming the
        # valid backends, not crash deep in fabric construction.
        with pytest.raises(SystemExit) as excinfo:
            main(["fig06", "--backend", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--backend" in err
        assert "bogus" in err
        assert "dense" in err and "skip" in err

    def test_good_backend_selects_kernel_and_disables_cache(
        self, monkeypatch
    ):
        for name in ("REPRO_BACKEND", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        options = cli_run_options(
            monkeypatch, ["fig14", "--scale", "0.02", "--backend", "skip"]
        )
        assert options.backend == "skip"
        # A cache hit would silently skip exercising the requested
        # kernel, so any non-default backend disables caching.
        assert options.cache_dir is None

    def test_default_backend_keeps_cache(self, monkeypatch, tmp_path):
        for name in ("REPRO_BACKEND", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        options = cli_run_options(
            monkeypatch, ["fig14", "--scale", "0.02", "--backend", "dense"]
        )
        assert options.backend == "dense"
        assert options.cache_dir == str(tmp_path)

    def test_point_failed_is_loud_without_progress(
        self, capsys, monkeypatch
    ):
        from repro.experiments import runner
        from repro.experiments.common import synthetic_phases
        from repro.noc.config import NocConfig

        specs = [
            runner.PointSpec.synthetic(
                NocConfig.mesh_64_core(), "uniform", load,
                synthetic_phases(0.04), 7,
            )
            for load in (0.02, 0.1)
        ]
        real = runner._EXECUTORS["synthetic"]

        def boom_at_0_1(spec):
            if spec.load == 0.1:
                raise ValueError("boom")
            return real(spec)

        monkeypatch.setitem(runner._EXECUTORS, "synthetic", boom_at_0_1)
        recorded = []

        class _Extra(runner.SweepObserver):
            def point_failed(self, spec, result):
                recorded.append((result.index, result.error))

        # What the CLI installs without --progress.
        quiet = runner.ProgressObserver(verbose=False)
        runner.run_sweep(
            specs, jobs=1, cache=None, observers=[quiet, _Extra()]
        )
        lines = capsys.readouterr().err.splitlines()
        assert "FAILED" in lines[0] and "boom" in lines[0]
        assert "1 FAILED" in lines[1]
        # The healthy point prints nothing.
        assert len(lines) == 2
        assert recorded == [(1, "ValueError: boom")]


class TestRunPolicy:
    def test_main_leaves_the_environment_untouched(
        self, monkeypatch, tmp_path
    ):
        from repro.noc.backend import DenseBackend
        from repro.noc.layers import LAYERS
        from repro.noc.multinoc import MultiNocFabric
        from tests.conftest import small_config

        for layer in LAYERS:
            for name in (layer.env, layer.dir_env):
                if name:
                    monkeypatch.delenv(name, raising=False)
        for name in ("REPRO_BACKEND", "REPRO_CACHE_DIR"):
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        argv = [
            "fig14", "--scale", "0.02", "--backend", "skip", "--jobs", "2",
            "--no-cache", "--cache-dir", str(tmp_path / "cache"),
            "--check", "--faults", "1", "--telemetry", "--explain",
            "--perf",
        ]
        for layer in LAYERS:
            if layer.out_flag:
                argv += [layer.out_flag, str(tmp_path / layer.name)]
        assert main(argv) == 0
        assert dict(os.environ) == before
        fabric = MultiNocFabric(small_config(), seed=5)
        assert isinstance(fabric.backend, DenseBackend)
        assert all(getattr(fabric, layer.attr) is None for layer in LAYERS)
        assert "step" not in vars(fabric)

    @pytest.mark.parametrize("variable", ["REPRO_PERF", "REPRO_CHECK"])
    def test_env_enabled_layer_bypasses_a_warm_cache(
        self, variable, monkeypatch, tmp_path, capsys
    ):
        for name in ("REPRO_NO_CACHE", "REPRO_PERF", "REPRO_CHECK"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "perf"))
        argv = ["fig14", "--scale", "0.02"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "12 points, 12 cached" in capsys.readouterr().out
        monkeypatch.setenv(variable, "1")
        assert main(argv) == 0
        assert "12 points, 0 cached, 12 simulated" in capsys.readouterr().out
        profiles = list((tmp_path / "perf").glob("*.perf.json"))
        assert len(profiles) == (12 if variable == "REPRO_PERF" else 0)

    def test_workload_reaches_ext_serving_as_an_argument(
        self, monkeypatch, capsys
    ):
        from repro.experiments import cli
        from repro.experiments.common import ExperimentResult

        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
        seen = {}

        def fake(scale, workload):
            seen["workload"] = workload
            return ExperimentResult("ext_serving", "t", [{"x": 1}])

        monkeypatch.setattr(cli, "run_ext_serving", fake)
        assert main(["ext_serving", "--workload", "llm:batch=8"]) == 0
        assert seen == {"workload": "llm:batch=8"}
        assert "REPRO_WORKLOADS" not in os.environ
