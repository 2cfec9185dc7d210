"""Campaign observability: ledger, digest, status, report, CLI.

Covers the `repro.obs` package plus its wiring into the sweep runner
and the experiments CLI: canonical-digest determinism across worker
counts and cache states, crash-tolerant ledger reads (tail-while-
writing), status rendering against committed fixtures, the artifact-
joined rollup (including graceful degradation when artifacts are
missing), and the `--ledger` / `--stats-out` CLI flags.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.common import synthetic_phases
from repro.experiments.runner import (
    PointResult,
    PointSpec,
    SweepCache,
    SweepStats,
    run_sweep,
)
from repro.noc.config import NocConfig
from repro.obs.ledger import (
    LEDGER_NAME,
    LEDGER_SCHEMA,
    LedgerObserver,
    canonical_digest,
    read_ledger,
    run_id_for,
)
from repro.obs.report import REPORT_NAME, build_report, render_report, write_report
from repro.obs.status import (
    render_ls,
    render_status,
    replay,
    resolve_run,
)

TINY = synthetic_phases(0.04)

FIXTURES = Path(__file__).parent / "data" / "obs"


def tiny_specs(seed: int = 7, loads=(0.02, 0.10, 0.20, 0.30)):
    config = NocConfig.multi_noc(2)
    return [
        PointSpec.synthetic(config, "uniform", load, TINY, seed)
        for load in loads
    ]


def run_ledgered(tmp_path, jobs: int, cache=None, name="obs"):
    observer = LedgerObserver(root=tmp_path / name)
    rows = run_sweep(
        tiny_specs(), jobs=jobs, cache=cache, observers=[observer]
    )
    events, warnings = read_ledger(observer.runs[-1] / LEDGER_NAME)
    assert warnings == []
    return rows, events, observer


class TestRunId:
    def test_deterministic_and_label_insensitive(self):
        specs = tiny_specs()
        relabeled = [
            PointSpec.synthetic(
                spec.config,
                spec.pattern,
                spec.load,
                spec.phases,
                spec.seed,
                variant="x",
            )
            for spec in specs
        ]
        assert run_id_for(specs) == run_id_for(specs)
        assert run_id_for(specs) == run_id_for(relabeled)
        assert len(run_id_for(specs)) == 12

    def test_order_sensitive(self):
        specs = tiny_specs()
        assert run_id_for(specs) != run_id_for(specs[::-1])


class TestReadLedger:
    def test_missing_file_warns_never_raises(self, tmp_path):
        events, warnings = read_ledger(tmp_path / "absent.jsonl")
        assert events == []
        assert len(warnings) == 1

    def test_partial_trailing_line_is_silently_tolerated(
        self, tmp_path
    ):
        path = tmp_path / LEDGER_NAME
        path.write_text(
            '{"event":"sweep_started","total":2}\n{"event":"point_fi'
        )
        events, warnings = read_ledger(path)
        assert [e["event"] for e in events] == ["sweep_started"]
        assert warnings == []

    def test_corrupt_interior_line_warns_and_skips(self, tmp_path):
        path = tmp_path / LEDGER_NAME
        path.write_text(
            '{"event":"sweep_started","total":2}\n'
            "NOT JSON AT ALL\n"
            '{"event":"point_finished","index":0}\n'
        )
        events, warnings = read_ledger(path)
        assert [e["event"] for e in events] == [
            "sweep_started",
            "point_finished",
        ]
        assert len(warnings) == 1
        assert "line 2" in warnings[0]

    def test_complete_final_corrupt_line_warns(self, tmp_path):
        path = tmp_path / LEDGER_NAME
        path.write_text('{"event":"sweep_started"}\ngarbage\n')
        _, warnings = read_ledger(path)
        assert len(warnings) == 1

    def test_tail_while_writing(self, tmp_path):
        # Simulate another process appending: whole lines become
        # visible atomically, a half-written line is invisible until
        # its newline lands.
        source = (FIXTURES / "ledger_finished.jsonl").read_text()
        lines = source.splitlines(keepends=True)
        path = tmp_path / LEDGER_NAME
        with open(path, "w") as handle:
            for line in lines[:-1]:
                handle.write(line)
            handle.flush()
            events, warnings = read_ledger(path)
            assert len(events) == len(lines) - 1
            assert warnings == []
            assert not replay(events).finished

            handle.write(lines[-1][: len(lines[-1]) // 2])
            handle.flush()
            events, warnings = read_ledger(path)
            assert len(events) == len(lines) - 1
            assert warnings == []

            handle.write(lines[-1][len(lines[-1]) // 2 :])
            handle.flush()
            events, warnings = read_ledger(path)
            assert len(events) == len(lines)
            assert replay(events).finished


class TestCanonicalDigest:
    def test_serial_vs_parallel_identical(self, tmp_path):
        rows1, events1, _ = run_ledgered(tmp_path, jobs=1)
        rows4, events4, _ = run_ledgered(tmp_path, jobs=4)
        digest1 = canonical_digest(events1)
        digest4 = canonical_digest(events4)
        assert digest1 is not None
        assert digest1 == digest4
        assert rows1 == rows4
        # The recorded footer digest matches an offline recompute.
        footer1 = [
            e for e in events1 if e["event"] == "sweep_finished"
        ][0]
        assert footer1["digest"] == digest1

    def test_cold_vs_warm_cache_identical(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        _, cold, _ = run_ledgered(tmp_path, jobs=1, cache=cache)
        _, warm, _ = run_ledgered(tmp_path, jobs=1, cache=cache)
        assert sum(
            1 for e in warm if e["event"] == "cache_hit"
        ) == len(tiny_specs())
        assert canonical_digest(cold) == canonical_digest(warm)

    def test_different_work_different_digest(self, tmp_path):
        _, events, _ = run_ledgered(tmp_path, jobs=1)
        observer = LedgerObserver(root=tmp_path / "other")
        run_sweep(
            tiny_specs(seed=8),
            jobs=1,
            cache=None,
            observers=[observer],
        )
        other, _ = read_ledger(observer.runs[-1] / LEDGER_NAME)
        assert canonical_digest(events) != canonical_digest(other)

    def test_headerless_events_digest_none(self):
        assert canonical_digest([]) is None
        assert canonical_digest([{"event": "heartbeat"}]) is None


class TestLedgerObserver:
    def test_event_stream_shape_serial(self, tmp_path):
        _, events, observer = run_ledgered(tmp_path, jobs=1)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert kinds.count("point_started") == 4
        assert kinds.count("point_finished") == 4
        assert kinds.count("heartbeat") == 4
        assert [e["seq"] for e in events] == list(range(len(events)))
        header = events[0]
        assert header["schema"] == LEDGER_SCHEMA
        assert header["run_id"] == run_id_for(tiny_specs())
        assert len(header["spec_index"]) == 4
        assert header["spec_index"][0]["config"] == "2NT-256b"
        footer = events[-1]
        assert footer["stats"]["schema"] == "repro.obs/1"
        assert footer["stats"]["points"] == 4

    def test_run_dirs_get_fresh_suffixes(self, tmp_path):
        _, _, first = run_ledgered(tmp_path, jobs=1)
        _, _, second = run_ledgered(tmp_path, jobs=1)
        run_id = run_id_for(tiny_specs())
        assert first.runs[-1].name == f"{run_id}-r0"
        assert second.runs[-1].name == f"{run_id}-r1"

    def test_obs_root_self_ignores(self, tmp_path):
        _, _, observer = run_ledgered(tmp_path, jobs=1)
        gitignore = observer.root / ".gitignore"
        assert gitignore.read_text() == "*\n!.gitignore\n"

    def test_unattached_sweep_rows_byte_identical(self, tmp_path):
        plain = run_sweep(tiny_specs(), jobs=1, cache=None)
        ledgered, _, _ = run_ledgered(tmp_path, jobs=1)
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            ledgered, sort_keys=True
        )

    def test_point_result_names_its_flushed_artifacts(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.runner import _execute_indexed
        from repro.noc.layers import (
            BY_NAME,
            RunOptions,
            drain_artifacts,
            install_run_options,
        )
        from repro.obs.artifacts import classify_artifact

        names = ("perf", "telemetry", "explain")
        monkeypatch.setenv("REPRO_PERF_CPROFILE", "1")
        overlay = {}
        for name in names:
            layer = BY_NAME[name]
            overlay[layer.env] = "1"
            overlay[layer.dir_env] = str(tmp_path / name)
        spec = tiny_specs()[1]
        previous = install_run_options(RunOptions.from_env(overlay))
        try:
            result = _execute_indexed((1, spec))
        finally:
            install_run_options(previous)
        assert result.error is None
        # One file per artifact suffix of each layer: layers in attach
        # order, paths (which differ only by suffix) sorted within one.
        assert [
            (name, classify_artifact(path))
            for name, path in result.artifacts
        ] == [
            (name, kind)
            for name in names
            for _, kind in sorted(BY_NAME[name].artifacts)
        ]
        # Exactly the files the point flushed, all with its stem.
        on_disk = sorted(str(p) for p in tmp_path.rglob("*") if p.is_file())
        assert sorted(path for _, path in result.artifacts) == on_disk
        stem = f"{spec.config.name}-s{spec.seed}-p{os.getpid()}-"
        for _, path in result.artifacts:
            assert os.path.basename(path).startswith(stem)
        # Outside a sweep point nothing is kept.
        assert drain_artifacts() == ()

    def test_failed_point_recorded(self, tmp_path):
        from dataclasses import replace

        bad = replace(
            PointSpec.synthetic(
                NocConfig.multi_noc(2), "uniform", 0.1, TINY, 7
            ),
            pattern="no_such_pattern",
        )
        observer = LedgerObserver(root=tmp_path / "obs")
        run_sweep([bad], jobs=1, cache=None, observers=[observer])
        events, _ = read_ledger(observer.runs[-1] / LEDGER_NAME)
        kinds = [e["event"] for e in events]
        assert "point_failed" in kinds
        state = replay(events)
        assert state.failed == 1
        assert state.finished


class TestStatus:
    def test_finished_fixture_snapshot(self):
        events, warnings = read_ledger(
            FIXTURES / "ledger_finished.jsonl"
        )
        assert warnings == []
        rendered = render_status(replay(events, warnings)) + "\n"
        expected = (FIXTURES / "status_finished.txt").read_text()
        assert rendered == expected

    def test_live_fixture_reports_running(self):
        events, warnings = read_ledger(FIXTURES / "ledger.jsonl")
        state = replay(events, warnings)
        assert not state.finished
        text = render_status(state)
        assert "[running]" in text
        assert "1 failed" in text
        assert "ValueError: boom" in text

    def test_replay_counts(self):
        events, _ = read_ledger(FIXTURES / "ledger_finished.jsonl")
        state = replay(events)
        assert state.total == 4
        assert state.done == 4
        assert state.cache_hits == 1
        assert state.executed == 2
        assert state.failed == 1
        assert state.retried == 1
        assert sorted(state.workers) == [1001, 1002]
        assert state.sim_cycles == 8000

    def test_render_survives_empty_ledger(self):
        assert "0/0" in render_status(replay([]))


class TestResolveAndLs:
    def test_resolve_by_name_prefix_path_and_latest(self, tmp_path):
        _, _, observer = run_ledgered(tmp_path, jobs=1)
        run_dir = observer.runs[-1]
        root = observer.root
        assert resolve_run(run_dir.name, root) == run_dir
        assert resolve_run(str(run_dir), root) == run_dir
        assert (
            resolve_run(str(run_dir / LEDGER_NAME), root) == run_dir
        )
        assert resolve_run(run_dir.name[:6], root) == run_dir
        assert resolve_run(None, root) == run_dir
        assert resolve_run("zzz-no-such", root) is None

    def test_ambiguous_prefix_unresolved(self, tmp_path):
        _, _, observer = run_ledgered(tmp_path, jobs=1)
        _, _, observer = run_ledgered(tmp_path, jobs=1)
        run_id = run_id_for(tiny_specs())
        assert resolve_run(run_id[:6], observer.root) is None
        # ...but the full directory name still resolves exactly.
        assert (
            resolve_run(f"{run_id}-r1", observer.root)
            == observer.runs[-1]
        )

    def test_ls_renders_both_runs(self, tmp_path):
        _, _, observer = run_ledgered(tmp_path, jobs=1)
        run_ledgered(tmp_path, jobs=1)
        text = render_ls(observer.root)
        assert text.count("finished") == 2
        assert "no runs" not in text

    def test_ls_empty_root(self, tmp_path):
        assert "no runs" in render_ls(tmp_path / "nothing")


class TestReport:
    def test_fixture_report_degrades_gracefully(self, tmp_path):
        # The fixture ledger references artifact paths that do not
        # exist on this machine: the join must render blanks, not
        # raise.
        run_dir = tmp_path / "deadbeef0123-r0"
        run_dir.mkdir()
        (run_dir / LEDGER_NAME).write_text(
            (FIXTURES / "ledger_finished.jsonl").read_text()
        )
        report, out = write_report(run_dir)
        assert out == run_dir / REPORT_NAME
        assert out.is_file()
        rows = report["rollup"]["rows"]
        assert [r["status"] for r in rows] == [
            "ok",
            "ok",
            "ok",
            "failed",
        ]
        assert rows[1]["sleep_frac"] is None
        assert rows[1]["latency"] == 21.4
        assert report["rollup"]["failed"] == [3]
        text = render_report(report)
        assert "campaign rollup" in text
        assert "failed" in text

    def test_interrupted_run_points_missing(self, tmp_path):
        run_dir = tmp_path / "run-r0"
        run_dir.mkdir()
        source = (FIXTURES / "ledger.jsonl").read_text().splitlines()
        # Header plus the first cache hit only: points 1-3 never ran.
        (run_dir / LEDGER_NAME).write_text(
            "\n".join(source[:2]) + "\n"
        )
        report = build_report(run_dir)
        statuses = [
            r["status"] for r in report["rollup"]["rows"]
        ]
        assert statuses == ["ok", "missing", "missing", "missing"]
        assert not report["finished"]

    def test_telemetry_join_end_to_end(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv(
            "REPRO_TELEMETRY_DIR", str(tmp_path / "telemetry")
        )
        rollups = {}
        for jobs in (1, 4):
            observer = LedgerObserver(root=tmp_path / f"obs{jobs}")
            run_sweep(
                tiny_specs(loads=(0.05, 0.10, 0.20, 0.30)),
                jobs=jobs,
                cache=None,
                observers=[observer],
            )
            report = build_report(observer.runs[-1])
            rollups[jobs] = report["rollup"]
        # Each point joins its own telemetry at any worker count.
        assert json.dumps(rollups[1], sort_keys=True) == json.dumps(
            rollups[4], sort_keys=True
        )
        rows = report["rollup"]["rows"]
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == "ok"
            # 2-subnet fabric: one sleep fraction per subnet.
            assert isinstance(row["sleep_frac"], list)
            assert len(row["sleep_frac"]) == 2
        kinds = {
            artifact["kind"]
            for entries in report["artifacts"].values()
            for artifact in entries
        }
        assert "telemetry-timeseries" in kinds
        # Deleting the artifacts degrades the join, not the report.
        for path in (tmp_path / "telemetry").iterdir():
            path.unlink()
        degraded = build_report(observer.runs[-1])
        assert all(
            row["sleep_frac"] is None
            for row in degraded["rollup"]["rows"]
        )

    def test_rollup_identical_serial_vs_parallel(self, tmp_path):
        _, _, first = run_ledgered(tmp_path, jobs=1)
        _, _, second = run_ledgered(tmp_path, jobs=4)
        a = build_report(first.runs[-1])["rollup"]
        b = build_report(second.runs[-1])["rollup"]
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )


class TestProgressObserverEta:
    def _observer(self):
        import io

        from repro.experiments.runner import ProgressObserver

        stream = io.StringIO()
        return ProgressObserver(stream=stream), stream

    def test_no_eta_before_two_points(self):
        observer, stream = self._observer()
        observer.sweep_started(tiny_specs()[:3], 1, False)
        observer.point_finished(tiny_specs()[0], PointResult(0, [], 0.5))
        assert "eta" not in stream.getvalue()

    def test_eta_and_cache_count_after_two_points(self):
        observer, stream = self._observer()
        observer.sweep_started(tiny_specs()[:3], 1, False)
        spec = tiny_specs()[0]
        observer.point_finished(spec, PointResult(0, [], 0.5))
        observer.point_finished(spec, PointResult(1, [], cached=True))
        lines = stream.getvalue().splitlines()
        assert "eta" in lines[-1]
        assert "1 cached" in lines[-1]

    def test_no_eta_on_last_point(self):
        observer, stream = self._observer()
        observer.sweep_started(tiny_specs()[:2], 1, False)
        spec = tiny_specs()[0]
        observer.point_finished(spec, PointResult(0, [], 0.5))
        observer.point_finished(spec, PointResult(1, [], 0.5))
        assert "eta" not in stream.getvalue().splitlines()[-1]

    def test_summary_line_reports_retries(self):
        observer, stream = self._observer()
        observer.sweep_finished(
            SweepStats(points=3, cache_hits=3, retried_points=2)
        )
        assert "2 retried" in stream.getvalue()


class TestSweepStatsToJson:
    def test_schema_and_stable_keys(self):
        stats = SweepStats(
            points=2,
            cache_hits=1,
            cache_misses=1,
            retried_points=1,
            failed_points=[(1, "boom")],
            sim_cycles=10,
            sim_flits=20,
            workers=2,
            worker_busy_seconds={7: 0.5, 3: 0.25},
            wall_seconds=1.0,
            exec_wall_seconds=0.9,
        )
        doc = stats.to_json()
        assert doc["schema"] == "repro.obs/1"
        assert doc["failed_points"] == [[1, "boom"]]
        # Key order is stable (sorted pids, fixed field order) so the
        # document is diffable across runs.
        assert list(doc["worker_busy_seconds"]) == ["3", "7"]
        assert json.dumps(doc) == json.dumps(stats.to_json())


@pytest.mark.slow
class TestCliIntegration:
    def test_ledger_and_stats_out_flags(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments.cli import main

        for name in ("REPRO_JOBS", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path / "cache")
        )
        stats_path = tmp_path / "stats.json"
        assert (
            main(
                [
                    "fig06",
                    "--scale",
                    "0.02",
                    "--jobs",
                    "1",
                    "--ledger",
                    "--stats-out",
                    str(stats_path),
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "ledger:" in err
        runs = list((tmp_path / "obs").iterdir())
        ledgers = [
            run for run in runs if (run / LEDGER_NAME).is_file()
        ]
        assert len(ledgers) == 1
        events, warnings = read_ledger(ledgers[0] / LEDGER_NAME)
        assert warnings == []
        assert replay(events).finished
        doc = json.loads(stats_path.read_text())
        assert doc["schema"] == "repro.obs/1"
        assert len(doc["sweeps"]) == 1
        assert doc["sweeps"][0]["points"] == 8

    def test_obs_cli_status_and_report(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.obs.__main__ import main as obs_main

        run_dir = tmp_path / "deadbeef0123-r0"
        run_dir.mkdir(parents=True)
        (run_dir / LEDGER_NAME).write_text(
            (FIXTURES / "ledger_finished.jsonl").read_text()
        )
        assert obs_main(["--dir", str(tmp_path), "ls"]) == 0
        assert "deadbeef0123-r0" in capsys.readouterr().out
        assert (
            obs_main(["--dir", str(tmp_path), "status", "deadbeef"])
            == 0
        )
        assert "[finished]" in capsys.readouterr().out
        assert (
            obs_main(["--dir", str(tmp_path), "report"]) == 0
        )
        out = capsys.readouterr().out
        assert "campaign rollup" in out
        assert (run_dir / REPORT_NAME).is_file()
        assert (
            obs_main(["--dir", str(tmp_path), "status", "nope"])
            == 1
        )


class TestEnvRegistry:
    def test_obs_vars_registered(self):
        from repro.util import env

        assert "REPRO_OBS" in env.registered_names()
        assert "REPRO_OBS_DIR" in env.registered_names()
