"""Tests for the telemetry subsystem (repro.telemetry).

Covers the three acceptance-critical properties:

* zero overhead when disabled — an unattached fabric carries no hub
  shadows and executes the plain class methods;
* probe exactness — per-subnet sleep/wakeup cycle totals derived from
  transition events reconcile exactly with ``GatingStats``;
* artifact validity — the Chrome trace validates against the
  trace-event schema and the time-series JSON round-trips.
"""

from __future__ import annotations

import json

import pytest

from tests.conftest import gated_config, small_fabric

from repro.experiments.runner import PointResult
from repro.noc.layers import BY_NAME, RunOptions
from repro.noc.multinoc import MultiNocFabric
from repro.obs.ledger import ArtifactObserver
from repro.telemetry import TelemetryHub, validate_trace
from repro.telemetry.__main__ import main as telemetry_main
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.traffic.patterns import make_pattern


def gated_fabric(seed: int = 9, **overrides) -> MultiNocFabric:
    return MultiNocFabric(gated_config(**overrides), seed=seed)


def run_traffic(fabric, cycles: int, load: float = 0.1, seed: int = 9):
    source = SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), load, 128, seed=seed
    )
    for _ in range(cycles):
        source.step(fabric.cycle)
        fabric.step()


def run_bursty(fabric, cycles: int, seed: int = 9):
    """Step-load schedule exercising sleeps, wakeups, and RCS flips."""
    schedule = [(0, 0.85), (cycles // 4, 0.02), (cycles // 2, 0.9)]
    source = BurstyTrafficSource(
        fabric,
        make_pattern("transpose", fabric.mesh),
        schedule,
        seed=seed,
    )
    for _ in range(cycles):
        source.step(fabric.cycle)
        fabric.step()


class TestZeroOverhead:
    def test_unattached_fabric_has_no_hub_shadows(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        fabric = small_fabric()
        assert fabric.telemetry is None
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        for name in ("_sleep", "_begin_wakeup", "_wake_complete",
                     "request_wakeup"):
            assert name not in fabric.gating.__dict__
        assert "update" not in fabric.monitor.regional.__dict__
        # The bound step is the plain class method — the seed fast path.
        assert fabric.step.__func__ is MultiNocFabric.step
        assert fabric.report.__func__ is MultiNocFabric.report

    def test_detach_restores_every_shadow(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=8).attach()
        assert "step" in fabric.__dict__
        assert "_sleep" in fabric.gating.__dict__
        run_traffic(fabric, 64)
        hub.detach()
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        assert "_sleep" not in fabric.gating.__dict__
        assert "update" not in fabric.monitor.regional.__dict__
        assert fabric.step.__func__ is MultiNocFabric.step
        # The subnet sinks are restored to the fabric's own bound method.
        for network in fabric.subnets:
            assert network.eject_sink == fabric._on_packet_received
        # Stepping after detach records nothing further.
        seen = hub.packets_seen
        run_traffic(fabric, 64)
        assert hub.packets_seen == seen

    def test_second_attach_raises(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=8)
        assert hub.attach() is hub
        saved = len(hub._saved)
        with pytest.raises(RuntimeError, match="already attached"):
            hub.attach()
        assert len(hub._saved) == saved
        hub.detach()
        hub.detach()

    def test_telemetry_enabled_reads_env(self, monkeypatch):
        layer = BY_NAME["telemetry"]
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert RunOptions.from_env().spec(layer) is None
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert RunOptions.from_env().spec(layer) is None
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert RunOptions.from_env().spec(layer) == "1"

    def test_maybe_attach_respects_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert small_fabric().telemetry is None
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        hub = small_fabric().telemetry
        assert hub is not None and hub.attached
        hub.detach()


class TestEnvAttach:
    def test_constructor_attaches_hub_from_env(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_TELEMETRY_PERIOD", "16")
        fabric = gated_fabric()
        assert fabric.telemetry is not None
        assert fabric.telemetry.attached
        assert fabric.telemetry.sampler.period == 16
        run_traffic(fabric, 200)
        fabric.report()  # autoflush
        names = sorted(p.name for p in tmp_path.iterdir())
        assert any(n.endswith(".trace.json") for n in names)
        assert any(n.endswith(".timeseries.json") for n in names)
        assert any(n.endswith(".summary.txt") for n in names)

    def test_repeated_reports_never_collide(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        fabric = gated_fabric()
        run_traffic(fabric, 64)
        fabric.report()
        fabric.report()
        traces = [
            p.name
            for p in tmp_path.iterdir()
            if p.name.endswith(".trace.json")
        ]
        assert len(traces) == 2
        assert len(set(traces)) == 2


class TestReconciliation:
    def test_sleep_and_wakeup_totals_match_gating_stats(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_bursty(fabric, 2400)
        fabric.report()
        assert hub.sleep_cycles_by_subnet() == [
            stats.sleep_cycles for stats in fabric.gating.stats
        ]
        assert hub.wakeup_cycles_by_subnet() == [
            stats.wakeup_cycles for stats in fabric.gating.stats
        ]
        assert hub.sleep_periods == [
            stats.sleep_periods for stats in fabric.gating.stats
        ]
        assert hub.wake_requests == [
            stats.wake_requests for stats in fabric.gating.stats
        ]
        # The workload actually slept and woke — the reconciliation is
        # not vacuous.
        assert sum(hub.sleep_periods) > 0
        assert sum(hub.wakeup_cycles_by_subnet()) > 0

    def test_reconciles_with_open_sleep_periods_mid_run(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_traffic(fabric, 500, load=0.02)
        # No finalize: routers are still asleep (open periods).
        assert hub._sleep_start, "expected open sleep periods"
        assert hub.sleep_cycles_by_subnet() == [
            stats.sleep_cycles for stats in fabric.gating.stats
        ]

    def test_wakeup_latency_histogram_populated(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_bursty(fabric, 2400)
        assert hub.wakeup_latency.count > 0
        # A look-ahead wake takes at least the configured wakeup delay.
        assert hub.wakeup_latency.percentile(0.5) >= (
            fabric.gating.wakeup_cycles
        )

    def test_ungated_fabric_records_no_transitions(self):
        fabric = small_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_traffic(fabric, 300)
        assert hub.sleep_cycles_by_subnet() == [0, 0]
        assert not hub.power_intervals


class TestPacketsAndCongestion:
    def test_packet_records_match_received(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_traffic(fabric, 600)
        assert hub.packets_seen == fabric.stats.packets_received
        assert len(hub.packet_records) == hub.packets_seen
        assert hub.truncated_packets == 0
        for record in hub.packet_records:
            assert record["received"] >= record["created"]
            assert record["subnet"] >= 0
            assert record["hops"] >= 0
        assert hub.latency.count == hub.packets_seen

    def test_packet_records_respect_memory_cap(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16, max_packets=5).attach()
        run_traffic(fabric, 600)
        assert len(hub.packet_records) == 5
        assert hub.truncated_packets == hub.packets_seen - 5
        # Histograms keep counting past the cap.
        assert hub.latency.count == hub.packets_seen

    def test_rcs_and_lcs_probes_fire_under_load(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_bursty(fabric, 2400)
        assert hub.rcs_events
        assert sum(hub.lcs_raised) > 0
        assert hub.lcs_raised == hub.lcs_cleared or sum(
            hub.lcs_raised
        ) >= sum(hub.lcs_cleared)
        duty = hub.rcs_duty_by_subnet()
        assert all(0.0 <= d <= 1.0 for d in duty)
        assert any(d > 0.0 for d in duty)
        # Toggle events only occur on update-period boundaries.
        period = fabric.monitor.regional.update_period
        assert all(
            cycle % period == 0 for cycle, _, _, _ in hub.rcs_events
        )


class TestSampler:
    def test_tick_cadence_and_column_lengths(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=32).attach()
        run_traffic(fabric, 200)
        sampler = hub.sampler
        assert sampler.ticks == [0, 32, 64, 96, 128, 160, 192]
        n = len(sampler.ticks)
        for series in sampler.subnets:
            assert len(series.active) == n
            assert len(series.sleep) == n
            assert len(series.max_buffer_occupancy) == n
        assert len(sampler.injection_queue_flits) == n
        # Power-state counts always partition the router population.
        routers = fabric.mesh.num_nodes
        for series in sampler.subnets:
            for tick in range(n):
                assert (
                    series.active[tick]
                    + series.sleep[tick]
                    + series.wakeup[tick]
                    == routers
                )

    def test_time_series_doc_round_trips_as_json(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_traffic(fabric, 200)
        doc = json.loads(json.dumps(hub.time_series_doc()))
        assert doc["schema"] == "repro.telemetry.timeseries/1"
        assert doc["summary"]["cycles"] == fabric.cycle
        assert doc["series"]["period"] == 16

    def test_ascii_summary_renders(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_traffic(fabric, 300)
        text = hub.ascii_summary()
        assert "sleep routers" in text
        assert "peak router occupancy" in text


class TestTraceExport:
    def test_trace_validates_and_balances(self):
        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=16).attach()
        run_bursty(fabric, 1600)
        fabric.report()
        doc = hub.chrome_trace_doc()
        assert validate_trace(doc) == []
        events = doc["traceEvents"]
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        assert len(begins) == len(ends) == len(hub.packet_records)
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, "expected power-state slices"
        assert {e["name"] for e in slices} <= {"sleep", "wakeup"}
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == len(hub.rcs_events)

    def test_validator_flags_broken_documents(self):
        assert validate_trace([]) == ["document is not a JSON object"]
        assert validate_trace({}) == ["missing or non-list traceEvents"]
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "s", "ts": -1, "dur": 2},
                {"ph": "b", "cat": "p", "id": 1, "name": "x", "ts": 5},
                {"ph": "??", "ts": 0},
            ]
        }
        errors = validate_trace(bad)
        assert any("bad ts" in e for e in errors)
        assert any("1 begin(s) vs 0 end(s)" in e for e in errors)
        assert any("bad phase" in e for e in errors)

    def test_cli_validate(self, tmp_path, capsys):
        fabric = gated_fabric()
        hub = TelemetryHub(
            fabric, period=16, out_dir=str(tmp_path)
        ).attach()
        run_traffic(fabric, 200)
        hub.flush()
        assert telemetry_main(["validate", str(tmp_path)]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "broken.trace.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert telemetry_main(["validate", str(bad)]) == 1
        assert telemetry_main(["validate", str(tmp_path / "none")]) == 1

    def test_cli_validate_empty_dir(self, tmp_path, capsys):
        assert telemetry_main(["validate", str(tmp_path)]) == 1
        assert "no trace files" in capsys.readouterr().err


class TestObserver:
    def test_observer_reports_new_artifacts(self, tmp_path, capsys):
        observer = ArtifactObserver()
        fabric = gated_fabric()
        hub = TelemetryHub(
            fabric, period=16, out_dir=str(tmp_path)
        ).attach()
        run_traffic(fabric, 100)
        artifacts = tuple(
            ("telemetry", path) for path in sorted(hub.flush().values())
        )
        observer.point_finished(
            None, PointResult(0, [], artifacts=artifacts)
        )
        observer.point_finished(None, PointResult(1, [], cached=True))
        assert observer.reported == [path for _, path in artifacts]
        assert capsys.readouterr().err.count("  telemetry: ") == 3


class TestGatingConsistencyAfterDetach:
    def test_gating_behaviour_identical_with_and_without_hub(self):
        """The probes observe; they must never change the simulation."""
        plain = gated_fabric(seed=11)
        run_bursty(plain, 1200, seed=11)
        hooked = gated_fabric(seed=11)
        hub = TelemetryHub(hooked, period=16).attach()
        run_bursty(hooked, 1200, seed=11)
        assert plain.stats.packets_received == hooked.stats.packets_received
        assert [s.sleep_cycles for s in plain.gating.stats] == [
            s.sleep_cycles for s in hooked.gating.stats
        ]
        assert [s.wakeup_cycles for s in plain.gating.stats] == [
            s.wakeup_cycles for s in hooked.gating.stats
        ]
        assert plain.monitor.regional.transitions == (
            hooked.monitor.regional.transitions
        )
        hub.detach()
