"""Tests for serving-shaped workloads: spec grammar, generators,
per-tenant QoS, determinism, and the ext_serving / obs integration."""

from __future__ import annotations

import io

import pytest

from tests.conftest import gated_config, small_config, small_fabric

from repro.experiments.runner import PointSpec, run_sweep
from repro.noc.backend import NEVER
from repro.noc.multinoc import MultiNocFabric
from repro.noc.simulator import SimulationPhases, run_open_loop
from repro.workloads.point import report_digest, run_serving_point
from repro.workloads.sources import (
    DEFAULT_DIURNAL_SHAPE,
    DiurnalSource,
    LlmServingSource,
    MultiTenantSource,
)
from repro.workloads.spec import (
    WorkloadSpec,
    make_workload_source,
    parse_workload_spec,
)

PHASES = SimulationPhases(warmup=60, measure=240, cooldown=60)


class TestSpecGrammar:
    def test_defaults_filled_in(self):
        spec = parse_workload_spec("tenants")
        assert spec.kind == "tenants"
        assert spec.get("rates") == (0.06, 0.03, 0.01)
        assert spec.get("scale") == 1.0

    def test_canonical_text_roundtrips(self):
        for text in (
            "llm:batch=4;seq=16",
            "tenants:rates=0.1,0.05",
            "diurnal:base=0.05;cycles_per_hour=100",
        ):
            spec = parse_workload_spec(text)
            assert parse_workload_spec(spec.to_text()) == spec

    def test_spellings_collapse_to_one_canonical_form(self):
        a = parse_workload_spec("llm:seq=16;batch=4")
        b = parse_workload_spec("llm:batch=4;seq=16")
        assert a == b
        assert a.to_text() == b.to_text()

    def test_trace_spec_keeps_path(self):
        spec = parse_workload_spec("trace:results/x.ctr")
        assert spec.kind == "trace"
        assert spec.get("path") == "results/x.ctr"
        assert spec.to_text() == "trace:results/x.ctr"

    def test_scaled_multiplies_scale(self):
        spec = parse_workload_spec("tenants:scale=0.5")
        assert spec.scaled(0.5).get("scale") == 0.25
        with pytest.raises(ValueError, match="cannot be scaled"):
            parse_workload_spec("trace:x.ctr").scaled(0.5)

    def test_rejects_garbage(self):
        for bad in (
            "",
            "warp",
            "llm:bogus=1",
            "llm:batch",
            "llm:batch=x",
            "tenants:rates=",
            "diurnal:shape=1,2,3",
            "trace:",
        ):
            with pytest.raises(ValueError):
                parse_workload_spec(bad)


class TestMultiTenant:
    def test_packets_tagged_and_reported_per_tenant(self):
        fabric = small_fabric()
        source = MultiTenantSource(fabric, rates=(0.1, 0.05), seed=3)
        report = run_open_loop(fabric, source, PHASES)
        assert [entry["tenant"] for entry in report.tenants] == [0, 1]
        heavy, light = report.tenants
        assert heavy["offered"] > light["offered"] > 0
        assert heavy["received"] > 0
        assert light["latency_p99"] >= light["latency_p50"] > 0

    def test_zero_rate_tenant_consumes_no_randomness(self):
        # Dropping a tenant to zero must not shift the other tenants'
        # schedules: each tenant draws from its own substream.
        def run(rates):
            fabric = small_fabric(seed=11)
            source = MultiTenantSource(fabric, rates=rates, seed=3)
            return report_digest(run_open_loop(fabric, source, PHASES))

        with_zero = run((0.1, 0.0))
        without = run((0.1, 0.0))
        assert with_zero == without

    def test_skip_horizon(self):
        fabric = small_fabric()
        active = MultiTenantSource(fabric, rates=(0.1,), seed=3)
        assert active.next_offer_cycle(7) == 7
        idle = MultiTenantSource(fabric, rates=(0.0, 0.0), seed=3)
        assert idle.next_offer_cycle(7) == NEVER


class TestLlmServing:
    def test_phase_schedule(self):
        fabric = small_fabric()
        source = LlmServingSource(
            fabric, batch=2, seq=4, token_cycles=2, gap=10, seed=3
        )
        # period = 16 prefill + 8 decode + 10 gap = 34
        assert source.phase(0) == "prefill"
        assert source.phase(15) == "prefill"
        assert source.phase(16) == "decode"
        assert source.phase(23) == "decode"
        assert source.phase(24) == "gap"
        assert source.phase(34) == "prefill"

    def test_gap_jumps_to_next_batch(self):
        fabric = small_fabric()
        source = LlmServingSource(
            fabric, batch=2, seq=4, token_cycles=2, gap=10, seed=3
        )
        assert source.next_offer_cycle(5) == 5
        assert source.next_offer_cycle(24) == 34  # gap -> next prefill
        assert source.next_offer_cycle(33) == 34

    def test_all_traffic_goes_to_memory_controllers(self):
        fabric = small_fabric()
        source = LlmServingSource(fabric, mcs=2, seed=3)
        destinations = set()
        original_offer = fabric.offer

        def spy(packet):
            destinations.add(packet.dst)
            assert packet.src not in source._is_mc
            original_offer(packet)

        fabric.offer = spy
        for cycle in range(80):
            source.step(cycle)
            fabric.step()
        assert destinations
        assert destinations <= set(source.mc_nodes)

    def test_zero_rate_source_never_offers(self):
        fabric = small_fabric()
        source = LlmServingSource(
            fabric, prefill_rate=0.0, decode_rate=0.0, seed=3
        )
        assert source.next_offer_cycle(0) == NEVER


class TestDiurnal:
    def test_load_follows_shape(self):
        fabric = small_fabric()
        source = DiurnalSource(
            fabric, base=0.1, cycles_per_hour=10, seed=3
        )
        assert source.current_load(0) == pytest.approx(
            0.1 * DEFAULT_DIURNAL_SHAPE[0]
        )
        # Hours 3 and 4 of the default shape are dead of night.
        assert source.current_load(30) == 0.0
        assert source.current_load(49) == 0.0
        assert source.current_load(50) > 0.0

    def test_horizon_skips_the_night(self):
        fabric = small_fabric()
        source = DiurnalSource(
            fabric, base=0.1, cycles_per_hour=10, seed=3
        )
        # From inside the trough, jump straight to hour 5's start.
        assert source.next_offer_cycle(31) == 50
        assert source.next_offer_cycle(49) == 50

    def test_night_puts_gated_subnets_to_sleep(self):
        fabric = MultiNocFabric(gated_config(), seed=3)
        source = DiurnalSource(
            fabric, base=0.15, cycles_per_hour=60, seed=3
        )
        # Run through the ramp-down into the dead of night (hours 0-4).
        phases = SimulationPhases(warmup=10, measure=290, cooldown=10)
        report = run_open_loop(fabric, source, phases)
        assert any(stats.sleep_cycles > 0 for stats in report.gating)

    def test_shape_must_have_24_entries(self):
        fabric = small_fabric()
        with pytest.raises(ValueError, match="24"):
            DiurnalSource(fabric, shape=(1.0, 0.5), seed=3)


class TestDeterminism:
    @pytest.mark.parametrize(
        "workload",
        [
            "tenants:rates=0.08,0.04",
            "llm:batch=2;seq=8;token_cycles=2;gap=40",
            "diurnal:base=0.1;cycles_per_hour=40",
        ],
    )
    def test_dense_and_skip_are_byte_identical(self, workload):
        digests = []
        for backend in ("dense", "skip"):
            fabric = MultiNocFabric(
                gated_config(), seed=9, backend=backend
            )
            source = make_workload_source(fabric, workload, seed=9)
            report = run_open_loop(fabric, source, PHASES)
            digests.append(report_digest(report))
        assert digests[0] == digests[1]

    def test_run_sweep_jobs_1_vs_2_identical(self):
        specs = [
            PointSpec.serving(
                small_config(),
                "tenants:rates=0.08,0.04",
                PHASES,
                seed=9,
            ),
            PointSpec.serving(
                small_config(),
                "llm:batch=2;seq=8",
                PHASES,
                seed=9,
            ),
        ]
        serial = run_sweep(specs, jobs=1, cache=None)
        parallel = run_sweep(specs, jobs=2, cache=None)
        assert serial == parallel

    def test_trace_content_hash_in_cache_key(self, tmp_path):
        from repro.traffic.trace import TraceRecord
        from repro.workloads.stream import StreamingTraceWriter

        path = tmp_path / "t.ctr"
        with StreamingTraceWriter(path, 4) as writer:
            writer.append(TraceRecord(0, 0, 1, 72, 0))
        spec_a = PointSpec.serving(
            small_config(), f"trace:{path}", PHASES
        )
        with StreamingTraceWriter(path, 4) as writer:
            writer.append(TraceRecord(0, 1, 2, 72, 0))
        spec_b = PointSpec.serving(
            small_config(), f"trace:{path}", PHASES
        )
        # Same path, different contents: must not share a cache entry.
        assert spec_a.digest() != spec_b.digest()


class TestServingPoint:
    def test_row_carries_tenants_and_sleep(self):
        row = run_serving_point(
            gated_config(),
            "tenants:rates=0.08,0.04",
            PHASES,
            seed=9,
        )
        assert row["workload"] == "tenants"
        assert [t["tenant"] for t in row["tenants"]] == [0, 1]
        assert len(row["sleep_frac"]) == 2
        assert all(0.0 <= f <= 1.0 for f in row["sleep_frac"])
        assert row["power_w"] > 0


class TestExtServing:
    def test_table_has_qos_and_sleep_columns(self):
        from repro.experiments.ext_serving import run_ext_serving

        result = run_ext_serving(scale=0.02)
        assert "tenant_p99" in result.columns
        assert "sleep_frac" in result.columns
        assert len(result.rows) == 24  # 12 hours x 2 configs
        peak = result.select(hour=18, config="4NT-128b-PG")[0]
        assert peak["load_mult"] == DEFAULT_DIURNAL_SHAPE[18]
        # The rendered table must not choke on the string cells.
        assert "tenant_p99" in result.to_table()

    def test_rejects_trace_workload(self):
        from repro.experiments.ext_serving import run_ext_serving

        with pytest.raises(ValueError, match="trace"):
            run_ext_serving(scale=0.02, workload="trace:x.ctr")


class TestCli:
    def test_gen_info_replay_roundtrip(self, tmp_path, capsys):
        from repro.workloads.cli import main

        out = tmp_path / "t.ctr"
        assert main([
            "gen", "--workload", "tenants:rates=0.1,0.05",
            "--config", "small", "--cycles", "4000",
            "--packets", "2000", "--out", str(out),
        ]) == 0
        assert main(["info", str(out)]) == 0
        assert "truncated" in capsys.readouterr().out
        assert main([
            "replay", str(out), "--config", "small",
            "--backend", "dense", "--rss-limit-mb", "4096",
        ]) == 0
        captured = capsys.readouterr().out
        assert "digest:" in captured
        assert "tenant 0:" in captured
        dense = [
            line for line in captured.splitlines()
            if line.startswith("digest:")
        ]
        assert main([
            "replay", str(out), "--config", "small",
            "--backend", "skip",
        ]) == 0
        skip = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("digest:")
        ]
        assert dense == skip

    def test_record_writes_a_replayable_trace(self, tmp_path, capsys):
        from repro.workloads.cli import main
        from repro.workloads.stream import StreamingTraceReader

        out = tmp_path / "r.ctr"
        assert main([
            "record", "--workload", "llm:batch=2;seq=4",
            "--config", "small", "--cycles", "300",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        records = list(StreamingTraceReader(out))
        assert records
        assert all(r.cycle < 300 for r in records)

    def test_bad_workload_is_a_usage_error(self, tmp_path):
        from repro.workloads.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "gen", "--workload", "bogus", "--config", "small",
                "--cycles", "10", "--out", str(tmp_path / "x.ctr"),
            ])
        assert excinfo.value.code == 2


class TestObsJoin:
    def test_rollup_carries_tenant_p99_and_sleep(self, tmp_path):
        from repro.obs.ledger import LedgerObserver
        from repro.obs.report import build_report, render_report

        observer = LedgerObserver(
            root=tmp_path, stream=io.StringIO()
        )
        specs = [
            PointSpec.serving(
                gated_config(),
                "tenants:rates=0.08,0.04",
                PHASES,
                seed=9,
            )
        ]
        run_sweep(specs, jobs=1, cache=None, observers=[observer])
        assert observer.runs
        report = build_report(observer.runs[-1])
        row = report["rollup"]["rows"][0]
        assert row["status"] == "ok"
        assert len(row["tenant_p99"]) == 2
        assert all(p >= 0 for p in row["tenant_p99"])
        assert len(row["sleep_frac"]) == 2
        rendered = render_report(report)
        assert "tenant_p99" in rendered
