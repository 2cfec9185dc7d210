"""Tests for the attribution hub (repro.explain, docs/explain.md).

The two reconciliation contracts are enforced exactly, not
statistically:

* every delivered packet's phase decomposition sums to
  ``received_cycle - created_cycle`` (and the hub's own
  ``phase_mismatches`` counter stays zero), on the dense *and* the
  skip backend;
* ``compute_network_power`` over the hub's window-reconstructed
  ``FabricReport`` is bitwise identical to the same model over
  ``fabric.report()``, and the summed window deltas equal the totals
  integer for integer.

Plus the shadowing-contract clauses every observer owes (zero
overhead when off, detach restores, probes never perturb the
simulation) and the artifact/CLI/report-join surface.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.runner import PointResult
from repro.explain.cli import main as explain_main
from repro.faults.engine import FaultEngine
from repro.faults.spec import parse_fault_spec
from repro.explain.hub import (
    PHASE_NAMES,
    ExplainHub,
    parse_explain_spec,
)
from repro.noc.layers import BY_NAME, RunOptions
from repro.noc.multinoc import MultiNocFabric
from repro.obs.artifacts import classify_artifact, explain_tax
from repro.obs.ledger import ArtifactObserver
from repro.power.network_power import compute_network_power
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.traffic.patterns import make_pattern
from tests.conftest import cli_run_options, gated_config


def gated_fabric(seed: int = 9, backend=None, **overrides):
    return MultiNocFabric(
        gated_config(**overrides), seed=seed, backend=backend
    )


def run_traffic(fabric, cycles: int, load: float = 0.1, seed: int = 9):
    source = SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), load, 128, seed=seed
    )
    for _ in range(cycles):
        source.step(fabric.cycle)
        fabric.step()


def bursty_source(fabric, cycles: int, seed: int = 9):
    """Step-load schedule exercising sleeps, wakeups, and stalls."""
    schedule = [(0, 0.85), (cycles // 4, 0.02), (cycles // 2, 0.9)]
    return BurstyTrafficSource(
        fabric,
        make_pattern("transpose", fabric.mesh),
        schedule,
        seed=seed,
    )


def run_bursty(fabric, cycles: int, seed: int = 9):
    source = bursty_source(fabric, cycles, seed)
    for _ in range(cycles):
        source.step(fabric.cycle)
        fabric.step()


def attributed_run(seed: int = 9, backend=None) -> MultiNocFabric:
    """A drained bursty run with a hub attached from construction,
    driven by the fabric's own kernel and ended by an idle tail (where
    the skip kernel jumps)."""
    fabric = gated_fabric(seed=seed, backend=backend)
    hub = ExplainHub(fabric, out_dir=None).attach()
    assert fabric.explain is None  # env off; hand-attached hub
    fabric.explain = hub
    fabric.backend.run(2400, bursty_source(fabric, 2400, seed))
    assert fabric.drain(50_000)
    fabric.backend.run(2000)
    return fabric


class TestSpecParsing:
    def test_default_specs_enable_both(self):
        assert parse_explain_spec("1") == (True, True)
        assert parse_explain_spec("") == (True, True)

    def test_component_specs(self):
        assert parse_explain_spec("latency") == (True, False)
        assert parse_explain_spec("energy") == (False, True)
        assert parse_explain_spec("latency,energy") == (True, True)
        assert parse_explain_spec(" energy , latency ") == (True, True)

    def test_unknown_component_raises(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_explain_spec("bogus")
        with pytest.raises(ValueError):
            parse_explain_spec("latency,bogus")

    def test_enabled_reads_env(self, monkeypatch):
        layer = BY_NAME["explain"]
        monkeypatch.delenv("REPRO_EXPLAIN", raising=False)
        assert RunOptions.from_env().spec(layer) is None
        monkeypatch.setenv("REPRO_EXPLAIN", "0")
        assert RunOptions.from_env().spec(layer) is None
        monkeypatch.setenv("REPRO_EXPLAIN", "1")
        assert RunOptions.from_env().spec(layer) == "1"
        monkeypatch.setenv("REPRO_EXPLAIN", "latency")
        assert RunOptions.from_env().spec(layer) == "latency"


class TestZeroOverhead:
    def test_unattached_fabric_has_no_hub_shadows(self):
        fabric = gated_fabric()
        assert fabric.explain is None
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        for ni in fabric.nis:
            assert "_assign_head" not in ni.__dict__
            assert "step" not in ni.__dict__
        # eject_sink is a plain data slot on the subnet; without a hub
        # it is the fabric's own completion callback.
        for network in fabric.subnets:
            assert network.eject_sink == fabric._on_packet_received
        assert fabric.step.__func__ is MultiNocFabric.step

    def test_constructor_attaches_hub_from_env(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_EXPLAIN", "1")
        monkeypatch.setenv("REPRO_EXPLAIN_DIR", str(tmp_path))
        fabric = gated_fabric()
        assert isinstance(fabric.explain, ExplainHub)
        assert fabric.explain.attached
        assert fabric.explain.out_dir == str(tmp_path)
        run_traffic(fabric, 200)
        fabric.report()
        names = os.listdir(tmp_path)
        assert any(n.endswith(".explain.json") for n in names)

    def test_maybe_attach_respects_env(self, monkeypatch):
        assert gated_fabric().explain is None
        monkeypatch.setenv("REPRO_EXPLAIN", "1")
        hub = gated_fabric().explain
        assert hub is not None and hub.attached
        hub.detach()

    def test_detach_restores_every_shadow(self):
        fabric = gated_fabric()
        subnets = [dict(vars(network)) for network in fabric.subnets]
        hub = ExplainHub(fabric, out_dir=None).attach()
        assert "step" in fabric.__dict__
        assert "_assign_head" in fabric.nis[0].__dict__
        assert fabric.subnets[0].eject_sink != fabric._on_packet_received
        # The flit path carries no probe: the packet sink is the only
        # shadow a subnet gains.
        assert [
            {k: v for k, v in vars(network).items() if k != "eject_sink"}
            for network in fabric.subnets
        ] == [
            {k: v for k, v in before.items() if k != "eject_sink"}
            for before in subnets
        ]
        run_traffic(fabric, 64)
        hub.detach()
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        for ni in fabric.nis:
            assert "_assign_head" not in ni.__dict__
            assert "step" not in ni.__dict__
        # eject_sink is a plain data slot on the subnet; without a hub
        # it is the fabric's own completion callback.
        for network in fabric.subnets:
            assert network.eject_sink == fabric._on_packet_received
        assert fabric.step.__func__ is MultiNocFabric.step
        # Stepping after detach records nothing further.
        seen = hub.packets_seen
        run_traffic(fabric, 64)
        assert hub.packets_seen == seen

    def test_second_attach_raises(self):
        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=None)
        assert hub.attach() is hub
        saved = len(hub._saved)
        with pytest.raises(RuntimeError, match="already attached"):
            hub.attach()
        assert len(hub._saved) == saved
        hub.detach()
        hub.detach()

    def test_probes_never_perturb_the_simulation(self):
        plain = gated_fabric(seed=11)
        run_bursty(plain, 1200, seed=11)
        hooked = gated_fabric(seed=11)
        ExplainHub(hooked, out_dir=None).attach()
        run_bursty(hooked, 1200, seed=11)
        assert (
            plain.stats.packets_received
            == hooked.stats.packets_received
        )
        assert [s.sleep_cycles for s in plain.gating.stats] == [
            s.sleep_cycles for s in hooked.gating.stats
        ]
        assert [
            n.counters.flits_injected for n in plain.subnets
        ] == [n.counters.flits_injected for n in hooked.subnets]


class TestLatencyReconciliation:
    @pytest.mark.parametrize("backend", [None, "skip"])
    def test_phase_sums_equal_latency_for_every_packet(self, backend):
        fabric = attributed_run(backend=backend)
        if backend == "skip":
            assert fabric.backend.cycles_jumped > 0
        hub = fabric.explain
        assert hub.packets_seen > 100
        assert hub.phase_mismatches == 0
        for record in hub.records:
            created, received = record[4], record[5]
            phases = record[6:]
            assert len(phases) == len(PHASE_NAMES)
            assert all(value >= 0 for value in phases)
            assert sum(phases) == received - created
        # The aggregate identity holds too.
        assert sum(hub.phase_totals) == hub.latency_cycles

    def test_bursty_run_exercises_every_phase(self):
        hub = attributed_run().explain
        totals = dict(zip(PHASE_NAMES, hub.phase_totals))
        # The step-load schedule sleeps routers then slams them, so
        # every phase — including the wakeup tax — must be nonzero.
        for name, value in totals.items():
            assert value > 0, f"phase {name} never observed"

    def test_unfinished_packets_are_excluded(self):
        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=None).attach()
        run_traffic(fabric, 300, load=0.3)
        # No drain: packets still in flight keep sentinel timestamps.
        doc = hub.latency_doc()
        assert doc["packets"] == hub.packets_seen
        assert doc["unfinished"] == len(hub._packets)
        for record in hub.records:
            assert record[5] >= record[4] >= 0

    def test_record_cap_truncates_but_keeps_totals(self):
        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=None, max_packets=5).attach()
        run_traffic(fabric, 600)
        fabric.drain(50_000)
        assert len(hub.records) == 5
        assert hub.truncated_packets == hub.packets_seen - 5
        assert sum(hub.phase_totals) == hub.latency_cycles


class TestEnergyReconciliation:
    @pytest.mark.parametrize("backend", [None, "skip"])
    def test_power_breakdown_bitwise_identical(self, backend):
        fabric = attributed_run(backend=backend)
        if backend == "skip":
            assert fabric.backend.cycles_jumped > 0
        hub = fabric.explain
        reconstructed = compute_network_power(
            hub.reconstructed_report()
        )
        direct = compute_network_power(fabric.report())
        # Dataclass equality: every component's dynamic/static watts
        # and the csc fraction, compared as exact floats.
        assert reconstructed == direct

    def test_reconciles_before_or_after_fabric_report(self):
        fabric = attributed_run()
        hub = fabric.explain
        # Digest first (closes windows), then the fabric report.
        digest_before = hub.attribution_digest()
        direct = compute_network_power(fabric.report())
        assert compute_network_power(
            hub.reconstructed_report()
        ) == direct
        # Report-time finalization must not shift the digest.
        assert hub.attribution_digest() == digest_before

    def test_window_deltas_sum_to_totals(self):
        hub = attributed_run().explain
        doc = hub.energy_doc()
        totals = doc["totals"]["subnets"]
        summed = [dict.fromkeys(record, 0) for record in totals]
        for window in doc["windows"]:
            assert window["end"] >= window["start"]
            for subnet, record in enumerate(window["subnets"]):
                for name in summed[subnet]:
                    summed[subnet][name] += record[name]
        assert summed == [
            {name: record[name] for name in summed[0]}
            for record in totals
        ]
        assert doc["totals"]["rcs_transitions"] == sum(
            w["rcs_transitions"] for w in doc["windows"]
        )

    def test_window_joules_are_finite_and_split(self):
        hub = attributed_run().explain
        doc = hub.energy_doc()
        assert doc["windows"], "no energy windows recorded"
        for window in doc["windows"]:
            for record in window["subnets"]:
                assert record["dynamic_j"] >= 0.0
                assert record["static_j"] >= 0.0
                assert record["sleep_transition_j"] >= 0.0


class TestDigestDeterminism:
    def test_dense_vs_skip_byte_identical(self):
        dense = attributed_run(backend=None).explain
        skip_fabric = attributed_run(backend="skip")
        assert skip_fabric.backend.cycles_jumped > 0
        skip = skip_fabric.explain
        assert dense.attribution_digest() == skip.attribution_digest()
        assert json.dumps(
            dense._document_body(), sort_keys=True
        ) == json.dumps(skip._document_body(), sort_keys=True)

    def test_repeated_runs_byte_identical(self):
        # Global packet-id churn between runs must not leak into the
        # document (records carry hub-relative ids).
        first = attributed_run().explain.attribution_digest()
        second = attributed_run().explain.attribution_digest()
        assert first == second

    def test_sweep_jobs_digest_identical(self, monkeypatch, tmp_path):
        from repro.experiments.common import synthetic_phases
        from repro.experiments.runner import PointSpec, run_sweep
        from repro.noc.config import NocConfig

        def sweep(jobs: int, directory) -> list[str]:
            monkeypatch.setenv("REPRO_EXPLAIN", "1")
            monkeypatch.setenv("REPRO_EXPLAIN_DIR", str(directory))
            config = NocConfig.multi_noc(2)
            specs = [
                PointSpec.synthetic(
                    config, "uniform", load, synthetic_phases(0.04), 7
                )
                for load in (0.05, 0.20)
            ]
            run_sweep(specs, jobs=jobs, cache=None)
            digests = []
            for name in sorted(os.listdir(directory)):
                with open(directory / name, encoding="utf-8") as f:
                    digests.append(json.load(f)["digest"])
            return digests

        serial = sweep(1, tmp_path / "serial")
        parallel = sweep(2, tmp_path / "parallel")
        assert serial and sorted(serial) == sorted(parallel)


class TestPinnedAttribution:
    """The attribution values themselves, pinned.  The other tests
    compare kernels and runs with each other, so a uniform shift of the
    derived phases would pass them; these constants would not.  The
    point is a gated bursty run, drained and then idle, under link
    faults (a dropped head leaves its packet out) and a router stuck
    asleep (wakeup stalls)."""

    DIGEST = (
        "aba1aa21759ff36f6cc3e593ebac997451d406a5b4a071702f0d4d76db069901"
    )
    PHASE_TOTALS = [803213, 9938, 337, 65849, 9382, 195789, 47004, 55568]

    @pytest.mark.parametrize("backend", ["dense", "skip"])
    def test_faulted_bursty_point(self, backend):
        fabric = gated_fabric(seed=9, backend=backend)
        spec = parse_fault_spec(
            "rate=0.01;classes=drop-flit,corrupt-flit,stuck-asleep;seed=3"
        )
        fabric.faults = FaultEngine(fabric, spec).attach()
        hub = ExplainHub(fabric, out_dir=None).attach()
        fabric.explain = hub
        source = BurstyTrafficSource(
            fabric,
            make_pattern("transpose", fabric.mesh),
            [(0, 0.3), (500, 0.02), (1000, 0.45), (1500, 0.0)],
            seed=9,
        )
        fabric.backend.run(3000, source)
        assert sum(fabric.faults.dropped_flits) > 0
        assert hub.packets_seen == 4691 and not hub._packets
        assert hub.headless_packets > 0
        assert (
            hub.packets_seen + hub.headless_packets
            == fabric.stats.packets_received
        )
        assert hub.phase_mismatches == 0
        assert hub.phase_totals == self.PHASE_TOTALS
        assert hub.attribution_digest() == self.DIGEST
        if backend == "skip":
            assert fabric.backend.cycles_jumped > 0


class TestArtifactsAndObserver:
    def _flushed(self, tmp_path) -> str:
        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=str(tmp_path)).attach()
        run_traffic(fabric, 400)
        fabric.drain(50_000)
        return hub.flush()["explain"]

    def test_flush_writes_classified_artifact(self, tmp_path):
        path = self._flushed(tmp_path)
        assert path.endswith(".explain.json")
        assert classify_artifact(path) == "explain-attribution"
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["schema"] == "repro.explain/1"
        assert doc["digest"]
        assert doc["tax"]["per_subnet"]

    def test_repeated_flushes_never_collide(self, tmp_path):
        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=str(tmp_path)).attach()
        run_traffic(fabric, 200)
        first = hub.flush()["explain"]
        second = hub.flush()["explain"]
        assert first != second
        assert os.path.exists(first) and os.path.exists(second)

    def test_explain_tax_reader(self, tmp_path):
        path = self._flushed(tmp_path)
        tax = explain_tax(path)
        assert tax is not None
        per_flit, stall = tax
        assert len(per_flit) == len(stall) == 2
        assert any(value is not None for value in per_flit)

    def test_explain_tax_degrades_to_none(self, tmp_path):
        bad = tmp_path / "broken.explain.json"
        bad.write_text("{not json", encoding="utf-8")
        assert explain_tax(str(bad)) is None
        empty = tmp_path / "empty.explain.json"
        empty.write_text("{}", encoding="utf-8")
        assert explain_tax(str(empty)) is None

    def test_observer_reports_new_artifacts(self, tmp_path):
        import io

        stream = io.StringIO()
        observer = ArtifactObserver(stream=stream)
        path = self._flushed(tmp_path)
        observer.point_finished(
            None, PointResult(0, [], artifacts=(("explain", path),))
        )
        assert observer.reported == [path]
        assert f"explain: {path}" in stream.getvalue()


class TestReportJoin:
    def test_explain_for_reads_artifact(self, tmp_path):
        from repro.obs.report import _explain_for

        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=str(tmp_path)).attach()
        run_traffic(fabric, 400)
        fabric.drain(50_000)
        path = hub.flush()["explain"]
        joined = _explain_for([path])
        assert joined is not None
        per_flit, stall = joined
        assert len(per_flit) == len(stall) == 2

    def test_explain_for_degrades_gracefully(self, tmp_path):
        from repro.obs.report import _explain_for

        assert _explain_for([]) is None
        assert _explain_for(["/nowhere/x.timeseries.json"]) is None
        bad = tmp_path / "bad.explain.json"
        bad.write_text("{not json", encoding="utf-8")
        assert _explain_for([str(bad)]) is None

    def test_render_report_adds_columns_only_when_present(self):
        from repro.obs.report import render_report

        base_row = {
            "index": 0,
            "config": "2NT",
            "pattern": "uniform",
            "load": 0.1,
            "status": "ok",
            "sleep_frac": None,
        }
        plain = render_report(
            {"run_id": "r", "rollup": {"rows": [dict(base_row)]}}
        )
        assert "epf_pj" not in plain
        joined = render_report(
            {
                "run_id": "r",
                "rollup": {
                    "rows": [
                        {
                            **base_row,
                            "energy_per_flit": [325.7, None],
                            "wakeup_tax": [0.5, None],
                        }
                    ]
                },
            }
        )
        assert "epf_pj" in joined and "wakeup_tax" in joined
        assert "325.700/-" in joined
        assert "0.50/-" in joined


class TestTraceMerge:
    def test_phase_spans_merge_into_validated_trace(self):
        from repro.telemetry.hub import TelemetryHub
        from repro.telemetry.trace import validate_trace

        fabric = gated_fabric()
        telemetry = TelemetryHub(
            fabric, period=32, out_dir=None
        ).attach()
        fabric.telemetry = telemetry
        hub = ExplainHub(fabric, out_dir=None).attach()
        run_bursty(fabric, 1200)
        fabric.drain(50_000)
        doc = telemetry.chrome_trace_doc()
        spans = [
            event
            for event in doc["traceEvents"]
            if event.get("cat") == "explain-phase"
        ]
        assert spans, "no phase spans merged into the trace"
        assert {s["name"] for s in spans} <= set(PHASE_NAMES)
        assert validate_trace(doc) == []
        # Without telemetry attached first, the merge shadow is absent.
        alone = gated_fabric()
        ExplainHub(alone, out_dir=None).attach()
        assert "chrome_trace_doc" not in vars(alone)


class TestExperimentsCliFlags:
    def test_bad_spec_is_a_usage_error(self, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fig06", "--explain", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--explain" in err

    def test_good_spec_enables_explain_and_disables_cache(
        self, monkeypatch, tmp_path
    ):
        for name in ("REPRO_EXPLAIN", "REPRO_EXPLAIN_DIR", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        options = cli_run_options(
            monkeypatch,
            [
                "fig14",
                "--scale",
                "0.02",
                "--explain",
                "--explain-out",
                str(tmp_path),
            ],
        )
        layer = BY_NAME["explain"]
        assert options.spec(layer) == "1"
        assert options.out_dir(layer) == str(tmp_path)
        # Attributed rows must never be served from the cache.
        assert options.cache_dir is None
        names = os.listdir(tmp_path)
        assert any(n.endswith(".explain.json") for n in names)

    def test_explain_out_implies_explain(self, monkeypatch, tmp_path):
        for name in ("REPRO_EXPLAIN", "REPRO_EXPLAIN_DIR", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        options = cli_run_options(
            monkeypatch,
            ["fig14", "--scale", "0.02", "--explain-out", str(tmp_path)],
        )
        assert options.spec(BY_NAME["explain"]) == "1"


class TestExplainCli:
    def _artifact_dir(self, tmp_path):
        fabric = gated_fabric()
        hub = ExplainHub(fabric, out_dir=str(tmp_path)).attach()
        run_bursty(fabric, 1200)
        fabric.drain(50_000)
        hub.flush()
        return tmp_path

    def test_show_blame_tax(self, tmp_path, capsys):
        directory = str(self._artifact_dir(tmp_path))
        assert explain_main(["show", "--dir", directory]) == 0
        assert "attribution artifacts" in capsys.readouterr().out
        assert (
            explain_main(
                ["blame", "--dir", directory, "--top-k", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "wakeup_stall" in out
        assert explain_main(["tax", "--dir", directory]) == 0
        assert "energy_per_flit_pj" in capsys.readouterr().out

    def test_empty_directory_exits_one(self, tmp_path, capsys):
        assert (
            explain_main(["show", "--dir", str(tmp_path)]) == 1
        )
        assert "no attribution artifacts" in capsys.readouterr().err

    def test_unknown_verb_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            explain_main(["bogus"])
        assert excinfo.value.code == 2


class TestSentinelExclusion:
    """Satellite: sentinel -1 timestamps stay out of every histogram."""

    def test_network_stats_excludes_sentinel_packets(self):
        from repro.noc.flit import Packet
        from repro.noc.stats import NetworkStats

        stats = NetworkStats(num_nodes=16, num_subnets=2)
        stats.begin_measurement(0)
        ghost = Packet(src=0, dst=5, size_bits=128, created_cycle=10)
        assert ghost.injected_cycle == -1
        stats.record_received(ghost, 40)
        assert stats.unfinished_packets == 1
        assert stats.packets_received == 0
        assert stats.latency_histogram.count == 0

    def test_telemetry_hub_excludes_sentinel_packets(self):
        from repro.noc.flit import Packet
        from repro.telemetry.hub import TelemetryHub

        fabric = gated_fabric()
        hub = TelemetryHub(fabric, period=32, out_dir=None)
        ghost = Packet(src=0, dst=5, size_bits=128, created_cycle=10)
        hub._record_packet(ghost)
        assert hub.unfinished_packets == 1
        assert hub.packets_seen == 0
        assert hub.latency.count == 0
        assert hub.summary()["unfinished_packets"] == 1

    def test_histogram_rejects_negatives_loudly(self):
        from repro.util.histogram import BoundedHistogram

        with pytest.raises(ValueError, match="negative"):
            BoundedHistogram().record(-1)
