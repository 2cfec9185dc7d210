"""Tests for the simulator phase profiler (repro.perf.profiler).

The contract under test mirrors the telemetry hub's: a fabric without
``REPRO_PERF`` carries no instance shadows (zero overhead,
structurally); an attached profiler changes *nothing* about simulation
behaviour (byte-identical fabric reports); its phase breakdown
partitions the measured step time; and flushes produce schema-valid
artifacts (plus cProfile outputs when asked).
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analysis.invariants import InvariantChecker
from repro.experiments.runner import PointSpec, execute_point
from repro.noc.config import NocConfig, PowerGatingConfig
from repro.noc.layers import BY_NAME, RunOptions
from repro.noc.multinoc import MultiNocFabric
from repro.perf.profiler import (
    PROFILE_SCHEMA,
    STEP_PHASES,
    PhaseProfiler,
)
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.traffic.patterns import make_pattern

CYCLES = 600
LOAD = 0.15


def _config() -> NocConfig:
    return NocConfig(
        mesh_cols=4,
        mesh_rows=4,
        num_subnets=2,
        link_width_bits=128,
        voltage_v=0.625,
        gating=PowerGatingConfig(enabled=True),
    )


def _run(fabric: MultiNocFabric, cycles: int = CYCLES) -> None:
    source = SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), LOAD, 128, seed=7
    )
    # Through the backend (not a hand-rolled step loop) so the
    # profiled-vs-plain contract is tested on every kernel.
    fabric.backend.run(cycles, source)


def _run_with_idle_tail(fabric: MultiNocFabric) -> None:
    """A burst, then silence: the skip kernel jumps the drained tail."""
    source = BurstyTrafficSource(
        fabric,
        make_pattern("uniform", fabric.mesh),
        [(0, LOAD), (CYCLES // 3, 0.0)],
        seed=7,
    )
    fabric.backend.run(CYCLES, source)


def _phase_shadowed(fabric: MultiNocFabric) -> list[bool]:
    """Per phase-method owner: does it carry its own ``name`` binding?"""
    owners = [
        *((network, "deliver_arrivals") for network in fabric.subnets),
        *((network, "step_routers") for network in fabric.subnets),
        (fabric.monitor, "update"),
        (fabric.monitor.regional, "update"),
        *((ni, "step") for ni in fabric.nis),
        (fabric.gating, "step"),
    ]
    return [name in vars(owner) for owner, name in owners]


class TestZeroOverheadWhenDetached:
    def test_perf_off_is_the_class_fast_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        assert fabric.perf is None
        assert RunOptions.from_env().spec(BY_NAME["perf"]) is None
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        assert fabric.step.__func__ is MultiNocFabric.step
        assert fabric.report.__func__ is MultiNocFabric.report
        assert not any(_phase_shadowed(fabric))

    def test_detach_restores_everything(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        assert "step" in fabric.__dict__
        assert all(_phase_shadowed(fabric))
        profiler.detach()
        assert "step" not in fabric.__dict__
        assert "report" not in fabric.__dict__
        assert not any(_phase_shadowed(fabric))
        assert fabric.step.__func__ is MultiNocFabric.step


class TestBehavioralEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "skip"])
    def test_profiled_run_matches_plain_run(self, monkeypatch, backend):
        """Profiling must not change the simulation: same seed, same
        traffic — identical fabric report, field for field.  On the
        skip kernel the profiler does not force dense stepping: it
        times the cycles the kernel visits and counts the ones it
        jumps."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        plain = MultiNocFabric(_config(), seed=7, backend=backend)
        _run_with_idle_tail(plain)
        plain_report = plain.report()

        profiled = MultiNocFabric(_config(), seed=7, backend=backend)
        profiler = PhaseProfiler(profiled, out_dir=None).attach()
        _run_with_idle_tail(profiled)
        profiled_report = profiled.report()

        assert dataclasses.asdict(plain_report) == dataclasses.asdict(
            profiled_report
        )
        doc = profiler.profile()
        assert doc["backend"] == backend
        assert doc["steps_profiled"] + doc["cycles_jumped"] == CYCLES
        assert doc["cycles_deferred"] == 0
        if backend == "skip":
            assert doc["cycles_jumped"] > 0
            assert profiled.backend.cycles_jumped == doc["cycles_jumped"]
        else:
            assert doc["cycles_jumped"] == 0

    def test_perf_composes_with_the_checker_on_skip(self, monkeypatch):
        """Perf and the checker stack on the skip kernel by one rule:
        the same report and the same checks as the checker alone."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        runs = []
        for with_perf in (False, True):
            fabric = MultiNocFabric(_config(), seed=7, backend="skip")
            if with_perf:
                PhaseProfiler(fabric, out_dir=None).attach()
            checker = InvariantChecker(fabric, interval=7).attach()
            _run_with_idle_tail(fabric)
            assert fabric.backend.cycles_deferred == 0
            assert fabric.backend.cycles_jumped > 0
            runs.append(
                (dataclasses.asdict(fabric.report()), dict(checker.counts))
            )
        assert runs[0] == runs[1]
        assert runs[0][1]["flit-conservation"] > 0

    def test_profiled_step_has_the_plain_guards_and_flag(self, monkeypatch):
        """The profiled step skips what the plain step skips (idle NIs,
        empty subnets) and returns the same busy flag every cycle,
        through a burst and the idle tail after it."""
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabrics = [MultiNocFabric(_config(), seed=7) for _ in range(2)]
        PhaseProfiler(fabrics[1], out_dir=None).attach()
        calls = []
        for fabric in fabrics:
            seen = []
            calls.append(seen)
            for ni in fabric.nis:
                ni.step = lambda cycle, ni=ni, seen=seen: (
                    seen.append(("ni", cycle, ni.node)),
                    type(ni).step(ni, cycle),
                )
            for network in fabric.subnets:
                network.step_routers = (
                    lambda cycle, network=network, seen=seen: (
                        seen.append(("subnet", cycle, network.subnet)),
                        type(network).step_routers(network, cycle),
                    )
                )
        sources = [
            SyntheticTrafficSource(
                fabric, make_pattern("uniform", fabric.mesh), LOAD, 128,
                seed=7,
            )
            for fabric in fabrics
        ]
        flags = [[], []]
        for cycle in range(300):
            for side, (fabric, source) in enumerate(zip(fabrics, sources)):
                if cycle < 100:
                    source.step(fabric.cycle)
                flags[side].append(fabric.step())
        assert flags[0] == flags[1]
        assert True in flags[0] and False in flags[0]
        assert calls[0] == calls[1]


class TestPhaseAccounting:
    def test_phases_partition_step_time(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run(fabric)
        phases = profiler.phase_seconds()
        assert tuple(phases) == STEP_PHASES
        assert all(seconds >= 0.0 for seconds in phases.values())
        total = sum(phases.values())
        step = profiler.step_seconds
        assert step > 0
        # Acceptance: phase times sum to >= 90% of measured step time
        # (by construction they partition it minus clamping).
        assert total >= 0.9 * step
        assert total <= step * 1.0000001

    def test_throughput_counts_real_work(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run(fabric)
        throughput = profiler.throughput()
        assert throughput["steps_per_sec"] > 0
        assert throughput["flits_per_sec"] > 0
        assert throughput["flits_routed"] > 0

    def test_ascii_summary_renders(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=None).attach()
        _run(fabric, cycles=50)
        text = profiler.ascii_summary()
        assert "router_pipeline" in text
        assert "steps/s" in text


class TestArtifacts:
    def test_flush_writes_schema_valid_profile(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=str(tmp_path)).attach()
        _run(fabric, cycles=50)
        paths = profiler.flush()
        with open(paths["profile"], encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["config"] == fabric.config.name
        assert doc["steps_profiled"] == 50
        assert set(doc["phases"]) == set(STEP_PHASES)
        assert "step" in doc["step_histograms_ns"]
        # Repeated flushes get fresh names (no clobbering).
        second = profiler.flush()
        assert second["profile"] != paths["profile"]

    def test_report_autoflushes_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "1")
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path))
        fabric = MultiNocFabric(_config(), seed=7)
        assert fabric.perf is not None
        _run(fabric, cycles=50)
        fabric.report()
        artifacts = [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".perf.json")
        ]
        assert len(artifacts) == 1

    def test_bursty_point_flushes_its_profile(self, tmp_path, monkeypatch):
        """The bursty executor (fig12) takes the fabric report, so an
        attached profiler writes its artifact like every other kind."""
        monkeypatch.setenv("REPRO_PERF", "1")
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path))
        spec = PointSpec.bursty(
            _config(),
            "uniform",
            ((0, LOAD), (100, 0.0)),
            sample_period=50,
            total_cycles=200,
            seed=3,
        )
        assert len(execute_point(spec)) == 4
        artifacts = [
            name
            for name in os.listdir(tmp_path)
            if name.endswith(".perf.json")
        ]
        assert len(artifacts) == 1

    def test_cprofile_capture_emits_folded_stacks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(
            fabric, out_dir=str(tmp_path), capture_cprofile=True
        ).attach()
        _run(fabric, cycles=50)
        paths = profiler.flush()
        assert os.path.exists(paths["pstats"])
        with open(paths["folded"], encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
        assert lines, "cProfile capture produced no folded stacks"
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames
            assert int(weight) > 0
        # Router work must be visible in the capture.
        assert any("step" in line for line in lines)


class TestShowCli:
    def test_show_renders_profile(self, tmp_path, monkeypatch, capsys):
        from repro.perf.__main__ import main

        monkeypatch.delenv("REPRO_PERF", raising=False)
        fabric = MultiNocFabric(_config(), seed=7)
        profiler = PhaseProfiler(fabric, out_dir=str(tmp_path)).attach()
        _run(fabric, cycles=50)
        paths = profiler.flush()
        assert main(["show", paths["profile"]]) == 0
        out = capsys.readouterr().out
        assert "router_pipeline" in out
        assert (
            "kernel: backend=dense steps=50 jumped=0 deferred=0 cycles=50"
            in out.splitlines()
        )

    def test_show_loads_older_artifact_with_router_stages(
        self, tmp_path, capsys
    ):
        from repro.perf.__main__ import main

        doc = {
            "config": "old",
            "seed": 1,
            "steps_profiled": 10,
            "step_seconds": 0.5,
            "phases": {"router_pipeline": {"seconds": 0.25, "share": 0.5}},
            "router_stages": {
                "switch_alloc": {"seconds": 0.1, "share_of_pipeline": 0.4}
            },
        }
        path = tmp_path / "old.perf.json"
        path.write_text(json.dumps(doc))
        assert main(["show", str(path)]) == 0
        assert "router_pipeline" in capsys.readouterr().out

    def test_show_unreadable_path_fails(self, tmp_path, capsys):
        from repro.perf.__main__ import main

        assert main(["show", str(tmp_path / "missing.perf.json")]) == 1
