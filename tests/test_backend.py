"""FabricBackend contract: registry, selection, and dense/skip equality.

The skip kernel's contract is byte-identical *state*, not merely
similar tables: after the same seeded workload, the fabric report, the
fabric and source RNG positions, and the cycle counter must all match
the dense reference exactly.  The skip-specific tests pin down the
kernel's defining property — idle and gated subnets cost no Python
work (``SubnetNetwork.step_routers`` is never invoked for them).
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.conftest import CongestionConfig, gated_config, small_config

from repro.experiments.runner import PointSpec, execute_point
from repro.noc.backend import (
    DEFAULT_BACKEND,
    DenseBackend,
    SkipBackend,
    backend_names,
    make_backend,
)
from repro.noc.config import NocConfig, PowerGatingConfig
from repro.noc.flit import Packet
from repro.noc.layers import RunOptions
from repro.noc.multinoc import MultiNocFabric
from repro.noc.network import SubnetNetwork
from repro.noc.router import PowerState
from repro.system.processor import Processor
from repro.system.workloads import WorkloadSpec
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.traffic.patterns import make_pattern


# ----------------------------------------------------------------------
# Registry and selection
# ----------------------------------------------------------------------


class TestRegistry:
    def test_backend_names(self):
        assert backend_names() == ("dense", "skip")
        assert DEFAULT_BACKEND == "dense"

    def test_make_backend_unknown_name(self, fabric):
        with pytest.raises(ValueError) as err:
            make_backend("bogus", fabric)
        assert "bogus" in str(err.value)
        assert "dense" in str(err.value) and "skip" in str(err.value)

    def test_env_default_is_dense(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert RunOptions.from_env().backend == "dense"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "skip")
        assert RunOptions.from_env().backend == "skip"
        fabric = MultiNocFabric(small_config(), seed=5)
        assert isinstance(fabric.backend, SkipBackend)

    def test_constructor_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "skip")
        fabric = MultiNocFabric(small_config(), seed=5, backend="dense")
        assert isinstance(fabric.backend, DenseBackend)

    def test_unknown_env_backend_fails_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError):
            MultiNocFabric(small_config(), seed=5)


# ----------------------------------------------------------------------
# Dense/skip state equivalence
# ----------------------------------------------------------------------


def _final_state(config, backend: str, cycles: int, load: float):
    fabric = MultiNocFabric(config, seed=11, backend=backend)
    source = SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), load, 128, seed=11
    )
    fabric.backend.run(cycles, source)
    assert fabric.drain()
    return (
        dataclasses.asdict(fabric.report()),
        fabric.rng.getstate(),
        source.rng.getstate(),
        fabric.cycle,
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "config_fn, load",
        [
            pytest.param(small_config, 0.2, id="plain-2sub"),
            pytest.param(gated_config, 0.2, id="gated-2sub"),
            pytest.param(gated_config, 0.01, id="gated-idle"),
            pytest.param(
                lambda: small_config(num_subnets=1, link_width_bits=256),
                0.3,
                id="single-subnet",
            ),
        ],
    )
    def test_skip_matches_dense_state(self, config_fn, load):
        dense = _final_state(config_fn(), "dense", 500, load)
        skip = _final_state(config_fn(), "skip", 500, load)
        assert dense == skip

    def test_idle_run_matches_dense_state(self):
        # No source at all: the skip kernel covers the whole span with
        # quiescence jumps, yet gating statistics must match the dense
        # cycle-by-cycle accounting exactly.
        def idle(backend):
            fabric = MultiNocFabric(
                gated_config(), seed=3, backend=backend
            )
            fabric.run(1000)
            return dataclasses.asdict(fabric.report()), fabric.cycle

        assert idle("dense") == idle("skip")


# ----------------------------------------------------------------------
# Skip-kernel specifics
# ----------------------------------------------------------------------


class TestSkipKernel:
    def test_gated_subnet_advances_without_router_step(self, monkeypatch):
        """A fully gated subnet advances the clock at zero router cost:
        the skip kernel never runs its router step."""
        fabric = MultiNocFabric(gated_config(), seed=9, backend="skip")
        fabric.run(600)  # idle warmup: higher-order routers gate off
        assert all(
            router.power_state == PowerState.SLEEP
            for router in fabric.subnets[1].routers
        )
        calls = []
        real_step = SubnetNetwork.step_routers
        monkeypatch.setattr(
            SubnetNetwork,
            "step_routers",
            lambda self, cycle: (
                calls.append(self.subnet), real_step(self, cycle)
            ),
        )
        start = fabric.cycle
        fabric.run(200)
        assert fabric.cycle == start + 200
        assert 1 not in calls

    def test_jumps_as_soon_as_the_fabric_drains(self):
        """Under BFM no NI tracks injection-rate averages, so nothing
        decays after a drain: the kernel jumps the whole idle tail."""
        fabric = MultiNocFabric(small_config(), seed=5, backend="skip")
        for src in range(4):
            fabric.offer(Packet(src=src, dst=15 - src, size_bits=512))
        assert fabric.drain(500)
        backend = fabric.backend
        visited = backend.cycles_visited
        jumped = backend.cycles_jumped
        fabric.run(2000)
        assert backend.cycles_visited - visited <= 5
        assert backend.cycles_jumped - jumped >= 1995

    def test_span_ending_at_quiescence_stops_at_its_end(self):
        """A span whose last visited cycle leaves the fabric quiescent
        ends there: the kernel must not jump (or step) past its end."""
        fabric = MultiNocFabric(small_config(), seed=5, backend="skip")
        fabric.offer(Packet(src=0, dst=15, size_bits=512))
        for expected in range(1, 80):
            fabric.run(1)
            assert fabric.cycle == expected
        assert fabric.in_flight_flits == 0

    def test_shadowed_step_defers_to_dense_path(self):
        """An instance shadow on ``fabric.step`` (how perf/faults/
        telemetry attach) must be honoured cycle by cycle."""
        fabric = MultiNocFabric(small_config(), seed=5, backend="skip")
        seen = []
        class_step = type(fabric).step
        fabric.step = lambda: (seen.append(fabric.cycle), class_step(fabric))
        fabric.run(10)
        assert seen == list(range(10))


# ----------------------------------------------------------------------
# Closed-loop and bursty executors run through backend.run
# ----------------------------------------------------------------------


def _processor_state(monkeypatch, backend, config, spec, cycles):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    processor = Processor(config, spec, seed=4)
    result = processor.run(cycles)
    fabric = processor.fabric
    state = (
        dataclasses.asdict(result),
        fabric.rng.getstate(),
        processor.engine.rng.getstate(),
        fabric.cycle,
    )
    return state, fabric.backend


class TestClosedLoopKernels:
    @pytest.mark.parametrize("mix", ["Light", "Heavy"])
    def test_processor_skip_matches_dense(self, monkeypatch, mix):
        config = NocConfig.multi_noc(4, power_gating=True)
        dense, _ = _processor_state(
            monkeypatch, "dense", config, mix, 300
        )
        skip, backend = _processor_state(
            monkeypatch, "skip", config, mix, 300
        )
        assert dense == skip
        assert backend.cycles_deferred == 0
        assert backend.cycles_visited + backend.cycles_jumped == 300

    def test_closed_loop_jump_matches_dense(self, monkeypatch):
        # A 2x2 mesh (16 cores) whose NI rate averages decay in one
        # cycle, so the fabric goes fully quiescent between misses.
        config = gated_config(
            mesh_cols=2,
            mesh_rows=2,
            congestion=CongestionConfig(injection_rate_window=1),
        )
        spec = WorkloadSpec("quiet", ("gromacs",), config.num_cores)
        dense, _ = _processor_state(
            monkeypatch, "dense", config, spec, 2000
        )
        skip, backend = _processor_state(
            monkeypatch, "skip", config, spec, 2000
        )
        assert dense == skip
        assert backend.cycles_jumped > 0
        assert backend.cycles_visited + backend.cycles_jumped == 2000

    def test_bursty_rows_match_across_kernels(self, monkeypatch):
        spec = PointSpec.bursty(
            gated_config(
                num_subnets=4,
                congestion=CongestionConfig(injection_rate_window=1),
            ),
            "uniform",
            ((0, 0.02), (200, 0.4), (350, 0.0), (600, 0.05)),
            sample_period=50,
            total_cycles=800,
            seed=3,
        )
        rows = {}
        for backend in ("dense", "skip"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            rows[backend] = execute_point(spec)
        assert rows["dense"] == rows["skip"]
        assert len(rows["skip"]) == 16


# ----------------------------------------------------------------------
# The skip kernel's sleep-aware gating phase
# ----------------------------------------------------------------------


def _bursty_fabric(backend, use_regional=True):
    fabric = MultiNocFabric(
        gated_config(
            num_subnets=4,
            congestion=CongestionConfig(
                injection_rate_window=1, use_regional=use_regional
            ),
        ),
        seed=8,
        backend=backend,
    )
    source = BurstyTrafficSource(
        fabric,
        make_pattern("uniform", fabric.mesh),
        [(0, 0.0), (300, 0.45), (420, 0.01), (700, 0.0)],
        seed=8,
    )
    return fabric, source


def _fabric_state(fabric, source):
    routers = [r for network in fabric.subnets for r in network.routers]
    return (
        dataclasses.asdict(fabric.report()),
        fabric.rng.getstate(),
        source.rng.getstate(),
        fabric.cycle,
        [router.power_state for router in routers],
        [router.idle_cycles for router in routers],
    )


class TestGatingPhase:
    @pytest.mark.parametrize(
        "use_regional", [True, False], ids=["rcs", "bfm-local"]
    )
    def test_status_wakeups_match_dense(self, use_regional):
        """Idle sleepers, a burst that raises status bits and sends NI
        wakeups into sleeping subnets, then sleep again."""
        states = {}
        for backend in ("dense", "skip"):
            fabric, source = _bursty_fabric(backend, use_regional)
            monitor = fabric.monitor
            seen_status = False
            for _ in range(20):
                fabric.backend.run(50, source)
                rows = (
                    monitor.regional._rcs if use_regional else monitor.lcs
                )
                seen_status |= any(any(row) for row in rows)
            assert seen_status
            states[backend] = _fabric_state(fabric, source)
        assert states["dense"] == states["skip"]
        gating = states["skip"][0]["gating"]
        assert sum(g["wake_requests"] for g in gating) > 0
        assert sum(g["sleep_periods"] for g in gating) > 3
        assert fabric.backend.cycles_jumped > 0

    def test_power_state_written_between_spans(self):
        """Transitions run between spans (outside the controller's
        step) keep the awake/asleep split exact, including the
        un-gated subnet 0's one-add shortcut."""

        def run(backend):
            fabric, source = _bursty_fabric(backend)
            fabric.backend.run(250, source)  # higher subnets asleep
            gating = fabric.gating
            sub0, sub1 = fabric.subnets[0], fabric.subnets[1]
            assert sub1.routers[2].power_state == PowerState.SLEEP
            assert sub1.routers[7].power_state == PowerState.SLEEP
            cycle = fabric.cycle
            gating._sleep(sub0.routers[5], cycle)
            gating._wake_complete(sub1.routers[2], cycle)
            gating._begin_wakeup(sub1.routers[7], cycle, gating.stats[1])
            fabric.backend.run(150, source)
            return _fabric_state(fabric, source)

        assert run("dense") == run("skip")

    def test_shadowed_transition_uses_controller_step(self):
        """A shadow on ``gating._sleep`` is called by the controller's
        step on both kernels, at the same cycles for the same routers."""
        states = {}
        for backend in ("dense", "skip"):
            fabric, source = _bursty_fabric(backend)
            gating = fabric.gating
            seen = []

            def tap(router, cycle):
                seen.append((cycle, router.subnet, router.node))
                type(gating)._sleep(gating, router, cycle)

            gating._sleep = tap
            fabric.backend.run(100, source)
            assert seen
            states[backend] = (seen, _fabric_state(fabric, source))
        assert states["dense"] == states["skip"]


    def test_jump_makes_transitions_in_step_order(self):
        """Routers that fall asleep inside a quiescence jump sleep in
        the per-cycle step's order: by cycle, then (subnet, node)."""
        logs = {}
        for backend in ("dense", "skip"):
            fabric = MultiNocFabric(
                gated_config(
                    num_subnets=4,
                    gating=PowerGatingConfig(idle_detect_cycles=40),
                ),
                seed=8,
                backend=backend,
            )
            source = BurstyTrafficSource(
                fabric,
                make_pattern("uniform", fabric.mesh),
                [(0, 0.3), (60, 0.0)],
                seed=8,
            )
            gating = fabric.gating
            log = []

            def tap(router, cycle):
                log.append((cycle, router.subnet, router.node))
                type(gating)._sleep(gating, router, cycle)

            gating._sleep = tap
            fabric.backend.run(400, source)
            logs[backend] = log
        assert fabric.backend.cycles_jumped > 0
        assert logs["dense"] == logs["skip"]
        # Meaningful only if the sleeps cross router order.
        assert logs["skip"] != sorted(logs["skip"], key=lambda e: e[1:])


class TestKernelCounters:
    def test_counters_split_every_cycle(self):
        fabric, source = _bursty_fabric("skip")
        fabric.backend.run(900, source)
        backend = fabric.backend
        assert backend.cycles_visited > 0 and backend.cycles_jumped > 0
        assert backend.cycles_deferred == 0
        assert backend.cycles_visited + backend.cycles_jumped == 900
        class_step = type(fabric).step
        fabric.step = lambda: class_step(fabric)
        fabric.backend.run(30, source)
        assert backend.cycles_deferred == 30
