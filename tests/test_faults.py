"""Tests for the fault-injection subsystem (repro.faults).

Covers the ISSUE-5 guarantees: deterministic schedules and event logs
(same seed => identical log, serial == parallel campaigns), a visible
effect for every fault class with unprotected-vs-protected comparisons
for the recoverable ones, the zero-overhead-when-off structural
contract, composition with the invariant checker, and a campaign
smoke run.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import (
    render_campaign,
    run_campaign,
    run_fault_point,
)
from repro.faults.engine import FaultEngine
from repro.faults.recovery import RecoveryConfig
from repro.faults.spec import (
    FAULT_CLASSES,
    FaultEvent,
    FaultSpec,
    compile_schedule,
    parse_fault_spec,
)
from repro.noc.layers import BY_NAME, RunOptions
from repro.noc.multinoc import MultiNocFabric
from repro.noc.router import PowerState
from repro.noc.simulator import SimulationPhases, run_open_loop
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern
from tests.conftest import gated_config, small_config

#: Short open-loop run shared by the effect tests.
PHASES = SimulationPhases(warmup=100, measure=600, cooldown=100)


def run_traffic(fabric, load=0.3, phases=PHASES, seed=5):
    pattern = make_pattern("uniform", fabric.mesh)
    source = SyntheticTrafficSource(fabric, pattern, load, 128, seed=seed)
    return run_open_loop(fabric, source, phases)


def faulted_run(config, schedule_builder, recover=(), load=0.3,
                phases=PHASES, seed=5):
    """Simulate with an explicit schedule; return (fabric, engine)."""
    fabric = MultiNocFabric(config, seed=seed)
    spec = FaultSpec(recover=tuple(recover))
    engine = FaultEngine(
        fabric, spec=spec, schedule=schedule_builder(fabric)
    ).attach()
    fabric.faults = engine
    run_traffic(fabric, load=load, phases=phases, seed=seed)
    engine.detach()
    return fabric, engine


class TestSpecGrammar:
    def test_round_trip(self):
        spec = FaultSpec(
            rate=0.005,
            classes=("drop-wakeup", "lost-credit"),
            window=32,
            start=10,
            end=5000,
            seed=9,
            max_events=7,
            recover=("wakeup-timeout",),
        )
        assert parse_fault_spec(spec.to_string()) == spec

    def test_shorthand_defaults(self):
        assert parse_fault_spec("1") == FaultSpec()
        assert parse_fault_spec("") == FaultSpec()

    def test_recover_keywords(self):
        assert parse_fault_spec("recover=none").recover == ()
        assert parse_fault_spec("recover=all").recover == (
            "wakeup-timeout", "credit-resync", "rcs-refresh",
        )

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            parse_fault_spec("classes=gremlins")

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            parse_fault_spec("frequency=0.1")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            parse_fault_spec("rate=1.5")


class TestSchedule:
    def test_same_seed_compiles_identical_schedules(self, fabric):
        spec = FaultSpec(rate=0.05, seed=11, end=2000)
        first = compile_schedule(spec, fabric.config, fabric.mesh)
        second = compile_schedule(spec, fabric.config, fabric.mesh)
        assert first == second
        assert first, "rate=0.05 over 2000 cycles must schedule events"

    def test_seed_changes_schedule(self, fabric):
        base = FaultSpec(rate=0.05, seed=11, end=2000)
        other = FaultSpec(rate=0.05, seed=12, end=2000)
        assert compile_schedule(
            base, fabric.config, fabric.mesh
        ) != compile_schedule(other, fabric.config, fabric.mesh)

    def test_zero_rate_is_empty(self, fabric):
        spec = FaultSpec(rate=0.0)
        assert compile_schedule(spec, fabric.config, fabric.mesh) == []

    def test_max_events_caps_schedule(self, fabric):
        spec = FaultSpec(rate=0.5, max_events=3, end=2000)
        events = compile_schedule(spec, fabric.config, fabric.mesh)
        assert len(events) == 3

    def test_windows_and_targets_per_class(self, fabric):
        spec = FaultSpec(rate=0.5, window=17, seed=3, end=4000)
        events = compile_schedule(spec, fabric.config, fabric.mesh)
        seen = {event.fault for event in events}
        assert seen == set(FAULT_CLASSES)
        for event in events:
            assert 0 <= event.subnet < fabric.config.num_subnets
            if event.fault == "lost-credit":
                assert event.duration == 0
                assert event.port >= 1 and event.vc >= 0
            else:
                assert event.duration == 17


class TestZeroOverhead:
    def test_no_engine_and_no_shadows_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        fabric = MultiNocFabric(small_config(), seed=5)
        assert fabric.faults is None
        assert "step" not in fabric.__dict__
        assert "request_wakeup" not in fabric.gating.__dict__
        assert "update" not in fabric.monitor.__dict__
        for network in fabric.subnets:
            assert "deliver_arrivals" not in network.__dict__
        # eject_sink is a plain data slot on the subnet; without an
        # engine it holds the fabric's own reception callback, not a
        # counting tap.
        for network in fabric.subnets:
            assert network.eject_sink == fabric._on_packet_received

    def test_attach_detach_restores_structure(self):
        fabric = MultiNocFabric(small_config(), seed=5)
        engine = FaultEngine(fabric, FaultSpec(rate=0.01)).attach()
        assert "step" in fabric.__dict__
        assert "request_wakeup" in fabric.gating.__dict__
        engine.detach()
        assert "step" not in fabric.__dict__
        assert "request_wakeup" not in fabric.gating.__dict__
        for network in fabric.subnets:
            assert "deliver_arrivals" not in network.__dict__

    def test_faults_enabled_switch(self, monkeypatch):
        layer = BY_NAME["faults"]
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert RunOptions.from_env().spec(layer) is None
        monkeypatch.setenv("REPRO_FAULTS", "0")
        assert RunOptions.from_env().spec(layer) is None
        monkeypatch.setenv("REPRO_FAULTS", "rate=0.01")
        assert RunOptions.from_env().spec(layer) == "rate=0.01"

    def test_maybe_attach_is_noop_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        fabric = MultiNocFabric(small_config(), seed=5)
        assert fabric.faults is None
        assert "step" not in fabric.__dict__

    def test_env_attach_in_constructor(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "rate=0.01;seed=4")
        fabric = MultiNocFabric(small_config(), seed=5)
        assert isinstance(fabric.faults, FaultEngine)
        assert fabric.faults.spec.seed == 4
        fabric.faults.detach()


class TestEventLogDeterminism:
    def test_same_seed_same_log_and_digest(self):
        logs = []
        for _ in range(2):
            fabric = MultiNocFabric(small_config(), seed=5)
            engine = FaultEngine(
                fabric, FaultSpec(rate=0.02, seed=3, end=PHASES.total)
            ).attach()
            fabric.faults = engine
            run_traffic(fabric)
            engine.detach()
            logs.append((engine.event_log_lines(), engine.event_digest()))
        assert logs[0] == logs[1]
        assert logs[0][0], "expected a non-empty event log"

    def test_different_fault_seed_different_digest(self):
        digests = []
        for fault_seed in (3, 4):
            fabric = MultiNocFabric(small_config(), seed=5)
            engine = FaultEngine(
                fabric,
                FaultSpec(rate=0.02, seed=fault_seed, end=PHASES.total),
            ).attach()
            fabric.faults = engine
            run_traffic(fabric)
            engine.detach()
            digests.append(engine.event_digest())
        assert digests[0] != digests[1]


def wildcard(fault, duration, cycle=0, **fields):
    return FaultEvent(
        seq=0, cycle=cycle, fault=fault, duration=duration, **fields
    )


def exhaust_credits_schedule(fabric, subnet=0):
    """Drain every inter-router credit in ``subnet`` at cycle 1."""
    events = []
    config = fabric.config
    for node in range(fabric.mesh.num_nodes):
        for port in sorted(fabric.mesh.neighbors(node)):
            for vc in range(config.vcs_per_port):
                for _ in range(config.flits_per_vc):
                    events.append(
                        FaultEvent(
                            seq=len(events),
                            cycle=1,
                            fault="lost-credit",
                            subnet=subnet,
                            node=node,
                            port=port,
                            vc=vc,
                        )
                    )
    return events


class TestFaultClasses:
    def baseline_survival(self, config, **kwargs):
        _, engine = faulted_run(config, lambda fabric: [], **kwargs)
        return engine.report().survival_rate

    @staticmethod
    def _drop_wakeup_run(recover):
        """Idle until routers sleep, then offer traffic under a
        blanket drop-wakeup fault (sleeping routers only matter once
        something needs to wake them).  Round-robin subnet selection
        spreads traffic over every — sleeping — subnet."""
        config = gated_config().with_policy("round_robin")
        fabric = MultiNocFabric(config, seed=5)
        engine = FaultEngine(
            fabric,
            FaultSpec(recover=recover),
            schedule=[wildcard("drop-wakeup", 400 + PHASES.total)],
        ).attach()
        fabric.faults = engine
        for _ in range(400):
            fabric.step()
        run_traffic(fabric, load=0.3)
        engine.detach()
        return engine

    def test_drop_wakeup_recovery_improves_survival(self):
        unprotected = self._drop_wakeup_run(())
        protected = self._drop_wakeup_run(("wakeup-timeout",))
        assert unprotected.schedule[0].hits > 0
        assert unprotected.has_blocking_effects()
        assert protected.forced_wakes > 0
        assert (
            protected.report().survival_rate
            > unprotected.report().survival_rate
        )

    def test_lost_credit_recovery_improves_survival(self):
        config = small_config()
        _, unprotected = faulted_run(config, exhaust_credits_schedule)
        _, protected = faulted_run(
            config, exhaust_credits_schedule, recover=("credit-resync",)
        )
        assert unprotected.report().lost_credits > 0
        assert protected.credits_resynced > 0
        assert protected.report().lost_credits == 0
        assert (
            protected.report().survival_rate
            > unprotected.report().survival_rate
        )

    def test_drop_flit_loses_packets(self):
        config = small_config()
        schedule = lambda fabric: [  # noqa: E731
            FaultEvent(
                seq=i, cycle=150 + 30 * i, fault="drop-flit", duration=64
            )
            for i in range(10)
        ]
        _, engine = faulted_run(config, schedule)
        report = engine.report()
        assert report.dropped_flits > 0
        assert report.survival_rate < self.baseline_survival(config)

    def test_corrupt_flit_damages_received_packets(self):
        config = small_config()
        schedule = lambda fabric: [  # noqa: E731
            FaultEvent(
                seq=i, cycle=150 + 30 * i, fault="corrupt-flit",
                duration=64,
            )
            for i in range(10)
        ]
        _, engine = faulted_run(config, schedule)
        assert engine.damaged_received > 0
        report = engine.report()
        assert report.survival_rate < self.baseline_survival(config)

    def test_stuck_lcs_1_forces_congestion_bit(self):
        fabric = MultiNocFabric(small_config(), seed=5)
        engine = FaultEngine(
            fabric,
            FaultSpec(),
            schedule=[wildcard("stuck-lcs-1", 100, subnet=0, node=3)],
        ).attach()
        for _ in range(30):
            fabric.step()
        assert fabric.monitor.lcs[0][3] is True
        assert engine.schedule[0].hits > 0
        engine.detach()

    def test_stuck_lcs_0_on_idle_fabric_is_masked(self):
        fabric = MultiNocFabric(small_config(), seed=5)
        engine = FaultEngine(
            fabric,
            FaultSpec(),
            schedule=[wildcard("stuck-lcs-0", 10, subnet=0, node=3)],
        ).attach()
        for _ in range(20):
            fabric.step()
        assert engine.schedule[0].resolved == "masked"
        engine.detach()

    def test_stuck_rcs_1_forced_and_scrubbed_by_refresh(self):
        fabric = MultiNocFabric(small_config(), seed=5)
        engine = FaultEngine(
            fabric,
            FaultSpec(recover=("rcs-refresh",)),
            schedule=[wildcard("stuck-rcs-1", 500, subnet=0, region=0)],
        ).attach()
        regional = fabric.monitor.regional
        for _ in range(12):
            fabric.step()
        assert regional.rcs_region(0, 0) is True
        # rcs-refresh fires at its period (24) and scrubs the lie.
        for _ in range(30):
            fabric.step()
        assert regional.rcs_region(0, 0) is False
        assert engine.rcs_scrubbed > 0
        assert engine.schedule[0].recovered
        engine.detach()

    def test_stuck_awake_pins_routers_active(self):
        config = gated_config()
        baseline = MultiNocFabric(config, seed=5)
        for _ in range(400):
            baseline.step()
        sleepers = sum(
            router.power_state == PowerState.SLEEP
            for network in baseline.subnets
            for router in network.routers
        )
        assert sleepers > 0, "idle gated fabric must put routers to sleep"
        fabric = MultiNocFabric(config, seed=5)
        engine = FaultEngine(
            fabric, FaultSpec(), schedule=[wildcard("stuck-awake", 400)]
        ).attach()
        for _ in range(400):
            fabric.step()
        assert engine.schedule[0].hits > 0
        assert all(
            router.power_state == PowerState.ACTIVE
            for network in fabric.subnets
            for router in network.routers
        )
        engine.detach()

    @staticmethod
    def _stuck_asleep_run(schedule):
        config = gated_config().with_policy("round_robin")
        fabric = MultiNocFabric(config, seed=5)
        engine = FaultEngine(
            fabric, FaultSpec(), schedule=schedule
        ).attach()
        fabric.faults = engine
        for _ in range(400):
            fabric.step()
        run_traffic(fabric, load=0.3)
        engine.detach()
        return engine

    def test_stuck_asleep_suppresses_wakeups(self):
        baseline = self._stuck_asleep_run([])
        engine = self._stuck_asleep_run(
            [wildcard("stuck-asleep", 400 + PHASES.total)]
        )
        assert engine.schedule[0].hits > 0
        assert (
            engine.report().survival_rate
            < baseline.report().survival_rate
        )


class TestCheckerComposition:
    def test_check_composes_with_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        monkeypatch.setenv(
            "REPRO_FAULTS",
            f"rate=0.02;seed=3;end={PHASES.total};"
            "classes=drop-flit,lost-credit",
        )
        fabric = MultiNocFabric(small_config(), seed=5)
        assert fabric.faults is not None
        assert fabric.invariant_checker is not None
        run_traffic(fabric)  # must not raise InvariantViolation
        expected = fabric.invariant_checker.expected
        assert sum(expected.values()) > 0, (
            "fault-aware checker should reconcile at least one "
            f"expected discrepancy, got {expected}"
        )
        assert fabric.faults.report().dropped_flits > 0


class TestCampaign:
    def test_point_rows_are_deterministic(self):
        from repro.faults.campaign import campaign_config
        from repro.experiments.common import synthetic_phases

        phases = synthetic_phases(0.05)
        spec = FaultSpec(
            rate=0.01, classes=("drop-flit",), end=phases.total, seed=1
        )
        rows = [
            run_fault_point(
                campaign_config(), "uniform", 0.3, phases, 7,
                spec.to_string(),
            )
            for _ in range(2)
        ]
        assert rows[0] == rows[1]
        assert rows[0]["injected"] > 0
        assert rows[0]["event_digest"]

    def test_campaign_serial_equals_parallel(self):
        kwargs = dict(
            classes=("drop-flit",), rates=(0.01,), scale=0.05, seed=7
        )
        serial = run_campaign(jobs=1, **kwargs)
        parallel = run_campaign(jobs=4, **kwargs)
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 2  # unprotected + protected
        for row in serial.rows:
            assert 0.0 <= row["survival_rate"] <= 1.0
            assert row["fault_class"] == "drop-flit"
        assert {row["protected"] for row in serial.rows} == {False, True}
        table = render_campaign(serial)
        assert "survival" in table

    def test_cli_plan_and_campaign(self, capsys):
        from repro.faults.__main__ import main

        assert main(["plan", "rate=0.05;seed=2;end=100"]) == 0
        planned = capsys.readouterr().out
        assert '"fault"' in planned
        assert (
            main(
                [
                    "campaign",
                    "--classes", "drop-flit",
                    "--rates", "0.02",
                    "--scale", "0.03",
                    "--jobs", "1",
                ]
            )
            == 0
        )
        assert "survival" in capsys.readouterr().out


#: ``(class, recovery, event_digest, rows digest)`` of one campaign
#: fault point (64-core gated Multi-NoC, uniform 0.30, seed 7, scale
#: 0.2, rate 0.016, fault seed 1), pinned so that a rewrite of the
#: credit path or the fault engine cannot change fault semantics
#: unnoticed.  Every class injects at this rate and scale; at scale
#: 0.05 nothing is armed.
PINNED_FAULT_POINTS = (
    ("lost-credit", (),
     "f001adfc73e34ec6b1f100f0a441085bdc07561b055621910bcb73c42136b971",
     "4b2b27a04ba22dcc"),
    ("lost-credit", ("credit-resync",),
     "2e46493d209d004a2bbc288b6599f26e16e21d2d871468d26db8ab4462e06ccb",
     "2adb2709001e7920"),
    ("drop-flit", (),
     "b6c543fc5db4706e0731f5041843fb3259a6809d85d4f1465e271f3aaac1abd2",
     "5a96f25a337592d7"),
    ("drop-flit", ("credit-resync",),
     "ff25ba913c986379894034672f10a227bb441ce5e245c73cc4fcb6a380e55798",
     "57fe149be923a6ed"),
    ("drop-wakeup", (),
     "3c52e46e7c1dc75807188f6b1dcd6ac0738eef6cbde2b888f511e44ec373453d",
     "b4f60eff80e95373"),
    ("drop-wakeup", ("credit-resync",),
     "3c52e46e7c1dc75807188f6b1dcd6ac0738eef6cbde2b888f511e44ec373453d",
     "85c955d7618ea49a"),
)


class TestPinnedFaultDigests:
    """Fault semantics stay fixed across versions, not only run to
    run: a ``PointSpec.fault`` point's event log and its rows (hashed
    as the ledger's ``rows_digest``) match digests recorded earlier."""

    @pytest.mark.parametrize(
        "fault_class,recover,event_digest,rows_digest",
        PINNED_FAULT_POINTS,
        ids=[
            fault_class + ("+resync" if recover else "")
            for fault_class, recover, _, _ in PINNED_FAULT_POINTS
        ],
    )
    def test_fault_point_matches_pinned_digests(
        self, fault_class, recover, event_digest, rows_digest
    ):
        from repro.experiments.common import synthetic_phases
        from repro.experiments.runner import PointSpec, execute_point
        from repro.faults.campaign import campaign_config
        from repro.obs.ledger import _rows_digest

        phases = synthetic_phases(0.2)
        spec = FaultSpec(
            rate=0.016, classes=(fault_class,), window=64, start=0,
            end=phases.total, seed=1, recover=recover,
        )
        rows = execute_point(
            PointSpec.fault(
                campaign_config(), "uniform", 0.30, phases,
                spec.to_string(), seed=7,
            )
        )
        assert rows[0]["injected"] > 0
        assert rows[0]["event_digest"] == event_digest
        assert _rows_digest(rows) == rows_digest


class TestRecoveryConfig:
    def test_from_spec_enables_named_mechanisms(self):
        spec = FaultSpec(recover=("credit-resync",))
        recovery = RecoveryConfig.from_spec(spec)
        assert recovery.credit_resync_enabled
        assert not recovery.wakeup_timeout_enabled
        assert not recovery.rcs_refresh_enabled

    def test_telemetry_sees_fault_instants(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
        monkeypatch.setenv(
            "REPRO_FAULTS", f"rate=0.02;seed=3;end={PHASES.total}"
        )
        from repro.telemetry.trace import validate_trace

        fabric = MultiNocFabric(small_config(), seed=5)
        run_traffic(fabric)
        summary = fabric.telemetry.summary()
        assert summary["faults"] is not None
        assert summary["faults"]["injected"] > 0
        doc = fabric.telemetry.chrome_trace_doc()
        assert validate_trace(doc) == []
        assert any(
            event.get("cat") == "fault" for event in doc["traceEvents"]
        )
