"""The fault-injection engine: deterministic, zero-overhead when off.

``FaultEngine`` perturbs one :class:`~repro.noc.multinoc.MultiNocFabric`
by *shadowing* a handful of methods with per-instance attributes — the
same contract as :class:`repro.perf.profiler.PhaseProfiler`,
:class:`repro.analysis.invariants.InvariantChecker`, and
:class:`repro.telemetry.hub.TelemetryHub`:

* ``fabric.step`` — arms scheduled events before the cycle and runs
  expiry + recovery policies after it;
* ``gating.request_wakeup`` — drops look-ahead wakeups (``drop-wakeup``);
* ``gating._sleep`` / ``gating._begin_wakeup`` — pins routers awake or
  asleep (``stuck-awake`` / ``stuck-asleep``);
* ``monitor.update`` / ``regional.update`` — forces stuck-at LCS/RCS
  bits after every legitimate recomputation;
* each ``network.deliver_arrivals`` — removes or corrupts link flits in
  flight (``drop-flit`` / ``corrupt-flit``);
* each ``network.eject_sink`` — counts survived vs. damaged receptions.

Because shadowing only touches *instances*, a fabric without an engine
runs plain class bytecode — fault-off runs take the identical code path
as a build without this package.  Attach order in the fabric
constructor is the registry's (:mod:`repro.noc.layers`): perf →
**faults** → checker → telemetry → explain, so the checker reconciles
post-fault truth and telemetry observes it.

The engine keeps a deterministic event log (armed events, first hits,
resolutions, recovery actions, watchdog trips) whose canonical JSON
rendering is byte-identical for a given schedule — the campaign
driver's serial-vs-parallel acceptance check hashes it.

Accounting ledgers drive the fault-aware invariant checker:
``dropped_flits`` per subnet reconciles flit conservation and
``lost_credits`` (keyed by the checker's ``(subnet, node, in_port,
vc)`` channel identity) reconciles credit conservation, so
``REPRO_CHECK=1`` composes with ``REPRO_FAULTS`` instead of
false-positiving (see docs/faults.md).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable

from repro.faults.recovery import RecoveryConfig
from repro.faults.report import FaultReport
from repro.faults.spec import (
    BLOCKING_CLASSES,
    FaultEvent,
    FaultSpec,
    compile_schedule,
    parse_fault_spec,
)
from repro.noc.layers import NEVER, FabricLayer
from repro.noc.topology import Port

if TYPE_CHECKING:
    from repro.noc.flit import Packet
    from repro.noc.interface import NetworkInterface
    from repro.noc.multinoc import MultiNocFabric
    from repro.noc.network import SubnetNetwork
    from repro.noc.router import Router

__all__ = ["FaultEngine"]

#: Hard cap on event-log entries (a runaway-rate backstop; the count of
#: suppressed entries is recorded so a truncated log is detectable).
MAX_LOG_ENTRIES = 100_000


class FaultEngine(FabricLayer):
    """Injects one compiled fault schedule into one fabric instance."""

    name = "faults"

    def __init__(
        self,
        fabric: "MultiNocFabric",
        spec: FaultSpec | None = None,
        schedule: list[FaultEvent] | None = None,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        super().__init__(fabric)
        self.spec = spec if spec is not None else FaultSpec()
        self.recovery = (
            recovery
            if recovery is not None
            else RecoveryConfig.from_spec(self.spec)
        )
        if schedule is None:
            schedule = compile_schedule(
                self.spec, fabric.config, fabric.mesh
            )
        self.schedule = sorted(schedule, key=lambda e: (e.cycle, e.seq))
        num_subnets = fabric.config.num_subnets
        # --- live state -------------------------------------------------
        self._next_index = 0
        self._drop_wakeup: list[FaultEvent] = []
        self._stuck_asleep: list[FaultEvent] = []
        self._stuck_awake: list[FaultEvent] = []
        self._stuck_lcs: list[FaultEvent] = []
        self._stuck_rcs: list[FaultEvent] = []
        self._drop_flit: list[FaultEvent] = []
        self._corrupt_flit: list[FaultEvent] = []
        self._pending_credit: list[FaultEvent] = []
        self._armed: list[FaultEvent] = []
        # --- ledgers the invariant checker reconciles against -----------
        #: Flits removed in flight, per subnet (flit conservation).
        self.dropped_flits = [0] * num_subnets
        #: Permanently lost credits per (subnet, node, in_port, vc).
        self.lost_credits: dict[tuple[int, int, int, int], int] = {}
        # --- resilience metrics -----------------------------------------
        self.injected_by_subnet = [0] * num_subnets
        self.damaged_packets: set[int] = set()
        self.packets_received = 0
        self.damaged_received = 0
        self.watchdog_trips = 0
        self.forced_wakes = 0
        self.credits_resynced = 0
        self.rcs_scrubbed = 0
        # --- deterministic event log ------------------------------------
        self.event_log: list[dict] = []
        self.truncated_log_entries = 0
        #: (cycle, subnet, name) instants for the telemetry trace.
        self.fault_instants: list[tuple[int, int, str]] = []
        self.recovery_instants: list[tuple[int, int, str]] = []

    # ------------------------------------------------------------------
    # Construction from the environment
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls, fabric: "MultiNocFabric", spec: str, out_dir: str | None
    ) -> "FaultEngine":
        """Build an engine from ``spec`` in the ``REPRO_FAULTS``
        grammar."""
        return cls(fabric, parse_fault_spec(spec))

    # ------------------------------------------------------------------
    # Attach / detach (per-instance shadowing)
    # ------------------------------------------------------------------
    def _install_probes(self, install: Any) -> None:
        """Install the fault taps and arm the wake watchdog."""
        fabric = self.fabric
        gating = fabric.gating
        monitor = fabric.monitor
        self._orig_request_wakeup = install(
            gating, "request_wakeup", self._tap_request_wakeup
        )
        self._orig_sleep = install(gating, "_sleep", self._tap_sleep)
        self._orig_begin_wakeup = install(
            gating, "_begin_wakeup", self._tap_begin_wakeup
        )
        self._orig_monitor_update = install(
            monitor, "update", self._tap_monitor_update
        )
        self._orig_regional_update = install(
            monitor.regional, "update", self._tap_regional_update
        )
        for network in fabric.subnets:
            install(
                network,
                "deliver_arrivals",
                self._make_deliver_tap(network, network.deliver_arrivals),
            )
        for network in fabric.subnets:
            install(
                network, "eject_sink", self._make_sink_tap(network.eject_sink)
            )
        if self.recovery.wakeup_timeout_enabled:
            gating.arm_wake_timeout(
                self.recovery.wakeup_timeout,
                self.recovery.wakeup_backoff,
                self.recovery.wakeup_timeout_max,
            )

    def detach(self) -> None:
        """Remove every hook and disarm the wake watchdog."""
        super().detach()
        self.fabric.gating.disarm_wake_timeout()

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def _log(self, entry: dict[str, Any]) -> None:
        if len(self.event_log) >= MAX_LOG_ENTRIES:
            self.truncated_log_entries += 1
            return
        self.event_log.append(entry)

    def event_log_lines(self) -> list[str]:
        """Canonical JSON rendering of the event log, one line each."""
        return [
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in self.event_log
        ]

    def event_digest(self) -> str:
        """SHA-256 over the canonical event log (determinism witness)."""
        payload = "\n".join(self.event_log_lines())
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------------
    # The shadowed step
    # ------------------------------------------------------------------
    def _step(self) -> bool:
        cycle = self.fabric.cycle
        self._begin_cycle(cycle)
        busy: bool = self._orig_step()
        self._end_cycle(cycle)
        return busy

    def next_observe_cycle(self, cycle: int) -> int:
        """The next scheduled arm; ``cycle`` (no jump) while an armed
        fault is active or a recovery mechanism runs, since either may
        act on any cycle."""
        if self.recovery.enabled or any(
            getattr(self, name) for name in self._ACTIVE_LISTS
        ):
            return cycle
        if self._next_index < len(self.schedule):
            return self.schedule[self._next_index].cycle
        return NEVER

    _ACTIVE_LIST = {
        "drop-wakeup": "_drop_wakeup",
        "stuck-asleep": "_stuck_asleep",
        "stuck-awake": "_stuck_awake",
        "stuck-lcs-0": "_stuck_lcs",
        "stuck-lcs-1": "_stuck_lcs",
        "stuck-rcs-0": "_stuck_rcs",
        "stuck-rcs-1": "_stuck_rcs",
        "drop-flit": "_drop_flit",
        "corrupt-flit": "_corrupt_flit",
    }
    #: The lists of armed faults still in their window, in expiry order.
    _ACTIVE_LISTS = tuple(dict.fromkeys(_ACTIVE_LIST.values()))

    def _begin_cycle(self, cycle: int) -> None:
        schedule = self.schedule
        while (
            self._next_index < len(schedule)
            and schedule[self._next_index].cycle <= cycle
        ):
            event = schedule[self._next_index]
            self._next_index += 1
            self._arm(event, cycle)

    def _arm(self, event: FaultEvent, cycle: int) -> None:
        self._armed.append(event)
        if 0 <= event.subnet < len(self.injected_by_subnet):
            self.injected_by_subnet[event.subnet] += 1
        self._log({"cycle": cycle, "event": "arm", **event.key()})
        self.fault_instants.append(
            (cycle, max(event.subnet, 0), f"fault {event.fault}")
        )
        if event.fault == "lost-credit":
            self._apply_lost_credit(event, cycle)
            return
        getattr(self, self._ACTIVE_LIST[event.fault]).append(event)

    def _apply_lost_credit(self, event: FaultEvent, cycle: int) -> None:
        network = self.fabric.subnets[event.subnet]
        downstream = network.routers[event.node].neighbor_router[event.port]
        in_port = Port.OPPOSITE[event.port]
        channel = downstream.ports[in_port].vcs[event.vc]
        if channel.free <= 0:
            self._resolve(event, "masked", cycle)
            return
        channel.free -= 1
        key = (event.subnet, downstream.node, in_port, event.vc)
        self.lost_credits[key] = self.lost_credits.get(key, 0) + 1
        event.hits += 1
        self._log({"cycle": cycle, "event": "hit", "seq": event.seq})
        self._pending_credit.append(event)

    def _resolve(self, event: FaultEvent, outcome: str, cycle: int) -> None:
        if event.resolved:
            return
        event.resolved = outcome
        self._log(
            {"cycle": cycle, "event": outcome, "seq": event.seq}
        )

    def _end_cycle(self, cycle: int) -> None:
        for name in self._ACTIVE_LISTS:
            active: list[FaultEvent] = getattr(self, name)
            if not active:
                continue
            remaining: list[FaultEvent] = []
            for event in active:
                if cycle + 1 >= event.cycle + event.duration:
                    self._resolve(
                        event,
                        "effective" if event.hits else "masked",
                        cycle,
                    )
                else:
                    remaining.append(event)
            if len(remaining) != len(active):
                active[:] = remaining
        self._run_recovery(cycle)

    # ------------------------------------------------------------------
    # Recovery scheduling
    # ------------------------------------------------------------------
    def _run_recovery(self, cycle: int) -> None:
        recovery = self.recovery
        fabric = self.fabric
        if recovery.wakeup_timeout_enabled:
            forced = fabric.gating.wake_on_timeout(cycle, fabric.nis)
            if forced:
                self.forced_wakes += forced
                self._log(
                    {
                        "cycle": cycle,
                        "event": "recovery",
                        "mechanism": "wakeup-timeout",
                        "count": forced,
                    }
                )
                self.recovery_instants.append(
                    (cycle, 0, "recovery wakeup-timeout")
                )
                for event in self._drop_wakeup:
                    if event.hits:
                        event.recovered = True
        if (
            recovery.credit_resync_enabled
            and cycle
            and cycle % recovery.credit_resync_period == 0
        ):
            self._resync_credits(cycle)
        if (
            recovery.rcs_refresh_enabled
            and cycle
            and cycle % recovery.rcs_refresh_period == 0
        ):
            self._refresh_rcs(cycle)

    def _resync_credits(self, cycle: int) -> None:
        total = 0
        for network in self.fabric.subnets:
            total += network.resync_credits()
        if total:
            self.credits_resynced += total
            self._log(
                {
                    "cycle": cycle,
                    "event": "recovery",
                    "mechanism": "credit-resync",
                    "count": total,
                }
            )
            self.recovery_instants.append(
                (cycle, 0, "recovery credit-resync")
            )
        # Truth is now enforced everywhere: the ledger of expected
        # discrepancies is empty and pending lost-credit events are
        # recovered (dropped-flit credit leaks are repaired too, but
        # their packets stay lost — those events remain effective).
        self.lost_credits.clear()
        for event in self._pending_credit:
            event.recovered = True
            self._resolve(event, "recovered", cycle)
        self._pending_credit.clear()

    def _refresh_rcs(self, cycle: int) -> None:
        monitor = self.fabric.monitor
        corrected = monitor.regional.refresh(cycle, monitor.lcs)
        if corrected:
            self.rcs_scrubbed += corrected
            self._log(
                {
                    "cycle": cycle,
                    "event": "recovery",
                    "mechanism": "rcs-refresh",
                    "count": corrected,
                }
            )
            self.recovery_instants.append(
                (cycle, 0, "recovery rcs-refresh")
            )
        # The scrub just overwrote every latched bit with ground truth:
        # active stuck-RCS windows are terminated (bounded staleness).
        for event in self._stuck_rcs:
            if event.hits:
                event.recovered = True
            self._resolve(
                event, "recovered" if event.hits else "masked", cycle
            )
        self._stuck_rcs.clear()

    # ------------------------------------------------------------------
    # Fault taps
    # ------------------------------------------------------------------
    @staticmethod
    def _matches(event: FaultEvent, subnet: int, node: int) -> bool:
        return event.subnet in (-1, subnet) and event.node in (-1, node)

    def _tap_request_wakeup(self, router: "Router") -> None:
        for event in self._drop_wakeup:
            if self._matches(event, router.subnet, router.node):
                if not event.hits:
                    self._log(
                        {
                            "cycle": self.fabric.cycle,
                            "event": "hit",
                            "seq": event.seq,
                        }
                    )
                event.hits += 1
                return
        self._orig_request_wakeup(router)

    def _tap_sleep(self, router: "Router", cycle: int) -> None:
        for event in self._stuck_awake:
            if self._matches(event, router.subnet, router.node):
                if not event.hits:
                    self._log(
                        {"cycle": cycle, "event": "hit", "seq": event.seq}
                    )
                event.hits += 1
                return
        self._orig_sleep(router, cycle)

    def _tap_begin_wakeup(
        self, router: "Router", cycle: int, stats: Any
    ) -> None:
        for event in self._stuck_asleep:
            if self._matches(event, router.subnet, router.node):
                if not event.hits:
                    self._log(
                        {"cycle": cycle, "event": "hit", "seq": event.seq}
                    )
                event.hits += 1
                return
        self._orig_begin_wakeup(router, cycle, stats)

    def _tap_monitor_update(
        self,
        cycle: int,
        subnets: list[SubnetNetwork],
        nis: list[NetworkInterface],
    ) -> None:
        self._orig_monitor_update(cycle, subnets, nis)
        if not self._stuck_lcs:
            return
        monitor = self.fabric.monitor
        num_subnets = self.fabric.config.num_subnets
        for event in self._stuck_lcs:
            value = event.fault.endswith("1")
            targets = (
                range(num_subnets)
                if event.subnet == -1
                else (event.subnet,)
            )
            for subnet in targets:
                if monitor.force_lcs(subnet, event.node, value):
                    if not event.hits:
                        self._log(
                            {
                                "cycle": cycle,
                                "event": "hit",
                                "seq": event.seq,
                            }
                        )
                    event.hits += 1

    def _tap_regional_update(
        self, cycle: int, lcs: list[list[bool]]
    ) -> None:
        self._orig_regional_update(cycle, lcs)
        if not self._stuck_rcs:
            return
        regional = self.fabric.monitor.regional
        for event in self._stuck_rcs:
            value = event.fault.endswith("1")
            if regional.force_rcs(event.subnet, event.region, value):
                if not event.hits:
                    self._log(
                        {"cycle": cycle, "event": "hit", "seq": event.seq}
                    )
                event.hits += 1

    def _make_deliver_tap(
        self,
        network: "SubnetNetwork",
        orig: Callable[[int], None],
    ) -> Callable[[int], None]:
        def tap(cycle: int) -> None:
            if self._drop_flit or self._corrupt_flit:
                self._apply_link_faults(network, cycle)
            orig(cycle)

        return tap

    def _apply_link_faults(
        self, network: "SubnetNetwork", cycle: int
    ) -> None:
        slot = network._ring[cycle % network._ring_len]
        subnet = network.subnet
        for event in list(self._drop_flit):
            if not slot:
                return
            if event.subnet not in (-1, subnet):
                continue
            channel, flit = slot.pop(0)
            router = channel.router
            in_port, vc = channel.position
            network.flits_in_network -= 1
            router.held -= 1
            key = (subnet, router.node, in_port, vc)
            self.lost_credits[key] = self.lost_credits.get(key, 0) + 1
            self.dropped_flits[subnet] += 1
            self.damaged_packets.add(flit.packet.packet_id)
            event.hits += 1
            self._log({"cycle": cycle, "event": "hit", "seq": event.seq})
            self._resolve(event, "effective", cycle)
            self._drop_flit.remove(event)
        for event in list(self._corrupt_flit):
            if not slot:
                return
            if event.subnet not in (-1, subnet):
                continue
            flit = slot[0][1]
            self.damaged_packets.add(flit.packet.packet_id)
            event.hits += 1
            self._log({"cycle": cycle, "event": "hit", "seq": event.seq})
            self._resolve(event, "effective", cycle)
            self._corrupt_flit.remove(event)

    def _make_sink_tap(
        self, orig: "Callable[[Packet, int], None] | None"
    ) -> "Callable[[Packet, int], None]":
        def tap(packet: "Packet", cycle: int) -> None:
            self.packets_received += 1
            if packet.packet_id in self.damaged_packets:
                self.damaged_received += 1
            if orig is not None:
                orig(packet, cycle)

        return tap

    # ------------------------------------------------------------------
    # Checker integration
    # ------------------------------------------------------------------
    def dropped_flits_in(self, subnet: int) -> int:
        """Flits deliberately removed in flight from ``subnet``."""
        return self.dropped_flits[subnet]

    def lost_credit(
        self, subnet: int, node: int, in_port: int, vc: int
    ) -> int:
        """Credits deliberately lost on one channel (checker key)."""
        return self.lost_credits.get((subnet, node, in_port, vc), 0)

    def has_blocking_effects(self) -> bool:
        """True when a progress-blocking fault class actually hit."""
        return any(
            event.hits
            for event in self._armed
            if event.fault in BLOCKING_CLASSES
        )

    def note_watchdog_trip(self, cycle: int) -> None:
        """Record an expected deadlock-watchdog trip (checker hook)."""
        self.watchdog_trips += 1
        self._log({"cycle": cycle, "event": "watchdog"})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def outcome_counts(self) -> dict[str, int]:
        """Armed events bucketed by their (current) outcome."""
        counts = {
            "injected": len(self._armed),
            "masked": 0,
            "recovered": 0,
            "effective": 0,
        }
        for event in self._armed:
            if event.recovered:
                counts["recovered"] += 1
            elif event.resolved == "masked" or not event.hits:
                counts["masked"] += 1
            else:
                counts["effective"] += 1
        return counts

    def report(self) -> FaultReport:
        """Snapshot the engine's resilience metrics."""
        stats = self.fabric.stats
        counts = self.outcome_counts()
        survived = self.packets_received - self.damaged_received
        offered = stats.packets_offered
        return FaultReport(
            injected=counts["injected"],
            masked=counts["masked"],
            recovered=counts["recovered"],
            effective=counts["effective"],
            fatal=self.watchdog_trips,
            packets_offered=offered,
            packets_received=self.packets_received,
            damaged_received=self.damaged_received,
            survival_rate=(survived / offered) if offered else 1.0,
            dropped_flits=sum(self.dropped_flits),
            lost_credits=sum(self.lost_credits.values()),
            forced_wakes=self.forced_wakes,
            credits_resynced=self.credits_resynced,
            rcs_scrubbed=self.rcs_scrubbed,
            event_digest=self.event_digest(),
        )
