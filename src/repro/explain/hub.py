"""The attribution hub: exact latency and energy decomposition.

``ExplainHub`` observes one :class:`~repro.noc.multinoc.MultiNocFabric`
under the per-instance shadowing contract (the same as
:class:`repro.telemetry.hub.TelemetryHub`): every probe is an instance
attribute, so a fabric without a hub executes the original unhooked
class methods.  Attach order is perf → faults → checker → telemetry →
explain: the hub attaches last, so attribution sees post-fault,
checked, telemetry-visible behaviour.

**Latency attribution.**  Every delivered packet's end-to-end latency
``received_cycle - created_cycle`` is split into eight named phases
that sum to it *exactly* (no sampling, no estimation):

* ``ni_queue`` — cycles queued behind other packets at the source NI;
* ``selection_stall`` — cycles at the queue head with no free VC slot
  on the policy-selected subnet;
* ``wakeup_stall`` — cycles the assigned head flit waited because the
  target subnet's local router was asleep or waking (the wakeup tax);
* ``ni_stream_wait`` — remaining pre-injection cycles (credit waits,
  NI link round-robin);
* ``inject_pipe`` — the injection pipeline latency;
* ``router_residency`` — cycles the head flit sat buffered in routers;
* ``link`` — head-flit link/hop traversal cycles;
* ``serialization`` — head ejection to tail ejection (body streaming
  plus tail transit).

The probe placement makes the identity structural: ``_assign_head``
brackets ``[created, assigned)``, the post-``ni.step`` slot scan
classifies ``[assigned, injected)``, and a tap on every subnet's
``eject_sink`` completes the packet from its own timestamps.  The
router charges a fixed ``pipeline_cycles`` per injection and
``hop_cycles`` per hop, so ``[injected, head_ejected_cycle]`` splits in
closed form: ``inject_pipe = pipeline_cycles``, ``link = hop_cycles *
hops``, and router residency is the rest; serialization runs from head
to tail ejection.  The phases therefore always sum to the latency;
``phase_mismatches`` counts packets with a negative derived phase,
which would mean a timestamp or hop count is wrong.

**Energy attribution.**  Every ``window_cycles`` cycles the hub
snapshots the per-subnet :class:`~repro.noc.network.ActivityCounters`
and :class:`~repro.core.gating.GatingStats` and stores the *integer
deltas*.  Joules per window (dynamic / static / sleep-transition) are
derived presentationally; reconciliation works on the integers —
:meth:`reconstructed_report` rebuilds a
:class:`~repro.noc.multinoc.FabricReport` from the baseline plus the
summed deltas, and :func:`repro.power.network_power.
compute_network_power` over it is *bitwise identical* to the same
model over the fabric's own report (integer sums are exact; the float
formulas are applied once on both sides).

Created-but-undelivered packets at run end (sentinel ``-1``
timestamps) are excluded from every distribution and reported as
``unfinished``; delivered packets whose head a fault dropped in flight
are excluded too and reported as ``headless``.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable

from repro.core.regional import OR_NETWORK_SWITCH_ENERGY_J
from repro.noc.layers import NEVER, FabricLayer
from repro.noc.network import ActivityCounters
from repro.noc.router import PowerState
from repro.power.router_power import RouterPowerModel
from repro.util.histogram import BoundedHistogram

if TYPE_CHECKING:
    from repro.noc.flit import Packet
    from repro.noc.interface import NetworkInterface
    from repro.noc.multinoc import FabricReport, MultiNocFabric

__all__ = [
    "ExplainHub",
    "PHASE_NAMES",
    "parse_explain_spec",
]

#: Defaults for the environment knobs.
DEFAULT_MAX_PACKETS = 20_000
#: Energy sampling window (cycles); a constructor knob, not an env var.
DEFAULT_WINDOW = 1024

#: The latency phases, in packet-lifetime order.  Their values sum to
#: ``received_cycle - created_cycle`` for every delivered packet.
PHASE_NAMES = (
    "ni_queue",
    "selection_stall",
    "wakeup_stall",
    "ni_stream_wait",
    "inject_pipe",
    "router_residency",
    "link",
    "serialization",
)

#: Integer counter fields tracked per subnet per energy window.
_ACTIVITY_FIELDS = ActivityCounters.__slots__
_GATING_FIELDS = (
    "active_cycles",
    "sleep_cycles",
    "wakeup_cycles",
    "sleep_periods",
    "compensated_sleep_cycles",
    "short_sleep_periods",
)


def parse_explain_spec(spec: str) -> tuple[bool, bool]:
    """Validate an ``--explain`` / ``REPRO_EXPLAIN`` value.

    Returns ``(latency, energy)`` enable flags.  ``"1"`` (and the
    empty string) enable both; otherwise the value is a comma list of
    ``latency`` / ``energy``.  Anything else raises ``ValueError`` —
    the experiments CLI turns that into a parse error (exit 2).
    """
    value = spec.strip()
    if value in ("", "1"):
        return True, True
    latency = energy = False
    for part in value.split(","):
        name = part.strip()
        if name == "latency":
            latency = True
        elif name == "energy":
            energy = True
        else:
            raise ValueError(
                f"unknown attribution component {name!r}; expected "
                "'latency', 'energy', or '1'"
            )
    return latency, energy


class _PacketTrace:
    """Per-packet NI stall accumulators while the packet is in flight."""

    __slots__ = ("assigned", "selection_stall", "wakeup_stall")

    def __init__(self) -> None:
        self.assigned = -1
        self.selection_stall = 0
        self.wakeup_stall = 0


class ExplainHub(FabricLayer):
    """Latency and energy attribution for one fabric instance."""

    name = "explain"

    def __init__(
        self,
        fabric: "MultiNocFabric",
        out_dir: str | None = None,
        max_packets: int = DEFAULT_MAX_PACKETS,
        window_cycles: int = DEFAULT_WINDOW,
        latency: bool = True,
        energy: bool = True,
    ) -> None:
        if window_cycles < 1:
            raise ValueError("window_cycles must be >= 1")
        super().__init__(fabric, out_dir)
        self.max_packets = max_packets
        self.window_cycles = window_cycles
        self.latency = latency
        self.energy = energy
        timing = fabric.config.timing
        self._pipeline_cycles = timing.pipeline_cycles
        self._hop_cycles = timing.hop_cycles
        num_subnets = fabric.config.num_subnets
        # --- latency ----------------------------------------------------
        self._packets: dict[int, _PacketTrace] = {}
        # Global packet ids depend on how many packets the process has
        # ever made; records carry hub-relative ids (first-touch order,
        # deterministic for a seeded run) so the attribution digest is
        # byte-identical across worker counts and backends.
        self._id_map: dict[int, int] = {}
        self._next_relative_id = 0
        self.packets_seen = 0
        self.headless_packets = 0
        self.truncated_packets = 0
        self.phase_mismatches = 0
        self.latency_cycles = 0
        self.phase_totals = [0] * len(PHASE_NAMES)
        #: Capped per-packet detail: [id, src, dst, subnet, created,
        #: received, <one value per PHASE_NAMES entry>].
        self.records: list[list[int]] = []
        self.wakeup_stall_histogram = BoundedHistogram()
        self.packets_by_subnet = [0] * num_subnets
        self.wakeup_stall_by_subnet = [0] * num_subnets
        self.stalled_packets_by_subnet = [0] * num_subnets
        # --- energy -----------------------------------------------------
        #: Closed windows of integer counter deltas (see module doc).
        self.energy_windows: list[dict] = []
        self._baseline: tuple[list[dict[str, int]], int] | None = None
        self._last_counters: tuple[list[dict[str, int]], int] | None = None
        self._window_start = 0

    # ------------------------------------------------------------------
    # Construction from the environment
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls, fabric: "MultiNocFabric", spec: str, out_dir: str | None
    ) -> "ExplainHub":
        """Build a hub for ``spec`` (an ``--explain`` value) writing to
        ``out_dir``."""
        latency, energy = parse_explain_spec(spec)
        return cls(
            fabric, out_dir=out_dir, latency=latency, energy=energy
        )

    # ------------------------------------------------------------------
    # Attach / detach (per-instance shadowing)
    # ------------------------------------------------------------------
    def _install_probes(self, install: Any) -> None:
        """Install the latency probes and the trace merge, and open the
        first energy window.

        Every probe but the step shadow sits on a method that runs only
        while packets move, and the skip kernel jumps only over
        quiescent spans, never past the step that closes an energy
        window (:meth:`next_observe_cycle`); that is what makes
        attribution byte-identical across backends.
        """
        fabric = self.fabric
        if self.latency:
            for ni in fabric.nis:
                install(
                    ni,
                    "_assign_head",
                    self._make_assign_probe(ni, ni._assign_head),
                )
                install(ni, "step", self._make_stall_probe(ni, ni.step))
            for network in fabric.subnets:
                install(
                    network,
                    "eject_sink",
                    self._make_sink_tap(network.eject_sink),
                )
        telemetry = getattr(fabric, "telemetry", None)
        if telemetry is not None:
            # Telemetry attaches before explain, so its hub exists by
            # now; merge the phase spans into its Perfetto trace.
            install(
                telemetry,
                "chrome_trace_doc",
                self._make_trace_merge(telemetry.chrome_trace_doc),
            )
        self._baseline = self._counters_now()
        self._last_counters = self._baseline
        self._window_start = fabric.cycle

    # ------------------------------------------------------------------
    # Shadowed fabric methods
    # ------------------------------------------------------------------
    def _step(self) -> bool:
        busy: bool = self._orig_step()
        if (
            self.energy
            and self.fabric.cycle - self._window_start
            >= self.window_cycles
        ):
            self._close_window(self.fabric.cycle)
        return busy

    def next_observe_cycle(self, cycle: int) -> int:
        """The cycle whose step closes the current energy window."""
        if not self.energy:
            return NEVER
        return self._window_start + self.window_cycles - 1

    # ------------------------------------------------------------------
    # Latency probes
    # ------------------------------------------------------------------
    def _trace_for(self, packet: "Packet") -> _PacketTrace:
        trace = self._packets.get(packet.packet_id)
        if trace is None:
            trace = _PacketTrace()
            self._packets[packet.packet_id] = trace
            self._id_map[packet.packet_id] = self._next_relative_id
            self._next_relative_id += 1
        return trace

    def _make_assign_probe(
        self,
        ni: "NetworkInterface",
        orig: Callable[[int], int],
    ) -> Callable[[int], int]:
        # Brackets [created, assigned): a failed attempt with this
        # packet at the head is a selection stall; everything else in
        # that interval is queueing behind other packets.
        def assign(cycle: int) -> int:
            queue = ni.queue
            head = queue[0] if queue else None
            subnet = orig(cycle)
            if head is not None:
                trace = self._trace_for(head)
                if subnet >= 0:
                    trace.assigned = cycle
                else:
                    trace.selection_stall += 1
            return subnet

        return assign

    def _make_stall_probe(
        self,
        ni: "NetworkInterface",
        orig: Callable[[int], None],
    ) -> Callable[[int], None]:
        # Classifies [assigned, injected): after ni.step, every slot
        # whose head flit has not left (index == 0) stalled this cycle;
        # gating.step has not run yet inside fabric.step, so the local
        # router's power state is exactly what streaming saw.
        subnets = self.fabric.subnets

        def step(cycle: int) -> None:
            orig(cycle)
            if not ni._active_slots:
                return
            live = ni._live
            node = ni.node
            for subnet in range(len(subnets)):
                if not live >> subnet & 1:
                    continue
                gated = (
                    subnets[subnet].routers[node].power_state
                    != PowerState.ACTIVE
                )
                if not gated:
                    continue
                for slot in ni._slots[subnet]:
                    if slot is not None and slot.index == 0:
                        self._trace_for(slot.packet).wakeup_stall += 1

        return step

    def _make_sink_tap(
        self, orig: "Callable[[Packet, int], None]"
    ) -> "Callable[[Packet, int], None]":
        # The router calls eject_sink after setting received_cycle;
        # the packet's head timestamps and hops were written on the way.
        def tap(packet: "Packet", cycle: int) -> None:
            orig(packet, cycle)
            self._complete(packet)

        return tap

    def _complete(self, packet: "Packet") -> None:
        trace = self._packets.pop(packet.packet_id, None)
        if trace is None:
            return
        relative_id = self._id_map.pop(packet.packet_id, -1)
        created = packet.created_cycle
        received = packet.received_cycle
        injected = packet.injected_cycle
        head_ejected = packet.head_ejected_cycle
        if head_ejected < 0:
            # Delivered, but a fault dropped its head in flight: the
            # head-side phases cannot be split, so it is only counted.
            self.headless_packets += 1
            return
        if received < 0 or injected < 0 or trace.assigned < 0:
            # Sentinel timestamps: never folded into distributions.
            return
        inject_pipe = self._pipeline_cycles
        link = self._hop_cycles * packet.hops
        phases = (
            (trace.assigned - created) - trace.selection_stall,
            trace.selection_stall,
            trace.wakeup_stall,
            (injected - trace.assigned) - trace.wakeup_stall,
            inject_pipe,
            head_ejected - injected - inject_pipe - link,
            link,
            received - head_ejected,
        )
        latency = received - created
        if min(phases) < 0:
            self.phase_mismatches += 1
        self.packets_seen += 1
        self.latency_cycles += latency
        for index, value in enumerate(phases):
            self.phase_totals[index] += value
        subnet = packet.subnet
        if 0 <= subnet < len(self.packets_by_subnet):
            self.packets_by_subnet[subnet] += 1
            self.wakeup_stall_by_subnet[subnet] += trace.wakeup_stall
            if trace.wakeup_stall:
                self.stalled_packets_by_subnet[subnet] += 1
        self.wakeup_stall_histogram.record(trace.wakeup_stall)
        if len(self.records) >= self.max_packets:
            self.truncated_packets += 1
            return
        self.records.append(
            [
                relative_id,
                packet.src,
                packet.dst,
                subnet,
                created,
                received,
                *phases,
            ]
        )

    # ------------------------------------------------------------------
    # Energy windows
    # ------------------------------------------------------------------
    def _counters_now(self) -> tuple[list[dict[str, int]], int]:
        fabric = self.fabric
        subnets: list[dict[str, int]] = []
        for index in range(fabric.config.num_subnets):
            counters = fabric.subnets[index].counters
            stats = fabric.gating.stats[index]
            record = {
                name: getattr(counters, name)
                for name in _ACTIVITY_FIELDS
            }
            for name in _GATING_FIELDS:
                record[name] = getattr(stats, name)
            subnets.append(record)
        return subnets, fabric.monitor.regional.transitions

    def _close_window(self, end_cycle: int) -> None:
        current, rcs = self._counters_now()
        assert self._last_counters is not None
        previous, previous_rcs = self._last_counters
        self.energy_windows.append(
            {
                "start": self._window_start,
                "end": end_cycle,
                "rcs_transitions": rcs - previous_rcs,
                "subnets": [
                    {
                        name: now[name] - old[name]
                        for name in now
                    }
                    for now, old in zip(current, previous)
                ],
            }
        )
        self._last_counters = (current, rcs)
        self._window_start = end_cycle

    def _sync_windows(self) -> None:
        """Bring the window ledger up to date with the fabric.

        ``fabric.report()`` finalizes gating (closing still-open sleep
        periods); finalize is idempotent, so doing it here first makes
        every report-time document identical whichever of
        ``fabric.report()``, :meth:`energy_doc`, or
        :meth:`reconstructed_report` runs first.  The residual window
        may be zero-length when finalize moved counters after the last
        full window closed.
        """
        if not self.attached:
            return
        fabric = self.fabric
        fabric.gating.finalize(fabric.cycle)
        if (
            fabric.cycle > self._window_start
            or self._counters_now() != self._last_counters
        ):
            self._close_window(fabric.cycle)

    def _totals(self) -> tuple[list[dict[str, int]], int]:
        """Counter deltas accumulated since attach (baseline-relative)."""
        current, rcs = self._counters_now()
        assert self._baseline is not None
        base, base_rcs = self._baseline
        return (
            [
                {name: now[name] - old[name] for name in now}
                for now, old in zip(current, base)
            ],
            rcs - base_rcs,
        )

    def reconstructed_report(self) -> "FabricReport":
        """Rebuild a :class:`FabricReport` from baseline + window sums.

        Closes the pending partial window first, then integrates the
        per-window integer deltas on top of the attach-time baseline.
        Running :func:`~repro.power.network_power.compute_network_power`
        over the result is bitwise identical to running it over the
        fabric's own report — the reconciliation contract.
        """
        from repro.core.gating import GatingStats
        from repro.noc.multinoc import FabricReport

        fabric = self.fabric
        self._sync_windows()
        assert self._baseline is not None
        base, rcs = self._baseline
        totals = [dict(record) for record in base]
        for window in self.energy_windows:
            rcs += window["rcs_transitions"]
            for record, delta in zip(totals, window["subnets"]):
                for name, value in delta.items():
                    record[name] += value
        return FabricReport(
            config=fabric.config,
            cycles=fabric.cycle,
            activity=[
                {name: record[name] for name in _ACTIVITY_FIELDS}
                for record in totals
            ],
            gating=[
                GatingStats(
                    active_cycles=record["active_cycles"],
                    sleep_cycles=record["sleep_cycles"],
                    wakeup_cycles=record["wakeup_cycles"],
                    sleep_periods=record["sleep_periods"],
                    compensated_sleep_cycles=record[
                        "compensated_sleep_cycles"
                    ],
                    short_sleep_periods=record["short_sleep_periods"],
                )
                for record in totals
            ],
            gating_policy=fabric.gating.policy,
            rcs_transitions=rcs,
            avg_packet_latency=0.0,
            avg_network_latency=0.0,
            throughput_packets=0.0,
            throughput_flits=0.0,
            offered_rate=0.0,
            packets_received=0,
            subnet_injection_share=[],
        )

    def _power_model(self) -> RouterPowerModel:
        config = self.fabric.config
        return RouterPowerModel(
            config.link_width_bits, config.voltage_v, config.num_subnets
        )

    def _window_joules(
        self, record: dict[str, int], model: RouterPowerModel
    ) -> tuple[float, float, float]:
        """(dynamic, static, sleep-transition) joules of one window.

        The same event energies as ``compute_network_power``, applied
        to a window's integer deltas; sleep-transition energy is the
        ``breakeven * sleep_periods`` leakage-equivalent charge the
        model adds per entered sleep period.
        """
        config = self.fabric.config
        dynamic = (
            (record["buffer_writes"] + record["buffer_reads"])
            / 2.0
            * model.buffer_energy_per_flit
            + record["crossbar_traversals"]
            * (
                model.crossbar_energy_per_flit
                + model.control_energy_per_flit
            )
            + record["link_traversals"] * model.link_energy_per_flit
            + (record["flits_injected"] + record["flits_ejected"])
            * model.ni_energy_per_flit
            + (record["active_cycles"] + record["wakeup_cycles"])
            * model.clock_energy_per_cycle
        )
        leak_per_cycle = model.leakage_watts / (
            config.frequency_ghz * 1e9
        )
        total_router_cycles = (
            record["active_cycles"]
            + record["sleep_cycles"]
            + record["wakeup_cycles"]
        )
        static = (
            total_router_cycles - record["sleep_cycles"]
        ) * leak_per_cycle
        sleep_transition = (
            config.gating.breakeven_cycles
            * record["sleep_periods"]
            * leak_per_cycle
        )
        return dynamic, static, sleep_transition

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def latency_doc(self) -> dict:
        """JSON-safe latency-attribution section."""
        return {
            "phases": list(PHASE_NAMES),
            "packets": self.packets_seen,
            "unfinished": len(self._packets),
            "headless": self.headless_packets,
            "truncated": self.truncated_packets,
            "phase_mismatches": self.phase_mismatches,
            "latency_cycles": self.latency_cycles,
            "phase_totals": dict(
                zip(PHASE_NAMES, self.phase_totals)
            ),
            "wakeup_stall": self.wakeup_stall_histogram.to_dict(),
            "records": [list(record) for record in self.records],
        }

    def energy_doc(self) -> dict:
        """JSON-safe energy-attribution section (integer deltas)."""
        self._sync_windows()
        model = self._power_model()
        windows = []
        for window in self.energy_windows:
            subnets = []
            for record in window["subnets"]:
                dynamic, static, transition = self._window_joules(
                    record, model
                )
                subnets.append(
                    {
                        **record,
                        "dynamic_j": dynamic,
                        "static_j": static,
                        "sleep_transition_j": transition,
                    }
                )
            windows.append(
                {
                    "start": window["start"],
                    "end": window["end"],
                    "rcs_transitions": window["rcs_transitions"],
                    "subnets": subnets,
                }
            )
        assert self._baseline is not None
        base, base_rcs = self._baseline
        totals, rcs = self._totals()
        return {
            "window_cycles": self.window_cycles,
            "baseline": {
                "subnets": [dict(record) for record in base],
                "rcs_transitions": base_rcs,
            },
            "windows": windows,
            "totals": {
                "subnets": [dict(record) for record in totals],
                "rcs_transitions": rcs,
                "rcs_j": rcs * OR_NETWORK_SWITCH_ENERGY_J,
            },
        }

    def tax_doc(self) -> dict:
        """Per-subnet wakeup-tax and energy-per-flit table.

        ``energy_per_flit_j`` divides each subnet's attributed energy
        (dynamic + static + sleep transition; the fabric-level RCS OR
        network is excluded as it belongs to no subnet) by the flits it
        carried since attach.
        """
        model = self._power_model() if self.energy else None
        totals = self._totals()[0] if self.energy else None
        rows = []
        for subnet in range(self.fabric.config.num_subnets):
            row: dict[str, object] = {"subnet": subnet}
            if self.latency:
                packets = self.packets_by_subnet[subnet]
                stall = self.wakeup_stall_by_subnet[subnet]
                row["packets"] = packets
                row["wakeup_stall_cycles"] = stall
                row["stalled_packets"] = (
                    self.stalled_packets_by_subnet[subnet]
                )
                row["mean_wakeup_stall"] = (
                    stall / packets if packets else 0.0
                )
            if totals is not None and model is not None:
                record = totals[subnet]
                dynamic, static, transition = self._window_joules(
                    record, model
                )
                energy = dynamic + static + transition
                flits = record["flits_injected"]
                row["flits_injected"] = flits
                row["energy_j"] = energy
                row["energy_per_flit_j"] = (
                    energy / flits if flits else None
                )
            rows.append(row)
        return {"per_subnet": rows}

    def _document_body(self) -> dict:
        fabric = self.fabric
        return {
            "schema": "repro.explain/1",
            "config": fabric.config.name,
            "seed": fabric.seed,
            "cycles": fabric.cycle,
            "latency": self.latency_doc() if self.latency else None,
            "energy": self.energy_doc() if self.energy else None,
            "tax": self.tax_doc(),
        }

    def attribution_digest(self) -> str:
        """SHA-256 over the canonical attribution document.

        Covers only simulation-determined content (no paths, pids, or
        wall-clock), so the digest is byte-identical across worker
        counts and backends for the same seeded point.
        """
        canonical = json.dumps(
            self._document_body(),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def document(self) -> dict:
        """The full attribution artifact document, digest included."""
        body = self._document_body()
        canonical = json.dumps(
            body, sort_keys=True, separators=(",", ":")
        )
        body["digest"] = hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()
        return body

    # ------------------------------------------------------------------
    # Perfetto merge
    # ------------------------------------------------------------------
    def phase_trace_events(self) -> list[dict]:
        """Per-packet phase slices in Chrome trace-event form."""
        events: list[dict] = []
        for record in self.records:
            pid = record[3] if record[3] >= 0 else 0
            cursor = record[4]
            for name, value in zip(PHASE_NAMES, record[6:]):
                if value > 0:
                    events.append(
                        {
                            "ph": "X",
                            "cat": "explain-phase",
                            "name": name,
                            "pid": pid,
                            "tid": record[1],
                            "ts": cursor,
                            "dur": value,
                            "args": {"packet": record[0]},
                        }
                    )
                cursor += value
        return events

    def _make_trace_merge(
        self, orig: Callable[[], dict]
    ) -> Callable[[], dict]:
        def merged() -> dict:
            doc = orig()
            doc["traceEvents"].extend(self.phase_trace_events())
            return doc

        return merged

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def flush(self) -> dict[str, str]:
        """Write the attribution artifact; return its path.

        Files are named by :meth:`FabricLayer._artifact_stem`.
        """
        path = f"{self._artifact_stem()}.explain.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle, separators=(",", ":"))
        return {"explain": path}
