"""The Multi-NoC fabric: subnets, NIs, policies, gating — one object
(paper §2.2, Figure 1; the evaluated configurations of Table 1).

``MultiNocFabric`` wires together everything a configuration implies:
per-subnet router networks, the shared NIs, the congestion monitor, the
subnet-selection policy, and the power-gating controller.  A Single-NoC
is simply the one-subnet special case.

The fabric exposes a tile-level :meth:`offer` for producers (traffic
generators or the processor model), a :meth:`step` to advance one clock
cycle, and a :meth:`report` that snapshots everything the power model
and experiment drivers need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.gating import GatingStats, PowerGatingController
from repro.core.monitor import CongestionMonitor
from repro.core.policies import make_policy
from repro.noc.backend import make_backend
from repro.noc.config import NocConfig
from repro.noc.flit import Packet
from repro.noc.interface import NetworkInterface
from repro.noc.layers import LAYERS, run_options
from repro.noc.network import SubnetNetwork
from repro.noc.routing import XYRouting
from repro.noc.stats import NetworkStats
from repro.noc.topology import ConcentratedMesh
from repro.util.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.analysis.invariants import InvariantChecker
    from repro.explain.hub import ExplainHub
    from repro.faults.engine import FaultEngine
    from repro.perf.profiler import PhaseProfiler
    from repro.telemetry.hub import TelemetryHub

__all__ = ["MultiNocFabric", "FabricReport"]


@dataclass
class FabricReport:
    """Snapshot of a finished (or running) fabric simulation.

    The power model consumes only this record, never live objects, so
    reports can be stored, compared, and serialized by experiments.
    """

    config: NocConfig
    cycles: int
    activity: list[dict[str, int]]
    gating: list[GatingStats]
    gating_policy: str
    rcs_transitions: int
    avg_packet_latency: float
    avg_network_latency: float
    throughput_packets: float
    throughput_flits: float
    offered_rate: float
    packets_received: int
    subnet_injection_share: list[float]
    #: Window packet-latency percentiles from the bounded histogram in
    #: :class:`repro.noc.stats.NetworkStats` (0.0 when no window).
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    #: Mean hop count of received packets per carrying subnet (X-Y
    #: routing ground truth; empty for analytic reports).
    avg_hops_per_subnet: list[float] = field(default_factory=list)
    #: Per-tenant QoS rows (:meth:`repro.noc.stats.NetworkStats.
    #: tenants_summary`), sorted by tenant id; empty unless a
    #: multi-tenant serving workload tagged its packets.
    tenants: list[dict] = field(default_factory=list)

    @property
    def csc_fraction(self) -> float:
        """Compensated sleep cycles over all router-cycles."""
        total = GatingStats()
        for stats in self.gating:
            total = total.merge(stats)
        return total.csc_fraction()


class MultiNocFabric:
    """A complete multiple network-on-chip instance."""

    #: Attached instrumentation layers (:mod:`repro.noc.layers`).
    perf: "PhaseProfiler | None"
    faults: "FaultEngine | None"
    invariant_checker: "InvariantChecker | None"
    telemetry: "TelemetryHub | None"
    explain: "ExplainHub | None"

    def __init__(
        self,
        config: NocConfig,
        seed: int = 1,
        backend: str | None = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.mesh = ConcentratedMesh(
            config.mesh_cols, config.mesh_rows, config.tiles_per_node
        )
        self.routing = XYRouting(self.mesh)
        self.rng = DeterministicRng(seed, "fabric")
        self.subnets = [
            SubnetNetwork(subnet, config, self.mesh, self.routing)
            for subnet in range(config.num_subnets)
        ]
        self.nis = [
            NetworkInterface(node, config, self.subnets, self.routing)
            for node in range(self.mesh.num_nodes)
        ]
        self.monitor = CongestionMonitor(config, self.mesh)
        policy_name = config.selection_policy
        self.gating = PowerGatingController(
            config, self.subnets, self.monitor
        )
        self.stats = NetworkStats(self.mesh.num_nodes, config.num_subnets)
        self.cycle = 0
        #: Extra per-packet completion callback (used by the processor
        #: model to unblock cores).
        self.packet_sink: Callable[[Packet, int], None] | None = None
        for ni in self.nis:
            ni.policy = make_policy(
                policy_name,
                config.num_subnets,
                self.mesh.num_nodes,
                self.monitor,
                self.rng,
            )
            ni.gating = self.gating
        for network in self.subnets:
            network.eject_sink = self._on_packet_received
        if self.monitor.needs_blocking_counters:
            for network in self.subnets:
                for router in network.routers:
                    router.track_blocking = True
        if self.monitor.needs_injection_rate:
            for ni in self.nis:
                ni.track_rate = True
        # Time-loop kernel (repro.noc.backend): ``dense`` steps every
        # cycle; ``skip`` charges idle routers zero Python work.  Both
        # satisfy the same state-equivalence contract, so the choice
        # never alters results — only wall-clock.
        options = run_options()
        self.backend = make_backend(backend or options.backend, self)
        # Instrumentation layers (repro.noc.layers), attached in
        # registry order as the run policy enables them.  Each shadows
        # methods on this instance only, so a fabric with every layer
        # off runs the plain class bytecode.
        for layer in LAYERS:
            setattr(self, layer.attr, None)
        for layer, spec, out_dir in options.layers:
            hub = layer.build(self, spec, out_dir)
            setattr(self, layer.attr, hub.attach())

    def swap_layer(self, name: str, instance: Any) -> None:
        """Replace the attached ``name`` layer with ``instance`` (a
        detached layer object, or None to remove it) in its registry
        position: the layers above it detach first and re-attach after,
        so they keep wrapping it."""
        index = [layer.name for layer in LAYERS].index(name)
        above = [
            getattr(self, layer.attr)
            for layer in LAYERS[index + 1 :]
            if getattr(self, layer.attr) is not None
        ]
        for hub in reversed(above):
            hub.detach()
        attr = LAYERS[index].attr
        current = getattr(self, attr)
        if current is not None:
            current.detach()
        setattr(self, attr, None if instance is None else instance.attach())
        for hub in above:
            hub.attach()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _on_packet_received(self, packet: Packet, cycle: int) -> None:
        self.stats.record_received(packet, cycle)
        if self.packet_sink is not None:
            self.packet_sink(packet, cycle)

    # ------------------------------------------------------------------
    # Producer API
    # ------------------------------------------------------------------
    def offer(self, packet: Packet) -> None:
        """Hand an outbound packet to the source node's NI."""
        self.nis[packet.src].offer(packet, self.cycle)
        self.stats.record_offered(packet, self.cycle)

    def offer_from_tile(
        self,
        src_tile: int,
        dst_tile: int,
        size_bits: int,
        message_class: int,
        payload: object = None,
    ) -> Packet:
        """Create and offer a packet between two processor tiles."""
        packet = Packet(
            src=self.mesh.tile_node(src_tile),
            dst=self.mesh.tile_node(dst_tile),
            size_bits=size_bits,
            message_class=message_class,
            payload=payload,
        )
        self.offer(packet)
        return packet

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance the whole fabric by one router clock cycle.

        This is the one per-cycle body: the dense kernel runs it every
        cycle and the skip kernel on every cycle it visits.  NIs with
        nothing queued, streaming or decaying and subnets without flits
        are skipped (their steps are no-ops).  Returns True when any NI
        or subnet did work — the skip kernel's cue to probe for
        quiescence.
        """
        cycle = self.cycle
        subnets = self.subnets
        for network in subnets:
            network.deliver_arrivals(cycle)
        self.monitor.update(cycle, subnets, self.nis)
        busy = False
        for ni in self.nis:
            if ni.queue or ni._active_slots or ni._ir_rate > 1e-9:
                ni.step(cycle)
                busy = True
        for network in subnets:
            if network.flits_in_network:
                network.step_routers(cycle)
                busy = True
        self.gating.step(cycle)
        self.cycle = cycle + 1
        return busy

    def quiescent(self) -> bool:
        """True when skipping cycles is provably invisible: no flit
        anywhere, every NI empty (the guard :meth:`step` uses; NIs keep
        decaying rate averages only under the IR metric, which is never
        quiescent) and the monitor and gating controller at rest.  The
        skip kernel then advances gating in closed form instead."""
        for network in self.subnets:
            if network.flits_in_network:
                return False
        for ni in self.nis:
            if ni.queue or ni._active_slots:
                return False
        return self.monitor.quiescent() and self.gating.quiescent()

    def run(self, cycles: int) -> None:
        """Advance the fabric by ``cycles`` clock cycles.

        Delegates to the configured :class:`~repro.noc.backend.
        FabricBackend`; :meth:`step` is the cycle body every backend
        (and every shadow observer) is built on.
        """
        self.backend.run(cycles)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight_flits(self) -> int:
        """Flits currently anywhere in the fabric."""
        return sum(network.flits_in_network for network in self.subnets)

    def drain(self, max_cycles: int = 100_000) -> bool:
        """Run until every flit has been delivered (or the cap is hit).

        Returns True when no flit is in flight and no NI holds a queued
        or streaming packet.  Sources must stop offering packets before
        draining.
        """
        for _ in range(max_cycles):
            if not self.in_flight_flits and not any(
                ni.queue or ni._active_slots for ni in self.nis
            ):
                return True
            self.backend.run(1)
        return False

    def subnet_injection_share(self) -> list[float]:
        """Fraction of injected packets carried by each subnet."""
        totals = [0] * self.config.num_subnets
        for ni in self.nis:
            for subnet, count in enumerate(ni.injected_per_subnet):
                totals[subnet] += count
        grand = sum(totals)
        if not grand:
            return [0.0] * self.config.num_subnets
        return [count / grand for count in totals]

    def report(self) -> FabricReport:
        """Snapshot statistics for power modelling and experiments."""
        self.gating.finalize(self.cycle)
        stats = self.stats
        measured = (
            stats.measure_start is not None and stats.measure_end is not None
        )
        return FabricReport(
            config=self.config,
            cycles=self.cycle,
            activity=[
                network.counters.snapshot() for network in self.subnets
            ],
            gating=list(self.gating.stats),
            gating_policy=self.gating.policy,
            rcs_transitions=self.monitor.regional.transitions,
            avg_packet_latency=stats.average_packet_latency(),
            avg_network_latency=stats.average_network_latency(),
            throughput_packets=stats.throughput_packets() if measured else 0.0,
            throughput_flits=stats.throughput_flits() if measured else 0.0,
            offered_rate=stats.offered_rate() if measured else 0.0,
            packets_received=stats.packets_received,
            subnet_injection_share=self.subnet_injection_share(),
            latency_p50=stats.latency_percentile(0.50),
            latency_p95=stats.latency_percentile(0.95),
            latency_p99=stats.latency_percentile(0.99),
            avg_hops_per_subnet=stats.average_hops_per_subnet(),
            tenants=stats.tenants_summary(),
        )
