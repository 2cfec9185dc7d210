"""Cycle-level runtime invariant checking for the Multi-NoC fabric.

When ``REPRO_CHECK=1`` the fabric constructor attaches an
:class:`InvariantChecker` that re-derives, every checked cycle, the
conservation laws the simulator's distributed state must obey:

``gated-arrival``
    No flit is buffered at — or in flight toward — a router whose
    power state is sleep or wakeup (a gated router accepts nothing).
``flit-conservation``
    Per subnet: ``flits_injected == flits_ejected + in-network`` and
    the in-network count equals buffered flits plus link-in-flight
    flits (no loss, no duplication).
``credit-conservation``
    Per input VC with a sender: its ``free`` credits + its buffer
    occupancy + flits in flight toward it equals the VC buffer
    capacity.  Covers router-to-router links and the NI-to-router
    injection link in one loop.
``router-accounting``
    Router-internal counters (``held``: buffered flits plus flits on a
    link toward the router; credit bounds) and the occupancy mask the
    router step scans match first-principles recounts.
``gating-state``
    Sleep/wakeup bookkeeping in the gating controller is consistent
    with each router's power state.
``priority-selection``
    The strict-priority (Catnap) selection policy never skips a
    non-congested lower-order subnet.
``deadlock``
    A watchdog: if flits are in the network but no buffer event
    happens for ``stall_cycles`` cycles, the checker builds the
    channel-dependency graph over waiting head flits and raises with
    a cycle witness (or a blocked-head summary when acyclic).

All violations raise :class:`InvariantViolation` carrying the
invariant name, the cycle, and a precise diagnostic.

Fault-aware mode: when a :class:`repro.faults.engine.FaultEngine` is
attached to the same fabric (``REPRO_FAULTS``), the checker reconciles
each law against the engine's ledgers before raising — a flit the
engine deliberately dropped or a credit it deliberately lost is an
*expected* discrepancy, counted in :attr:`InvariantChecker.expected`
instead of raised, and a deadlock-watchdog trip while a
progress-blocking fault class is in effect is reported to the engine
(``fatal`` in its :class:`~repro.faults.report.FaultReport`) rather
than raised.  Any discrepancy beyond what the event log explains still
raises, so ``REPRO_CHECK=1`` composes with fault injection without
losing its teeth.

Overhead is zero when disabled: the checker wraps ``fabric.step`` via
an instance attribute, so an unchecked fabric runs the original bound
method with no extra branches.  ``REPRO_CHECK_INTERVAL`` (default 1)
checks every N-th cycle; the laws hold at every cycle boundary, so
sampling trades coverage for speed without false positives.  The
watchdog horizon is the constructor's ``stall_cycles`` (default 1024).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.noc.buffers import vc_candidates
from repro.noc.layers import FabricLayer
from repro.noc.router import PowerState, Router
from repro.noc.topology import Port
from repro.util import env

if TYPE_CHECKING:
    from repro.noc.flit import Packet
    from repro.noc.multinoc import MultiNocFabric
    from repro.noc.network import SubnetNetwork

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
]

#: A channel is identified as (subnet, node, in_port, vc).
Channel = tuple[int, int, int, int]


class InvariantViolation(RuntimeError):
    """A cycle-level invariant does not hold.

    Attributes
    ----------
    invariant:
        Name of the violated law (e.g. ``"credit-conservation"``).
    cycle:
        Fabric cycle at which the violation was detected.
    details:
        Human-readable diagnostic with the exact location and counts.
    """

    def __init__(self, invariant: str, cycle: int, details: str) -> None:
        super().__init__(f"[{invariant}] cycle {cycle}: {details}")
        self.invariant = invariant
        self.cycle = cycle
        self.details = details


class _CheckedPolicy:
    """Transparent proxy asserting strict-priority subnet selection.

    Wraps a selection policy whose class sets ``strict_priority``;
    after every ``select`` it re-reads the congestion monitor and
    raises when a non-congested lower-order subnet was skipped (the
    congestion state is stable within a cycle, so the re-read observes
    exactly what the policy saw).
    """

    def __init__(self, inner: Any, checker: "InvariantChecker") -> None:
        self._inner = inner
        self._checker = checker

    def select(
        self, node: int, cycle: int, packet: "Packet | None" = None
    ) -> int:
        subnet = int(self._inner.select(node, cycle, packet))
        monitor = self._inner.monitor
        if subnet > 0:
            skipped = [
                lower
                for lower in range(subnet)
                if not monitor.is_congested(node, lower)
            ]
            if skipped:
                raise InvariantViolation(
                    "priority-selection",
                    cycle,
                    f"node {node} injected into subnet {subnet} while "
                    f"lower-order subnet(s) {skipped} were not "
                    "congested (strict priority must fill lowest "
                    "first)",
                )
        self._checker.counts["priority-selection"] += 1
        return subnet

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class InvariantChecker(FabricLayer):
    """Re-derives fabric conservation laws every checked cycle."""

    name = "checker"

    def __init__(
        self,
        fabric: "MultiNocFabric",
        interval: int | None = None,
        stall_cycles: int = 1024,
    ) -> None:
        super().__init__(fabric)
        if interval is None:
            interval = env.integer("REPRO_CHECK_INTERVAL", 1)
        if interval < 1:
            raise ValueError("check interval must be >= 1")
        if stall_cycles < 1:
            raise ValueError("stall_cycles must be >= 1")
        self.interval = interval
        self.stall_cycles = stall_cycles
        #: Checks performed per invariant (diagnostics / test hooks).
        self.counts: dict[str, int] = {
            name: 0
            for name in (
                "gated-arrival",
                "flit-conservation",
                "credit-conservation",
                "router-accounting",
                "gating-state",
                "priority-selection",
                "deadlock",
            )
        }
        #: Violations explained by the fault-injection event log and
        #: downgraded to *expected* instead of raised (fault-aware
        #: mode; zero when no engine is attached).
        self.expected: dict[str, int] = {
            "flit-conservation": 0,
            "credit-conservation": 0,
            "deadlock": 0,
        }
        self._since_check = 0
        self._last_progress = -1
        self._stalled_for = 0

    @classmethod
    def from_env(
        cls, fabric: "MultiNocFabric", spec: str, out_dir: str | None
    ) -> "InvariantChecker":
        """Build a checker tuned by ``REPRO_CHECK_INTERVAL`` (it has no
        spec and no artifacts)."""
        return cls(fabric)

    def _fault_engine(self) -> Any:
        """The fabric's fault engine, or None.

        Resolved per check (not cached at attach): campaign points
        attach their engine *after* fabric construction, so an
        attach-time snapshot would miss it.
        """
        return getattr(self.fabric, "faults", None)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def _install_probes(self, install: Any) -> None:
        """Hook the fabric's strict-priority selection policies."""
        for ni in self.fabric.nis:
            policy = ni.policy
            if policy is not None and getattr(
                policy, "strict_priority", False
            ):
                install(ni, "policy", _CheckedPolicy(policy, self))

    def _step(self) -> bool:
        busy: bool = self._orig_step()
        self._since_check += 1
        if self._since_check >= self.interval:
            self._since_check = 0
            # fabric.cycle was already advanced past the evaluated one.
            self.check_now(self.fabric.cycle - 1)
        return busy

    def note_steps(self, count: int, cycle: int) -> None:
        """Register ``count`` cycles executed outside the shadowed step.

        The skip backend (:mod:`repro.noc.backend`) jumps quiescent
        spans without calling ``fabric.step``, so it reports them here
        to keep the checking cadence: the counter advances by ``count``
        and, whenever it crosses the interval, :meth:`check_now` runs
        against the state at ``cycle`` (the last cycle of the batch).
        A single-cycle batch is exactly ``_step``'s behaviour;
        a jump checks once at the landing cycle — sound because the
        laws hold at every cycle boundary and nothing but gating
        bookkeeping changes during a jump.
        """
        total = self._since_check + count
        if total >= self.interval:
            self._since_check = total % self.interval
            self.check_now(cycle)
        else:
            self._since_check = total

    # ------------------------------------------------------------------
    # The laws
    # ------------------------------------------------------------------
    def check_now(self, cycle: int) -> None:
        """Evaluate every invariant against the current fabric state."""
        for network in self.fabric.subnets:
            census = _RingCensus(network)
            self._check_gated_arrivals(network, census, cycle)
            self._check_flit_conservation(network, census, cycle)
            self._check_credit_conservation(network, census, cycle)
            self._check_router_accounting(network, census, cycle)
        self._check_gating_state(cycle)
        self._check_stall(cycle)

    def _check_gated_arrivals(
        self, network: "SubnetNetwork", census: "_RingCensus", cycle: int
    ) -> None:
        self.counts["gated-arrival"] += 1
        for router in network.routers:
            if router.power_state == PowerState.ACTIVE:
                continue
            state = PowerState.NAMES[router.power_state]
            buffered = router.buffered_flits
            if buffered:
                raise InvariantViolation(
                    "gated-arrival",
                    cycle,
                    f"subnet {network.subnet} node {router.node}: "
                    f"{buffered} flit(s) buffered at a "
                    f"router in state '{state}' (a gated router must "
                    "be drained; an upstream hop or the gating "
                    "controller skipped a wakeup)",
                )
            inbound = census.per_router.get(id(router), 0)
            if inbound:
                raise InvariantViolation(
                    "gated-arrival",
                    cycle,
                    f"subnet {network.subnet} node {router.node}: "
                    f"{inbound} flit(s) in flight toward a router in "
                    f"state '{state}' (senders must wake the next hop "
                    "before forwarding)",
                )

    def _check_flit_conservation(
        self, network: "SubnetNetwork", census: "_RingCensus", cycle: int
    ) -> None:
        self.counts["flit-conservation"] += 1
        counters = network.counters
        outstanding = counters.flits_injected - counters.flits_ejected
        engine = self._fault_engine()
        dropped = (
            engine.dropped_flits_in(network.subnet)
            if engine is not None
            else 0
        )
        if outstanding != network.flits_in_network + dropped:
            raise InvariantViolation(
                "flit-conservation",
                cycle,
                f"subnet {network.subnet}: injected "
                f"{counters.flits_injected} - ejected "
                f"{counters.flits_ejected} = {outstanding}, but "
                f"flits_in_network = {network.flits_in_network}"
                + (f" + {dropped} injected-fault drops" if dropped else "")
                + " (a flit was lost or duplicated)",
            )
        if dropped:
            self.expected["flit-conservation"] += 1
        buffered = sum(
            port.occupancy for r in network.routers for port in r.ports
        )
        present = buffered + census.total
        if present != network.flits_in_network:
            raise InvariantViolation(
                "flit-conservation",
                cycle,
                f"subnet {network.subnet}: {buffered} buffered + "
                f"{census.total} on links = {present} flit(s), but "
                f"flits_in_network = {network.flits_in_network} "
                "(a flit was lost or duplicated in transit)",
            )

    def _check_credit_conservation(
        self, network: "SubnetNetwork", census: "_RingCensus", cycle: int
    ) -> None:
        self.counts["credit-conservation"] += 1
        capacity = network.config.flits_per_vc
        vcs = network.config.vcs_per_port
        subnet = network.subnet
        engine = self._fault_engine()
        # Every input VC with a sender: a neighbour router behind a
        # mesh port, or the node's NI behind LOCAL.  Mesh-edge VCs
        # have no link and are outside the law.
        for router in network.routers:
            for index, channel in enumerate(router.channels):
                in_port, vc = divmod(index, vcs)
                upstream = router.neighbor_router[in_port]
                if upstream is None and in_port != Port.LOCAL:
                    continue
                free = channel.free
                occupancy = len(channel.fifo)
                in_flight = census.per_channel.get(
                    (id(router), in_port, vc), 0
                )
                lost = (
                    engine.lost_credit(subnet, router.node, in_port, vc)
                    if engine is not None
                    else 0
                )
                if free + occupancy + in_flight + lost == capacity:
                    if lost:
                        self.expected["credit-conservation"] += 1
                    continue
                if upstream is None:
                    link = f"NI->router at node {router.node} (vc {vc})"
                    cause = "injection-side credit was"
                else:
                    link = (
                        f"link {upstream.node}->{router.node} (port "
                        f"{Port.NAMES[Port.OPPOSITE[in_port]]}, vc {vc})"
                    )
                    cause = "a credit was"
                raise InvariantViolation(
                    "credit-conservation",
                    cycle,
                    f"subnet {subnet} {link}: credits {free} + buffered "
                    f"{occupancy} + in-flight {in_flight}"
                    + (f" + {lost} injected losses" if lost else "")
                    + f" != capacity {capacity} ({cause} lost, forged, "
                    "or returned twice)",
                )

    def _check_router_accounting(
        self, network: "SubnetNetwork", census: "_RingCensus", cycle: int
    ) -> None:
        self.counts["router-accounting"] += 1
        capacity = network.config.flits_per_vc
        for router in network.routers:
            recount = sum(port.occupancy for port in router.ports)
            inbound = census.per_router.get(id(router), 0)
            if router.held != recount + inbound:
                raise InvariantViolation(
                    "router-accounting",
                    cycle,
                    f"subnet {network.subnet} node {router.node}: "
                    f"held = {router.held} but ports hold {recount} "
                    f"flit(s) and {inbound} are in flight toward it",
                )
            mask = 0
            for index, channel in enumerate(router.channels):
                if channel.fifo:
                    mask |= 1 << index
            if mask != router.mask:
                raise InvariantViolation(
                    "router-accounting",
                    cycle,
                    f"subnet {network.subnet} node {router.node}: "
                    f"occupancy mask {router.mask:#x} but the non-empty "
                    f"input VCs give {mask:#x} (the router step would "
                    "skip a VC or read an empty one)",
                )
            for index, channel in enumerate(router.channels):
                if not 0 <= channel.free <= capacity:
                    in_port, vc = divmod(index, router.vcs_per_port)
                    raise InvariantViolation(
                        "router-accounting",
                        cycle,
                        f"subnet {network.subnet} node {router.node} "
                        f"in-port {Port.NAMES[in_port]} vc {vc}: credit "
                        f"counter {channel.free} outside [0, {capacity}]",
                    )

    def _check_gating_state(self, cycle: int) -> None:
        self.counts["gating-state"] += 1
        gating = self.fabric.gating
        for network in self.fabric.subnets:
            for router in network.routers:
                state = gating.state_of(router)
                if (
                    router.power_state == PowerState.SLEEP
                    and state.sleep_start < 0
                ):
                    raise InvariantViolation(
                        "gating-state",
                        cycle,
                        f"subnet {network.subnet} node {router.node}: "
                        "router is asleep but the controller has no "
                        "open sleep period for it",
                    )
                if (
                    router.power_state == PowerState.WAKEUP
                    and state.wake_ready < 0
                ):
                    raise InvariantViolation(
                        "gating-state",
                        cycle,
                        f"subnet {network.subnet} node {router.node}: "
                        "router is waking but the controller never "
                        "scheduled its wake_ready cycle",
                    )
            # The controller's step credits sleepers from its asleep
            # list; it must hold exactly the subnet's sleeping routers.
            held = gating.asleep(network.subnet)
            sleeping = [
                router
                for router in network.routers
                if router.power_state == PowerState.SLEEP
            ]
            if held != sleeping:
                raise InvariantViolation(
                    "gating-state",
                    cycle,
                    f"subnet {network.subnet}: the controller's asleep "
                    f"list holds nodes {[r.node for r in held]} but the "
                    "routers in state 'sleep' are nodes "
                    f"{[r.node for r in sleeping]} (a stale awake/asleep "
                    "split: the step credits the wrong routers as asleep; "
                    "only the transition methods may write power_state)",
                )

    # ------------------------------------------------------------------
    # Deadlock watchdog
    # ------------------------------------------------------------------
    def _progress_counter(self) -> int:
        total = 0
        for network in self.fabric.subnets:
            counters = network.counters
            total += (
                counters.flits_injected
                + counters.flits_ejected
                + counters.buffer_reads
                + counters.buffer_writes
            )
        return total

    def _check_stall(self, cycle: int) -> None:
        self.counts["deadlock"] += 1
        if self.fabric.in_flight_flits == 0:
            self._last_progress = -1
            self._stalled_for = 0
            return
        progress = self._progress_counter()
        if progress != self._last_progress:
            self._last_progress = progress
            self._stalled_for = 0
            return
        self._stalled_for += self.interval
        if self._stalled_for >= self.stall_cycles:
            engine = self._fault_engine()
            if engine is not None and engine.has_blocking_effects():
                # A progress-blocking fault class actually hit: the
                # stall is an injected outcome, not a simulator bug.
                # Report it to the engine (its FaultReport counts the
                # trip as fatal) and re-arm the watchdog.
                self.expected["deadlock"] += 1
                engine.note_watchdog_trip(cycle)
                self._stalled_for = 0
                return
            raise InvariantViolation(
                "deadlock",
                cycle,
                f"no buffer event for {self._stalled_for} cycles with "
                f"{self.fabric.in_flight_flits} flit(s) in the "
                "network\n" + self._dependency_witness(),
            )

    def _dependency_witness(self) -> str:
        """Channel-dependency-graph cycle witness (or a stall summary).

        Nodes are (subnet, node, in_port, vc) channels holding a head
        flit; an edge points at the downstream channel whose full
        buffer (exhausted credits / held output VC) blocks the head.
        A cycle in this graph is a true circular wait.
        """
        graph: dict[Channel, list[Channel]] = {}
        notes: dict[Channel, str] = {}
        for network in self.fabric.subnets:
            subnet = network.subnet
            for router in network.routers:
                for in_port in range(Port.COUNT):
                    for vc, channel in enumerate(
                        router.ports[in_port].vcs
                    ):
                        if not channel.fifo:
                            continue
                        key: Channel = (
                            subnet, router.node, in_port, vc,
                        )
                        flit = channel.fifo[0]
                        out_port = flit.route
                        if out_port == Port.LOCAL:
                            notes[key] = "ejecting (should progress)"
                            graph[key] = []
                            continue
                        downstream = router.neighbor_router[out_port]
                        if downstream is None:
                            notes[key] = "routes off-mesh (!)"
                            graph[key] = []
                            continue
                        if downstream.power_state != PowerState.ACTIVE:
                            notes[key] = (
                                "waiting for wakeup of node "
                                f"{downstream.node} "
                                f"({PowerState.NAMES[downstream.power_state]})"
                            )
                        dep_port = Port.OPPOSITE[out_port]
                        if channel.out_port >= 0:
                            dep_vcs: tuple[int, ...] = (channel.out_vc,)
                        else:
                            dep_vcs = vc_candidates(
                                flit.packet.message_class,
                                router.vcs_per_port,
                            )
                        dep_channels = downstream.ports[dep_port].vcs
                        edges = [
                            (subnet, downstream.node, dep_port, dep_vc)
                            for dep_vc in dep_vcs
                            if dep_channels[dep_vc].free == 0
                            or dep_channels[dep_vc].owned
                        ]
                        graph[key] = edges
        cycle_path = _find_cycle(graph)
        if cycle_path is not None:
            lines = ["channel-dependency cycle (circular wait):"]
            for subnet, node, port, vc in cycle_path:
                tag = notes.get((subnet, node, port, vc), "")
                lines.append(
                    f"  subnet {subnet} node {node} in-port "
                    f"{Port.NAMES[port]} vc {vc}"
                    + (f"  [{tag}]" if tag else "")
                )
            return "\n".join(lines)
        lines = ["no dependency cycle found; blocked head flits:"]
        for key in sorted(graph):
            subnet, node, port, vc = key
            tag = notes.get(key, "blocked on downstream buffer")
            lines.append(
                f"  subnet {subnet} node {node} in-port "
                f"{Port.NAMES[port]} vc {vc}: {tag}"
            )
            if len(lines) > 20:
                lines.append(f"  ... ({len(graph)} blocked channels)")
                break
        return "\n".join(lines)


class _RingCensus:
    """Counts of link-in-flight flits of one subnet, by destination."""

    __slots__ = ("per_channel", "per_router", "total")

    def __init__(self, network: "SubnetNetwork") -> None:
        per_channel: dict[tuple[int, int, int], int] = {}
        per_router: dict[int, int] = {}
        total = 0
        for router, in_port, vc, _flit in network.in_flight():
            channel_key = (id(router), in_port, vc)
            per_channel[channel_key] = per_channel.get(channel_key, 0) + 1
            per_router[id(router)] = per_router.get(id(router), 0) + 1
            total += 1
        self.per_channel = per_channel
        self.per_router = per_router
        self.total = total


def _find_cycle(
    graph: dict[Channel, list[Channel]]
) -> list[Channel] | None:
    """First cycle in ``graph`` via iterative three-color DFS."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Channel, int] = {node: WHITE for node in graph}
    parent: dict[Channel, Channel | None] = {}
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack: list[tuple[Channel, Iterator[Channel]]] = [
            (start, iter(graph[start]))
        ]
        color[start] = GRAY
        parent[start] = None
        while stack:
            node, edges = stack[-1]
            advanced = False
            for nxt in edges:
                if nxt not in graph:
                    continue
                if color[nxt] == GRAY:
                    # Found a back edge: unwind the cycle.
                    path = [node]
                    walk = node
                    while walk != nxt:
                        step = parent[walk]
                        if step is None:
                            break
                        walk = step
                        path.append(walk)
                    path.reverse()
                    return path
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None
