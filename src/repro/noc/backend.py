"""Simulation kernels behind the :class:`FabricBackend` interface.

A backend owns the *time loop* of a :class:`~repro.noc.multinoc.
MultiNocFabric`: given a span of cycles (and optionally a traffic
source), it advances the fabric to the end of the span.  Two backends
ship:

``dense``
    The reference kernel: call ``source.step`` and ``fabric.step`` once
    per simulated cycle.  This is exactly the loop the fabric has always
    run; it is the semantic definition every other backend is measured
    against.

``skip``
    An energy-proportional kernel for an energy-proportionality paper:
    subnets and routers that hold no flits cost no Python work.  Busy
    cycles run the fabric's own link delivery and router step
    (``SubnetNetwork.step_routers``, which visits only occupied virtual
    channels), skipping subnets that hold no flits, and fully quiescent
    spans are skipped in one jump to the next event horizon — the
    earliest pending injection, in-flight arrival, wakeup completion,
    or requested span end — with the power-gating state machine
    advanced in closed form.  On busy cycles the gating phase costs
    O(1) per sleeping router.

Equivalence is a hard contract, not an aspiration: for any workload,
``skip`` must leave the fabric in a byte-identical state to ``dense``
(same ``FabricReport``, same RNG positions, same counters).  The
figure-table tests and ``tests/test_backend.py`` enforce this.

Backends also respect the per-instance shadowing contract (see
``docs/architecture.md``): when a ``per_cycle`` layer of the
:mod:`repro.noc.layers` registry (perf, faults, telemetry, explain) or
any unregistered wrapper has shadowed ``fabric.step``, the skip backend
defers to that shadowed per-cycle step, because it observes every
cycle.  The invariant checker is the one layer that is not
``per_cycle`` — its laws hold at every cycle boundary, so the kernel
drives :meth:`~repro.analysis.invariants.InvariantChecker.note_steps`
at the checker's own cadence instead of stepping densely.

Backend selection: ``MultiNocFabric(config, backend="skip")`` or the
``REPRO_BACKEND`` environment variable (the experiments CLI's
``--backend`` flag sets it for sweep workers).  Unset means ``dense``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.gating import GatingPolicy
from repro.noc.layers import shadow_chain
from repro.noc.router import PowerState
from repro.noc.topology import Port
from repro.util import env

if TYPE_CHECKING:
    from repro.noc.multinoc import MultiNocFabric

__all__ = [
    "FabricBackend",
    "DenseBackend",
    "SkipBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NEVER",
    "backend_names",
    "make_backend",
    "backend_from_env",
]

#: Name used when neither the constructor nor the environment chooses.
DEFAULT_BACKEND = "dense"

#: Sentinel horizon for "the source never becomes active again".
NEVER = 1 << 62

def _subnet_node(router) -> tuple[int, int]:
    """Sort key: a router's (subnet, node) position."""
    return router.subnet, router.node


class FabricBackend:
    """Time-loop strategy for one fabric instance.

    Subclasses must satisfy the invariants documented in
    ``docs/architecture.md``: byte-identical fabric state at every span
    boundary, per-cycle deference to shadowed ``step`` observers, and
    ``source.step(cycle)`` called for every cycle at which the source
    may act.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def __init__(self, fabric: "MultiNocFabric") -> None:
        self.fabric = fabric

    def run(self, cycles: int, source=None) -> None:
        """Advance the fabric by ``cycles``, stepping ``source`` too."""
        raise NotImplementedError

    def drain(self, max_cycles: int) -> bool:
        """Run until the fabric is empty; True when fully drained."""
        for _ in range(max_cycles):
            if self._drained():
                return True
            self.run(1)
        return False

    def _drained(self) -> bool:
        """No flit in the fabric and no packet waiting at any NI."""
        fabric = self.fabric
        return fabric.in_flight_flits == 0 and all(
            not ni.queue and not ni.active_streams for ni in fabric.nis
        )


class DenseBackend(FabricBackend):
    """The reference per-cycle kernel: every router, every cycle."""

    name = "dense"

    def run(self, cycles: int, source=None) -> None:
        # ``fabric.step`` is looked up per iteration on purpose: the
        # shadowing contract lets observers attach or detach between
        # cycles, and the dense kernel must honour the current shadow.
        fabric = self.fabric
        if source is None:
            for _ in range(cycles):
                fabric.step()
        else:
            source_step = source.step
            for _ in range(cycles):
                source_step(fabric.cycle)
                fabric.step()


class SkipBackend(FabricBackend):
    """Idle-aware kernel: busy-subnet steps and quiescence jumps.

    Every span start re-derives the kernel's fast-path wiring from
    ground truth (:meth:`_sync`), so external callers may still drive
    ``fabric.step`` directly between spans.
    """

    name = "skip"

    def __init__(self, fabric: "MultiNocFabric") -> None:
        super().__init__(fabric)
        # _ni_fast: every NI is a plain, unshadowed NetworkInterface,
        # so the kernel may run the NI phase through its own mirror of
        # NetworkInterface.step.  Rebuilt by _sync.
        self._ni_fast = False
        # _gating_fast: the gating controller is the stock class with
        # none of its stepped methods shadowed, so the kernel may run
        # its own sleep-aware gating phase.  Rebuilt by _sync.
        self._gating_fast = False
        # _awake[subnet] / _asleep[subnet]: that subnet's routers split
        # by "power_state is SLEEP", each in node order; _plain0: subnet
        # 0 is un-gated and all its routers are ACTIVE (its gating phase
        # is one add).  Rebuilt by _sync, after every jump, and on every
        # sleep or wake transition of the fast gating phase.
        self._awake: list[list] = [[] for _ in fabric.subnets]
        self._asleep: list[list] = [[] for _ in fabric.subnets]
        self._plain0 = False
        # _status_index[node]: where a node reads its gating status in
        # a subnet's status row (its region in the RCS rows, itself in
        # the LCS rows of the BFM-local variant).  Set by _sync.
        self._status_index: list[int] = []
        #: Busy cycles run by the kernel, cycles covered by quiescence
        #: jumps, and cycles stepped densely through a per-cycle shadow.
        #: Each grows once per span.
        self.cycles_mirrored = 0
        self.cycles_jumped = 0
        self.cycles_deferred = 0

    # ------------------------------------------------------------------
    # Shadowing-contract composition
    # ------------------------------------------------------------------
    def _shadow_mode(self) -> tuple[bool, object]:
        """``(defer, observer)`` for how ``fabric.step`` is shadowed.

        The kernel runs when ``step`` is plain class bytecode
        (``observer`` None) or wrapped by exactly one layer whose
        registry record is not ``per_cycle`` — the kernel then drives
        that layer's ``note_steps`` itself.  Any other shadow on
        ``step``, registered or not, observes every cycle: ``defer``
        is True and the kernel steps through the shadow chain.
        """
        chain = shadow_chain(self.fabric, "step")
        if not chain:
            return False, None
        layer, binding = chain[0]
        if len(chain) > 1 or layer is None or layer.per_cycle:
            return True, None
        return False, binding.__self__

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, cycles: int, source=None) -> None:
        if cycles <= 0:
            return
        fabric = self.fabric
        defer, checker = self._shadow_mode()
        if defer:
            # Per-cycle observers are attached; dense semantics through
            # the shadow chain is the only faithful execution.
            DenseBackend.run(self, cycles, source)
            self.cycles_deferred += cycles
            return
        self._sync()
        end = fabric.cycle + cycles
        while fabric.cycle < end:
            if not self._kernel_span(end, source, checker):
                self._jump(end, source, checker)

    def drain(self, max_cycles: int) -> bool:
        fabric = self.fabric
        defer, checker = self._shadow_mode()
        if defer:
            # Each cycle goes through run(1), which re-reads the shadow
            # and steps densely (counted as deferred) while it stays.
            return super().drain(max_cycles)
        self._sync()
        for _ in range(max_cycles):
            if self._drained():
                return True
            self._kernel_span(fabric.cycle + 1, None, checker)
        return False

    # ------------------------------------------------------------------
    # Fast-path wiring
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Re-derive the fast-path guards from ground truth.

        Runs at every span start, so wiring changed between spans
        (layers attaching, tests overriding hooks) is picked up before
        the kernel trusts any cached view of it.
        """
        from repro.noc.interface import NetworkInterface
        from repro.noc.routing import XYRouting

        # The NI-step mirror requires the stock class with none of the
        # mirrored methods shadowed per instance.
        shadowable = {"step", "_stream_subnet", "_assign_head"}
        self._ni_fast = all(
            type(ni) is NetworkInterface
            and type(ni.routing) is XYRouting
            and not (vars(ni).keys() & shadowable)
            for ni in self.fabric.nis
        )
        self._sync_gating()

    def _sync_gating(self) -> None:
        """Detect the stock gating controller and split the routers.

        The fast gating phase requires the stock controller and
        congestion monitor with none of the methods it replaces or
        reads around shadowed per instance (telemetry and the fault
        engine tap the transitions; both also defer the kernel).
        """
        from repro.core.gating import PowerGatingController
        from repro.core.monitor import CongestionMonitor
        from repro.core.regional import RegionalCongestionNetwork

        fabric = self.fabric
        gating = fabric.gating
        monitor = fabric.monitor
        self._gating_fast = (
            type(gating) is PowerGatingController
            and not (
                vars(gating).keys()
                & {"step", "_sleep", "_begin_wakeup", "_wake_complete"}
            )
            and type(monitor) is CongestionMonitor
            and "gating_status" not in vars(monitor)
            and type(monitor.regional) is RegionalCongestionNetwork
            and "rcs" not in vars(monitor.regional)
        )
        if not self._gating_fast:
            return
        self._status_index = (
            monitor.regional._region_of
            if monitor.use_regional
            else list(range(fabric.mesh.num_nodes))
        )
        for subnet_idx in range(len(fabric.subnets)):
            self._split_subnet(subnet_idx)

    def _split_subnet(self, subnet_idx: int) -> None:
        """Re-derive one subnet's awake/asleep split from ground truth."""
        gating = self.fabric.gating
        routers = gating.subnets[subnet_idx].routers
        sleep = PowerState.SLEEP
        awake = [r for r in routers if r.power_state != sleep]
        self._awake[subnet_idx] = awake
        self._asleep[subnet_idx] = [
            r for r in routers if r.power_state == sleep
        ]
        if subnet_idx == 0:
            self._plain0 = gating.keep_subnet0 and all(
                r.power_state == PowerState.ACTIVE for r in routers
            )

    # ------------------------------------------------------------------
    # Busy cycles
    # ------------------------------------------------------------------
    def _kernel_span(self, end: int, source, checker) -> bool:
        """Run kernel cycles until ``end`` or quiescence.

        Returns True when the span reached ``end``; False when the
        fabric went fully quiescent first (the caller may then jump).
        """
        fabric = self.fabric
        subnets = fabric.subnets
        nis = fabric.nis
        monitor = fabric.monitor
        gating = fabric.gating
        step_nis = self._step_nis
        ni_fast = self._ni_fast
        source_step = source.step if source is not None else None
        quiet_source = self._source_quiet_probe(source)
        gating_none = gating.policy == GatingPolicy.NONE
        step_gating = (
            self._step_gating if self._gating_fast else gating.step
        )
        # Batched gating stats for the NONE policy (flushed before any
        # checker pass and at span exit, so observers see exact counts):
        # under NONE every router of every subnet is active every cycle,
        # so a cycle count per span reconstructs the stats exactly.
        none_cycles = 0

        def flush_none() -> None:
            nonlocal none_cycles
            if none_cycles:
                for idx, network in enumerate(subnets):
                    gating.stats[idx].active_cycles += (
                        none_cycles * len(network.routers)
                    )
                none_cycles = 0

        start = cycle = fabric.cycle
        while cycle < end:
            if source_step is not None:
                source_step(cycle)
            fabric_active = False
            for network in subnets:
                network.deliver_arrivals(cycle)
            monitor.update(cycle, subnets, nis)
            if ni_fast:
                if step_nis(cycle):
                    fabric_active = True
            else:
                for ni in nis:
                    if ni.queue or ni._active_slots or ni._ir_rate > 1e-9:
                        # An NI outside this condition runs the exact
                        # no-op branch of NetworkInterface.step;
                        # skipping the call is byte-identical.
                        ni.step(cycle)
                        fabric_active = True
            for network in subnets:
                # An empty subnet's router step is a no-op.
                if network.flits_in_network:
                    fabric_active = True
                    network.step_routers(cycle)
            if gating_none:
                none_cycles += 1
            else:
                step_gating(cycle)
            cycle += 1
            fabric.cycle = cycle
            if checker is not None:
                flush_none()
                checker.note_steps(1, cycle - 1)
            if not fabric_active and quiet_source(cycle):
                if self._quiescent():
                    flush_none()
                    self.cycles_mirrored += cycle - start
                    return False
        flush_none()
        self.cycles_mirrored += cycle - start
        return True

    def _step_gating(self, cycle: int) -> None:
        """:meth:`PowerGatingController.step` at O(1) per sleeping router
        (guarded by ``_gating_fast``; never called under policy NONE).

        Every router's transition depends only on its own state, the
        pending-wake set and the subnet h-1 status row, none of which
        the phase itself changes, so each subnet is split: sleepers are
        credited ``sleep_cycles`` in one add, and a sleeper is visited
        only when it has a pending wake or its status bit is high —
        first, in node order, so the awake list visited after it is
        exactly the routers the dense loop saw awake.  The un-gated
        subnet 0 is one add while all its routers are ACTIVE.
        """
        gating = self.fabric.gating
        monitor = gating.monitor
        pending = gating._pending_wakes
        rcs_policy = gating.policy == GatingPolicy.RCS
        status_rows = (
            monitor.regional._rcs if monitor.use_regional else monitor.lcs
        )
        status_index = self._status_index
        detect = gating.idle_detect_cycles
        states = gating._state
        sleep = PowerState.SLEEP
        active_state = PowerState.ACTIVE
        woken: list = []
        if pending:
            router_by_id = gating._router_by_id
            woken = sorted(
                (router_by_id[key] for key in pending), key=_subnet_node
            )
        for subnet_idx, stats in enumerate(gating.stats):
            awake = self._awake[subnet_idx]
            if subnet_idx == 0 and self._plain0:
                stats.active_cycles += len(awake)
                continue
            asleep = self._asleep[subnet_idx]
            row = status_rows[subnet_idx - 1] if rcs_policy else None
            changed = False
            if asleep:
                stats.sleep_cycles += len(asleep)
                wake = [r for r in woken if r.subnet == subnet_idx]
                if row is not None and True in row:
                    flagged = [
                        r for r in asleep if row[status_index[r.node]]
                    ]
                    if wake:
                        wake = sorted(set(wake) | set(flagged),
                                      key=_subnet_node)
                    else:
                        wake = flagged
                for router in wake:
                    if router.power_state == sleep:
                        gating._begin_wakeup(router, cycle, stats)
                        changed = True
            gate = not (gating.keep_subnet0 and subnet_idx == 0)
            active = 0
            waking = 0
            for router in awake:
                if router.power_state == active_state:
                    active += 1
                    if not gate:
                        continue
                    if router.buffered_flits or router.expected_arrivals:
                        router.idle_cycles = 0
                        continue
                    idle = router.idle_cycles + 1
                    router.idle_cycles = idle
                    if idle < detect:
                        continue
                    if row is not None and row[status_index[router.node]]:
                        continue
                    gating._sleep(router, cycle)
                    changed = True
                else:  # WAKEUP
                    waking += 1
                    if cycle >= states[id(router)].wake_ready:
                        gating._wake_complete(router, cycle)
            stats.active_cycles += active
            stats.wakeup_cycles += waking
            if changed:
                self._split_subnet(subnet_idx)
        pending.clear()

    def _step_nis(self, cycle: int) -> bool:
        """Mirror of the fabric's NI phase (guarded by ``_ni_fast``).

        One call per cycle instead of one ``NetworkInterface.step``
        call per active NI, with the hot ``_stream_subnet`` /
        ``SubnetNetwork.inject`` bodies inlined statement for
        statement.  ``_assign_head`` stays a call (it owns the
        selection policy and packet segmentation and runs once per
        packet, not per cycle).  Returns True when any NI did work —
        the same condition the generic gate reports.
        """
        fabric = self.fabric
        subnets = fabric.subnets
        vcs = fabric.config.vcs_per_port
        n_sub = len(subnets)
        local_base = Port.LOCAL * vcs
        pipeline = fabric.config.timing.pipeline_cycles
        active_any = False
        for ni in fabric.nis:
            if not ni.queue and not ni._active_slots:
                # The exact decay-only branch of NetworkInterface.step.
                if ni.track_rate and ni._ir_rate > 1e-9:
                    active_any = True
                    rate = ni._ir_rate
                    alpha = ni._ir_alpha
                    ni._ir_rate = rate - alpha * rate
                    rates = ni._ir_rate_subnet
                    for s in range(n_sub):
                        r = rates[s]
                        rates[s] = r - alpha * r
                continue
            active_any = True
            node = ni.node
            routing = ni.routing
            rtable = routing._table
            rstride = routing._n
            sent = 0
            if ni._active_slots:
                sactive = ni._subnet_active
                orders = ni._stream_orders
                rrs = ni._stream_rr
                slots_by = ni._slots
                credits_by = ni._credits
                for subnet in range(n_sub):
                    if not sactive[subnet]:
                        continue
                    # NetworkInterface._stream_subnet, inlined.
                    network = subnets[subnet]
                    router = network.routers[node]
                    if router.power_state:
                        # At least one slot is occupied (the per-subnet
                        # count says so), so the dense loop issues
                        # exactly one wakeup request and sends nothing.
                        if ni.gating is not None:
                            ni.gating.request_wakeup(router)
                        continue
                    slots = slots_by[subnet]
                    credits = credits_by[subnet]
                    for vc in orders[rrs[subnet]]:
                        slot = slots[vc]
                        if slot is None:
                            continue
                        if credits[vc] <= 0:
                            continue
                        flit = slot.flits[slot.index]
                        credits[vc] -= 1
                        # XYRouting.output_port is exactly this flat
                        # table lookup.
                        flit.route = rtable[
                            node * rstride + flit.packet.dst
                        ]
                        if flit.is_head:
                            slot.packet.injected_cycle = cycle
                        # SubnetNetwork.inject, inlined.
                        router.expected_arrivals += 1
                        network._ring[
                            (cycle + pipeline) % network._ring_len
                        ].append((router.channels[local_base + vc], flit))
                        network.flits_in_network += 1
                        counters = network.counters
                        counters.flits_injected += 1
                        if flit.is_head:
                            counters.packets_injected += 1
                        ni._queue_flits -= 1
                        slot.index += 1
                        if flit.is_tail:
                            slots[vc] = None
                            ni._active_slots -= 1
                            sactive[subnet] -= 1
                        nrr = vc + 1
                        rrs[subnet] = nrr if nrr < vcs else 0
                        sent |= 1 << subnet
                        break
            fresh = ni._assign_head(cycle)
            if fresh >= 0 and not sent & (1 << fresh):
                ni._stream_subnet(fresh, cycle)
            if ni.track_rate:
                alpha = ni._ir_alpha
                r = ni._ir_rate
                ni._ir_rate = r + alpha * (
                    (1.0 if fresh >= 0 else 0.0) - r
                )
                rates = ni._ir_rate_subnet
                for s in range(n_sub):
                    r = rates[s]
                    rates[s] = r + alpha * (
                        (1.0 if s == fresh else 0.0) - r
                    )
        return active_any

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def _source_quiet_probe(self, source) -> Callable[[int], bool]:
        """Predicate: at ``cycle`` the source offers nothing and can
        report its next active cycle (else it is never quiet)."""
        if source is None:
            return lambda cycle: True
        next_offer = getattr(source, "next_offer_cycle", None)
        if next_offer is None:
            return lambda cycle: False
        return lambda cycle: next_offer(cycle) > cycle

    def _quiescent(self) -> bool:
        """True when a clock jump is provably invisible.

        Requires: no flit anywhere (buffered or in flight), every NI
        empty, the congestion monitor structurally clear (idle-skippable
        metric, zero latched LCS bits, all regional bits low), no
        pending or watchdog-armed wakeups, and no fault engine attached.
        NIs track decaying injection-rate averages only under the IR
        metric, which is never idle-skippable, so an empty NI is frozen.
        """
        fabric = self.fabric
        for network in fabric.subnets:
            if network.flits_in_network:
                return False
        for ni in fabric.nis:
            if ni.queue or ni._active_slots:
                return False
        monitor = fabric.monitor
        if not monitor._idle_skippable:
            return False
        if any(monitor._latched_count):
            return False
        if any(any(row) for row in monitor.regional._rcs):
            return False
        gating = fabric.gating
        if gating._pending_wakes or gating._wake_timeout is not None:
            return False
        return True

    def _jump(self, end: int, source, checker) -> None:
        """Advance the clock over a quiescent span in one step.

        Only power-gating bookkeeping evolves during quiescence, and
        each router's state machine runs independently (no congestion,
        no wakeup requests), so it is advanced in closed form; every
        other per-cycle phase is a proven no-op.
        """
        fabric = self.fabric
        start = fabric.cycle
        horizon = end
        if source is not None:
            horizon = min(horizon, source.next_offer_cycle(start))
        if horizon <= start:
            # The source reactivates immediately; nothing to skip —
            # run one kernel cycle and let the caller re-evaluate.
            self._kernel_span(start + 1, source, checker)
            return
        span = horizon - start
        self._advance_gating(start, horizon)
        self._sync_gating()
        fabric.cycle = horizon
        self.cycles_jumped += span
        if checker is not None:
            checker.note_steps(span, horizon - 1)

    def _advance_gating(self, start: int, end: int) -> None:
        """Closed-form gating over quiescent cycles ``[start, end)``."""
        gating = self.fabric.gating
        span = end - start
        if gating.policy == GatingPolicy.NONE:
            for subnet_idx, network in enumerate(gating.subnets):
                gating.stats[subnet_idx].active_cycles += (
                    span * len(network.routers)
                )
            return
        detect = gating.idle_detect_cycles
        for subnet_idx, network in enumerate(gating.subnets):
            stats = gating.stats[subnet_idx]
            gate_this_subnet = not (gating.keep_subnet0 and subnet_idx == 0)
            for router in network.routers:
                t = start
                while t < end:
                    state = router.power_state
                    if state == PowerState.SLEEP:
                        stats.sleep_cycles += end - t
                        t = end
                    elif state == PowerState.ACTIVE and not gate_this_subnet:
                        # The always-on subnet never gates and leaves
                        # the idle counter untouched.
                        stats.active_cycles += end - t
                        t = end
                    elif state == PowerState.ACTIVE:
                        # Drained and uncongested: sleeps once the idle
                        # window fills (counted active through the
                        # transition cycle, exactly as the dense loop).
                        sleep_at = t + max(
                            0, detect - router.idle_cycles - 1
                        )
                        if sleep_at >= end:
                            stats.active_cycles += end - t
                            router.idle_cycles += end - t
                            t = end
                        else:
                            stats.active_cycles += sleep_at - t + 1
                            router.idle_cycles += sleep_at - t + 1
                            gating._sleep(router, sleep_at)
                            t = sleep_at + 1
                    else:  # WAKEUP
                        ready = gating._state[id(router)].wake_ready
                        done_at = ready if ready > t else t
                        if done_at >= end:
                            stats.wakeup_cycles += end - t
                            t = end
                        else:
                            stats.wakeup_cycles += done_at - t + 1
                            gating._wake_complete(router, done_at)
                            t = done_at + 1


#: Registry of selectable backends, keyed by CLI/env name.
BACKENDS: dict[str, type[FabricBackend]] = {
    DenseBackend.name: DenseBackend,
    SkipBackend.name: SkipBackend,
}


def backend_names() -> tuple[str, ...]:
    """Valid backend names, sorted (for CLI help and errors)."""
    return tuple(sorted(BACKENDS))


def make_backend(name: str, fabric: "MultiNocFabric") -> FabricBackend:
    """Instantiate the backend called ``name`` for ``fabric``.

    Raises ``ValueError`` with the valid names for anything unknown, so
    callers (the CLI validates earlier; library users hit this) get an
    actionable message instead of an AttributeError mid-simulation.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric backend {name!r}; "
            f"choose from {', '.join(backend_names())}"
        ) from None
    return cls(fabric)


def backend_from_env() -> str:
    """Backend name selected by ``REPRO_BACKEND`` (default ``dense``)."""
    return env.text("REPRO_BACKEND", DEFAULT_BACKEND)
