"""Per-node, per-subnet congestion monitoring (paper §3.2, Figure 4).

``CongestionMonitor`` owns one local metric + hysteresis latch per
(node, subnet), feeds the regional OR network, and answers the two
questions Catnap's policies ask every cycle:

* :meth:`is_congested` — LCS **or** RCS; drives subnet selection.
* :meth:`gating_status` — the lower-order-subnet status the power-gating
  policy conditions on (RCS when the OR network is enabled, otherwise
  the node's own LCS — the paper's *BFM-local* variant).

Under ``REPRO_PERF=1`` (see ``docs/perf.md``) :meth:`update` is the
``monitor_lcs`` phase of the simulator's self-profile, with the
regional OR-network update timed separately as ``regional_update``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.congestion import HysteresisLatch, make_metric
from repro.core.regional import RegionalCongestionNetwork
from repro.noc.config import NocConfig
from repro.noc.topology import ConcentratedMesh

if TYPE_CHECKING:
    from repro.noc.interface import NetworkInterface
    from repro.noc.network import SubnetNetwork

__all__ = ["CongestionMonitor"]


class CongestionMonitor:
    """Evaluates LCS every cycle and RCS every update period."""

    def __init__(self, config: NocConfig, mesh: ConcentratedMesh) -> None:
        self.config = config
        self.mesh = mesh
        self.num_subnets = config.num_subnets
        self.num_nodes = mesh.num_nodes
        cc = config.congestion
        # metrics[subnet][node], latches[subnet][node]
        self._metrics = [
            [make_metric(cc, subnet) for _ in range(self.num_nodes)]
            for subnet in range(self.num_subnets)
        ]
        self._latches = [
            [HysteresisLatch(cc.hold_cycles) for _ in range(self.num_nodes)]
            for _ in range(self.num_subnets)
        ]
        #: lcs[subnet][node] — latched local congestion status.
        self.lcs = [
            [False] * self.num_nodes for _ in range(self.num_subnets)
        ]
        self.regional = RegionalCongestionNetwork(
            mesh, self.num_subnets, cc.rcs_update_period, cc.rcs_divisions
        )
        self.use_regional = cc.use_regional
        # Where a node reads its gating status in a status row: its
        # region's bit in the RCS rows, its own bit in the LCS rows of
        # the BFM-local variant.
        self._status_index = (
            self.regional._region_of
            if self.use_regional
            else list(range(self.num_nodes))
        )
        self.needs_blocking_counters = (
            self._metrics[0][0].needs_blocking_counters
            if self.num_nodes
            else False
        )
        self.needs_injection_rate = (
            self._metrics[0][0].needs_injection_rate
            if self.num_nodes
            else False
        )
        # Buffer-occupancy metrics are identically False over an empty
        # subnet, so idle subnets can skip per-node evaluation entirely
        # (as long as no latch is still holding a congested status).
        self._idle_skippable = cc.metric in ("bfm", "bfa")
        self._latched_count = [0] * self.num_subnets
        # BFM (the paper's chosen metric) is evaluated for every busy
        # (node, subnet) pair every cycle; update() inlines its metric
        # and latch bodies when this threshold is set, because the two
        # method calls per pair dominate the monitor's cost.
        self._bfm_threshold = (
            cc.bfm_threshold_flits if cc.metric == "bfm" else None
        )

    # ------------------------------------------------------------------
    def update(
        self,
        cycle: int,
        subnets: "list[SubnetNetwork]",
        nis: "list[NetworkInterface]",
    ) -> None:
        """Re-evaluate every LCS and (on boundaries) latch RCS."""
        lcs = self.lcs
        latched_count = self._latched_count
        for subnet_idx, network in enumerate(subnets):
            if (
                self._idle_skippable
                and network.flits_in_network == 0
                and latched_count[subnet_idx] == 0
            ):
                continue
            metrics = self._metrics[subnet_idx]
            latches = self._latches[subnet_idx]
            routers = network.routers
            lcs_row = lcs[subnet_idx]
            count = 0
            bfm = self._bfm_threshold
            if bfm is not None:
                # BufferMaxMetric.evaluate + HysteresisLatch.update,
                # inlined (identical logic, no per-node calls).
                for node, router in enumerate(routers):
                    latch = latches[node]
                    congested = False
                    if router.held >= bfm:
                        # Router.max_port_occupancy() >= bfm, inlined:
                        # polled for every busy (node, subnet) pair
                        # every cycle, where the call frame dominates.
                        # held (buffered + inbound) bounds the max from
                        # above, so it only filters.
                        for port in router.ports:
                            if port.occupancy >= bfm:
                                congested = True
                                break
                    if congested:
                        latch.state = state = True
                        latch._held_until = cycle + latch.hold_cycles
                    else:
                        state = latch.state
                        if state and cycle >= latch._held_until:
                            latch.state = state = False
                    lcs_row[node] = state
                    if state:
                        count += 1
            else:
                for node in range(self.num_nodes):
                    raw = metrics[node].evaluate(
                        cycle, routers[node], nis[node]
                    )
                    state = latches[node].update(cycle, raw)
                    lcs_row[node] = state
                    if state:
                        count += 1
            latched_count[subnet_idx] = count
        if self.use_regional:
            self.regional.update(cycle, lcs)

    # ------------------------------------------------------------------
    def force_lcs(self, subnet: int, node: int, value: bool) -> bool:
        """Override one published LCS bit, keeping the count coherent.

        Fault-injection hook (:mod:`repro.faults`): stuck-at LCS
        faults force the latched bit after every :meth:`update`; the
        latched count must follow so :meth:`lcs_count` and the
        idle-subnet fast path observe the forced state.  Returns True
        when the bit actually changed.
        """
        row = self.lcs[subnet]
        if row[node] == value:
            return False
        row[node] = value
        self._latched_count[subnet] += 1 if value else -1
        return True

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when an update over empty subnets changes nothing: the
        metric skips idle subnets, no LCS bit is latched and no RCS
        bit is set."""
        return (
            self._idle_skippable
            and not any(self._latched_count)
            and self.regional.quiescent()
        )

    def is_congested(self, node: int, subnet: int) -> bool:
        """Subnet-selection view: LCS(node) OR RCS(region of node)."""
        if self.lcs[subnet][node]:
            return True
        if self.use_regional:
            return self.regional.rcs(subnet, node)
        return False

    def gating_view(self) -> tuple[list[list[bool]], list[int]]:
        """``(rows, index)``: the gating status of ``subnet`` at ``node``
        is ``rows[subnet][index[node]]``.

        Catnap gates a router in subnet *h* against the congestion of
        subnet *h−1*; with the OR network this is the regional bit, in
        the BFM-local ablation it is the node's own LCS.  The rows are
        live (read them in the cycle that uses them); the regional
        network replaces its rows on every latch.
        """
        rows = self.regional._rcs if self.use_regional else self.lcs
        return rows, self._status_index

    def gating_status(self, node: int, subnet: int) -> bool:
        """Power-gating view of the given subnet's congestion at ``node``
        (one entry of :meth:`gating_view`)."""
        rows, index = self.gating_view()
        return rows[subnet][index[node]]

    def lcs_count(self, subnet: int) -> int:
        """Number of nodes whose latched LCS is set for ``subnet``.

        O(1): read from the count maintained by :meth:`update` (also
        used for the idle-subnet fast path), so telemetry samplers can
        poll it every period without scanning the LCS matrix.
        """
        return self._latched_count[subnet]

    def congested_fraction(self, subnet: int) -> float:
        """Fraction of nodes whose LCS is set (diagnostics)."""
        row = self.lcs[subnet]
        return sum(row) / len(row) if row else 0.0
