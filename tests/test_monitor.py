"""Tests for the congestion monitor (LCS + RCS plumbing)."""

from __future__ import annotations

from dataclasses import replace

from tests.conftest import land_flit, small_config

from repro.core.monitor import CongestionMonitor
from repro.noc.config import CongestionConfig
from repro.noc.flit import Flit, Packet
from repro.noc.multinoc import MultiNocFabric
from repro.noc.topology import Port


def fill_router(network, node, flits):
    """Stuff a router's east input port with waiting flits."""
    router = network.routers[node]
    for i in range(flits):
        packet = Packet(src=node, dst=node, size_bits=128)
        flit = Flit(packet, True, True, 0)
        flit.route = Port.LOCAL
        land_flit(network, router, Port.EAST, i % 4, flit)


class TestLcs:
    def test_lcs_set_when_bfm_exceeds_threshold(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        fill_router(fabric.subnets[0], 5, 12)
        fabric.monitor.update(0, fabric.subnets, fabric.nis)
        assert fabric.monitor.lcs[0][5]
        assert not fabric.monitor.lcs[1][5]

    def test_lcs_clear_when_empty(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        fabric.monitor.update(0, fabric.subnets, fabric.nis)
        assert not any(fabric.monitor.lcs[0])


class TestIsCongested:
    def test_regional_bit_spreads_to_region(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        hot = 0  # region 0 on the 4x4 mesh
        fill_router(fabric.subnets[0], hot, 12)
        monitor.update(0, fabric.subnets, fabric.nis)  # RCS boundary
        same_region = fabric.mesh.region_nodes(0)
        for node in same_region:
            assert monitor.is_congested(node, 0)
        other_region = fabric.mesh.region_nodes(3)
        for node in other_region:
            assert not monitor.is_congested(node, 0)

    def test_local_only_mode_stays_local(self):
        config = replace(
            small_config(),
            congestion=replace(CongestionConfig(), use_regional=False),
        )
        fabric = MultiNocFabric(config, seed=1)
        monitor = fabric.monitor
        fill_router(fabric.subnets[0], 0, 12)
        monitor.update(0, fabric.subnets, fabric.nis)
        assert monitor.is_congested(0, 0)
        neighbors = [n for n in fabric.mesh.region_nodes(0) if n != 0]
        assert not any(monitor.is_congested(n, 0) for n in neighbors)


class TestGatingStatus:
    def test_uses_rcs_when_regional(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        fill_router(fabric.subnets[0], 0, 12)
        monitor.update(0, fabric.subnets, fabric.nis)
        region0 = fabric.mesh.region_nodes(0)
        assert all(monitor.gating_status(n, 0) for n in region0)

    def test_uses_lcs_when_local(self):
        config = replace(
            small_config(),
            congestion=replace(CongestionConfig(), use_regional=False),
        )
        fabric = MultiNocFabric(config, seed=1)
        monitor = fabric.monitor
        fill_router(fabric.subnets[0], 0, 12)
        monitor.update(0, fabric.subnets, fabric.nis)
        assert monitor.gating_status(0, 0)
        assert not monitor.gating_status(1, 0)


class TestIdleFastPath:
    def test_latched_congestion_decays_after_traffic_stops(self):
        """The idle-subnet skip must not freeze a latched status."""
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        network = fabric.subnets[0]
        fill_router(network, 3, 12)
        monitor.update(0, fabric.subnets, fabric.nis)
        assert monitor.lcs[0][3]
        # Drain the router manually and tick past hold + RCS period.
        router = network.routers[3]
        for port in router.ports:
            for vc in port.vcs:
                vc.fifo.clear()
            port.occupancy = 0
        router.held = 0
        for cycle in range(1, 30):
            monitor.update(cycle, fabric.subnets, fabric.nis)
        assert not monitor.lcs[0][3]
        assert not monitor.is_congested(3, 0)

    def test_congested_fraction(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        fill_router(fabric.subnets[0], 0, 12)
        fabric.monitor.update(0, fabric.subnets, fabric.nis)
        assert fabric.monitor.congested_fraction(0) == 1 / 16


def drain_router(network, node):
    """Inverse of fill_router: empty the router's input buffers."""
    router = network.routers[node]
    for port in router.ports:
        for vc_idx in range(len(port.vcs)):
            while port.vcs[vc_idx].fifo:
                port.pop(vc_idx)
                router.held -= 1
                network.flits_in_network -= 1


class TestRcsUpdateBoundaries:
    """RCS latches only on update-period boundaries (H-tree delay).

    The default config uses ``rcs_update_period=6`` (the paper's
    2.7 ns OR-tree propagation at 2 GHz) and ``hold_cycles=6`` for the
    LCS hysteresis latch; these tests pin the boundary semantics the
    telemetry RCS probe relies on.
    """

    def test_lcs_flip_on_boundary_latches_in_same_update(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        period = monitor.regional.update_period
        for cycle in range(period):
            monitor.update(cycle, fabric.subnets, fabric.nis)
        assert not monitor.regional.rcs(0, 0)
        # LCS rises exactly at the boundary cycle: monitor.update
        # evaluates LCS before feeding the regional network, so the
        # flip is latched by the same call.
        fill_router(fabric.subnets[0], 0, 12)
        monitor.update(period, fabric.subnets, fabric.nis)
        assert monitor.lcs[0][0]
        assert monitor.regional.rcs(0, 0)

    def test_lcs_flip_after_boundary_waits_a_full_period(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        period = monitor.regional.update_period
        for cycle in range(period + 1):
            monitor.update(cycle, fabric.subnets, fabric.nis)
        # LCS rises one cycle past the boundary: the regional bit must
        # stay clear until the next boundary.
        fill_router(fabric.subnets[0], 0, 12)
        for cycle in range(period + 1, 2 * period):
            monitor.update(cycle, fabric.subnets, fabric.nis)
            assert monitor.lcs[0][0]
            assert not monitor.regional.rcs(0, 0)
        monitor.update(2 * period, fabric.subnets, fabric.nis)
        assert monitor.regional.rcs(0, 0)

    def test_hysteresis_latch_holds_rcs_across_boundary(self):
        """A raw signal gone low stays latched through the boundary."""
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        period = monitor.regional.update_period  # 6
        hold = fabric.config.congestion.hold_cycles  # 6
        for cycle in range(period + 1):
            monitor.update(cycle, fabric.subnets, fabric.nis)
        # Raw congestion only at cycle 7: latch holds until 7 + hold.
        fill_router(fabric.subnets[0], 0, 12)
        monitor.update(period + 1, fabric.subnets, fabric.nis)
        assert monitor.lcs[0][0]
        drain_router(fabric.subnets[0], 0)
        for cycle in range(period + 2, 2 * period):
            monitor.update(cycle, fabric.subnets, fabric.nis)
        # Boundary at 2*period=12 < held-until=13: the latch is still
        # set even though the raw signal has been low for cycles, so
        # the RCS bit asserts on this boundary.
        monitor.update(2 * period, fabric.subnets, fabric.nis)
        assert monitor.lcs[0][0]
        assert monitor.regional.rcs(0, 0)
        # The latch expires at period+1+hold=13; by the next boundary
        # (18) the regional bit clears again.
        for cycle in range(2 * period + 1, 3 * period):
            monitor.update(cycle, fabric.subnets, fabric.nis)
            assert monitor.regional.rcs(0, 0)
        monitor.update(3 * period, fabric.subnets, fabric.nis)
        assert not monitor.lcs[0][0]
        assert not monitor.regional.rcs(0, 0)

    def test_transitions_counted_per_toggle(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        period = monitor.regional.update_period
        fill_router(fabric.subnets[0], 0, 12)
        monitor.update(0, fabric.subnets, fabric.nis)
        assert monitor.regional.transitions == 1
        drain_router(fabric.subnets[0], 0)
        cycle = 1
        while monitor.regional.rcs(0, 0):
            monitor.update(cycle, fabric.subnets, fabric.nis)
            cycle += 1
        assert monitor.regional.transitions == 2


class TestLcsCount:
    def test_lcs_count_tracks_latched_nodes(self):
        fabric = MultiNocFabric(small_config(), seed=1)
        monitor = fabric.monitor
        assert monitor.lcs_count(0) == 0
        fill_router(fabric.subnets[0], 0, 12)
        fill_router(fabric.subnets[0], 5, 12)
        monitor.update(0, fabric.subnets, fabric.nis)
        assert monitor.lcs_count(0) == 2
        assert monitor.lcs_count(1) == 0
        assert monitor.lcs_count(0) == sum(monitor.lcs[0])
