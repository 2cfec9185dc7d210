"""Regional congestion status via a 1-bit OR network (paper §3.2.1).

The mesh is partitioned into quadrant regions (4x4 sub-grids of the 8x8
mesh).  Per subnet and per region, an H-tree OR network aggregates the
local congestion status (LCS) of every node; the resulting *regional
congestion status* (RCS) bit is latched into every node's status
flip-flop once per update period.  The paper's SPICE analysis gives a
propagation delay of 2.7 ns (6 cycles at 2 GHz) and a switching energy
of 8.7 pJ per transition; both are modelled here.
"""

from __future__ import annotations

from repro.noc.topology import ConcentratedMesh

__all__ = ["RegionalCongestionNetwork", "OR_NETWORK_SWITCH_ENERGY_J"]

#: Dynamic switching energy of the 1-bit OR H-tree (paper §4.1).
OR_NETWORK_SWITCH_ENERGY_J = 8.7e-12


class RegionalCongestionNetwork:
    """Latched per-region OR of local congestion bits, per subnet.

    ``update`` must be called every cycle with the current LCS matrix;
    the latched RCS changes only on update-period boundaries, modelling
    the OR tree's propagation delay.
    """

    def __init__(
        self,
        mesh: ConcentratedMesh,
        num_subnets: int,
        update_period: int,
        divisions: int = 2,
    ) -> None:
        if update_period < 1:
            raise ValueError("update_period must be >= 1")
        if divisions < 1:
            raise ValueError("divisions must be >= 1")
        self.mesh = mesh
        self.num_subnets = num_subnets
        self.update_period = update_period
        # `divisions` regions per axis, capped by the mesh dimensions.
        # divisions=2 reproduces the paper's four 4x4 quadrants on the
        # 8x8 mesh; 1 degenerates to a single global OR network.
        div_x = min(divisions, mesh.cols)
        div_y = min(divisions, mesh.rows)
        self.divisions = divisions
        self.num_regions = div_x * div_y
        self._region_of = [
            (mesh.coordinates(node)[1] * div_y // mesh.rows) * div_x
            + (mesh.coordinates(node)[0] * div_x // mesh.cols)
            for node in range(mesh.num_nodes)
        ]
        # rcs[subnet][region]: the latched bit all nodes in the region read.
        self._rcs = [
            [False] * self.num_regions for _ in range(num_subnets)
        ]
        #: Count of latched-bit transitions (for OR-network energy).
        self.transitions = 0

    # ------------------------------------------------------------------
    def update(self, cycle: int, lcs: list[list[bool]]) -> None:
        """Latch new regional bits if ``cycle`` is an update boundary.

        Parameters
        ----------
        cycle:
            Current simulation cycle.
        lcs:
            ``lcs[subnet][node]`` — the latched local congestion status
            of every node.
        """
        if cycle % self.update_period:
            return
        region_of = self._region_of
        for subnet in range(self.num_subnets):
            lcs_row = lcs[subnet]
            new_bits = [False] * self.num_regions
            for node, congested in enumerate(lcs_row):
                if congested:
                    new_bits[region_of[node]] = True
            old_bits = self._rcs[subnet]
            for region in range(self.num_regions):
                if new_bits[region] != old_bits[region]:
                    self.transitions += 1
            self._rcs[subnet] = new_bits

    # ------------------------------------------------------------------
    def refresh(self, cycle: int, lcs: list[list[bool]]) -> int:
        """Recompute every latched bit immediately (heartbeat scrub).

        Unlike :meth:`update` this ignores the update-period latch: it
        is the redundant scrub path of the ``rcs-refresh`` recovery
        policy (:mod:`repro.faults`), repairing latched bits a fault
        forced or froze.  Returns the number of bits corrected; each
        correction counts as an OR-network transition (the scrub
        drives the same wires).
        """
        region_of = self._region_of
        corrected = 0
        for subnet in range(self.num_subnets):
            lcs_row = lcs[subnet]
            new_bits = [False] * self.num_regions
            for node, congested in enumerate(lcs_row):
                if congested:
                    new_bits[region_of[node]] = True
            old_bits = self._rcs[subnet]
            for region in range(self.num_regions):
                if new_bits[region] != old_bits[region]:
                    self.transitions += 1
                    corrected += 1
            self._rcs[subnet] = new_bits
        return corrected

    # ------------------------------------------------------------------
    def force_rcs(self, subnet: int, region: int, value: bool) -> bool:
        """Override one latched regional bit (fault-injection hook).

        Stuck-at RCS faults re-force the latched bit after every
        :meth:`update`, modelling a stuck status flip-flop.  Counts as
        an OR-network transition when the bit actually changes; returns
        True in that case.
        """
        row = self._rcs[subnet]
        if row[region] == value:
            return False
        row[region] = value
        self.transitions += 1
        return True

    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no region's bit is latched in any subnet."""
        return not any(any(row) for row in self._rcs)

    def rcs(self, subnet: int, node: int) -> bool:
        """Latched regional congestion bit visible at ``node``."""
        return self._rcs[subnet][self._region_of[node]]

    def rcs_region(self, subnet: int, region: int) -> bool:
        """Latched regional congestion bit of ``region`` directly."""
        return self._rcs[subnet][region]

    def region_of(self, node: int) -> int:
        """Region index of ``node`` (cached from the mesh)."""
        return self._region_of[node]

    def switching_energy_joules(self) -> float:
        """Total OR-network switching energy so far."""
        return self.transitions * OR_NETWORK_SWITCH_ENERGY_J
