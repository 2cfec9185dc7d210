"""Memory controllers and DRAM timing (paper Table 1).

Eight on-chip memory controllers sit on the top and bottom rows of the
mesh.  Each controller serves 64-byte lines at 16 GB/s (one line every
8 cycles at 2 GHz) with an 80-cycle DRAM access latency; requests queue
FIFO when they arrive faster than the service rate.
"""

from __future__ import annotations

from repro.noc.topology import ConcentratedMesh
from repro.util.validation import check_positive

__all__ = ["MemoryController", "place_memory_controllers", "MemorySystem"]

#: DRAM access latency in router cycles (Table 1: 80 cycles).
DRAM_LATENCY_CYCLES = 80

#: Cycles between line completions at 16 GB/s, 64-byte lines, 2 GHz.
SERVICE_INTERVAL_CYCLES = 8


class MemoryController:
    """One DDR channel group: fixed latency plus FIFO queueing."""

    def __init__(
        self,
        node: int,
        dram_latency: int = DRAM_LATENCY_CYCLES,
        service_interval: int = SERVICE_INTERVAL_CYCLES,
    ) -> None:
        check_positive("dram_latency", dram_latency)
        check_positive("service_interval", service_interval)
        self.node = node
        self.dram_latency = dram_latency
        self.service_interval = service_interval
        self._next_free = 0
        self.requests_served = 0

    def access(self, cycle: int) -> int:
        """Enqueue a line read arriving at ``cycle``.

        Returns the cycle at which the data is ready to be sent back.
        """
        start = max(cycle, self._next_free)
        self._next_free = start + self.service_interval
        self.requests_served += 1
        return start + self.dram_latency


def place_memory_controllers(
    mesh: ConcentratedMesh, count: int = 8
) -> list[int]:
    """Node positions for ``count`` MCs on the top and bottom rows.

    MCs are spread evenly across the top row first, then the bottom row
    (matching the edge placement in the paper's Figure 1).
    """
    check_positive("count", count)
    per_row = -(-count // 2)
    nodes = []
    for row in (0, mesh.rows - 1):
        remaining = count - len(nodes)
        if remaining <= 0:
            break
        slots = min(per_row, remaining)
        for i in range(slots):
            x = round((i + 0.5) * mesh.cols / slots - 0.5)
            nodes.append(mesh.node_at(min(x, mesh.cols - 1), row))
    return nodes


class MemorySystem:
    """All memory controllers of the processor."""

    def __init__(self, mesh: ConcentratedMesh, count: int = 8) -> None:
        self.controllers = [
            MemoryController(node)
            for node in place_memory_controllers(mesh, count)
        ]

    def controller_for(self, address_hash: int) -> MemoryController:
        """Controller owning an address (uniform interleaving)."""
        return self.controllers[address_hash % len(self.controllers)]

    @property
    def nodes(self) -> list[int]:
        """Mesh nodes hosting a memory controller."""
        return [mc.node for mc in self.controllers]
