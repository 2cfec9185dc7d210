"""Closed-loop 256-core processor simulation (paper Table 1).

``Processor`` couples the event-driven cores, the MESI directory
engine, the memory controllers, and the cycle-level NoC fabric into the
closed loop the paper simulates: cores issue misses at their
benchmark's MPKI, every miss becomes coherence traffic through the
network, and cores stall when their window fills behind outstanding
misses — so network congestion feeds back into core performance.

System performance is the aggregate IPC, normalized by experiments to
the 1NT-512b no-power-gating baseline ("Normalized System
Performance" in Figures 2 and 8).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.noc.config import NocConfig
from repro.noc.multinoc import FabricReport, MultiNocFabric
from repro.system.coherence import (
    CoherenceEngine,
    CoherenceParams,
    Transaction,
)
from repro.system.core import CoreModel
from repro.system.memory import MemorySystem
from repro.system.workloads import WorkloadSpec, workload

__all__ = ["Processor", "SystemResult"]


@dataclass
class SystemResult:
    """Outcome of one closed-loop processor run."""

    config_name: str
    workload_name: str
    cycles: int
    aggregate_ipc: float
    avg_miss_latency: float
    transactions_completed: int
    control_fraction: float
    fabric_report: FabricReport


class Processor:
    """A many-core processor driving one NoC fabric configuration."""

    def __init__(
        self,
        config: NocConfig,
        spec: WorkloadSpec | str,
        seed: int = 3,
        params: CoherenceParams | None = None,
        mlp_limit: int = 16,
        issue_width: int = 2,
    ) -> None:
        if isinstance(spec, str):
            spec = workload(spec, config.num_cores)
        if spec.num_cores != config.num_cores:
            raise ValueError(
                f"workload has {spec.num_cores} cores but the fabric "
                f"serves {config.num_cores}"
            )
        self.config = config
        self.spec = spec
        self.fabric = MultiNocFabric(config, seed=seed)
        self.memory = MemorySystem(self.fabric.mesh)
        self.params = params or CoherenceParams()
        self.engine = CoherenceEngine(
            self.fabric,
            self.memory,
            self.params,
            self._on_transaction_complete,
            seed=seed,
        )
        self.cores = [
            CoreModel(
                core_id,
                spec.core_mpki(core_id),
                mlp_limit=mlp_limit,
                issue_width=issue_width,
                seed=seed,
            )
            for core_id in range(spec.num_cores)
        ]
        self._miss_heap: list[tuple[int, int]] = [
            (core.next_miss_cycle, core.core_id) for core in self.cores
        ]
        heapq.heapify(self._miss_heap)
        # Window-fill checks: (cycle, core_id); lazily revalidated.
        self._stall_heap: list[tuple[int, int]] = []
        self._miss_latency_sum = 0
        self._miss_latency_samples = 0
        self.cycles_run = 0

    # ------------------------------------------------------------------
    # Closed-loop callbacks
    # ------------------------------------------------------------------
    def _on_transaction_complete(self, txn: Transaction, cycle: int) -> None:
        core = self.cores[txn.core_id]
        resumed = core.complete(txn.token, cycle)
        self._miss_latency_sum += cycle - txn.start_cycle
        self._miss_latency_samples += 1
        if resumed:
            heapq.heappush(
                self._miss_heap, (core.next_miss_cycle, core.core_id)
            )
        if not core.is_blocked:
            # The window-fill deadline moved to the new oldest miss.
            self._schedule_stall_check(core)

    def _schedule_stall_check(self, core) -> None:
        check = core.stall_check_cycle()
        if check is not None:
            heapq.heappush(self._stall_heap, (check, core.core_id))

    def _fire_due_misses(self, cycle: int) -> None:
        stall_heap = self._stall_heap
        cores = self.cores
        while stall_heap and stall_heap[0][0] <= cycle:
            _, core_id = heapq.heappop(stall_heap)
            core = cores[core_id]
            core.check_stall(cycle)
            if not core.is_blocked:
                # Stale check (the blocking miss completed in time);
                # re-arm for the current oldest miss, if any.
                check = core.stall_check_cycle()
                if check is not None and check > cycle:
                    heapq.heappush(stall_heap, (check, core_id))
        heap = self._miss_heap
        while heap and heap[0][0] <= cycle:
            due, core_id = heapq.heappop(heap)
            core = cores[core_id]
            # Lazy invalidation: skip stale entries (the core rescheduled
            # or is currently stalled).
            if core.is_blocked or core.next_miss_cycle != due:
                continue
            token = core.issue_miss(cycle)
            txn = Transaction(
                core_id=core_id,
                node=self.fabric.mesh.tile_node(core_id),
                start_cycle=cycle,
                token=token,
            )
            self.engine.start_transaction(txn, cycle)
            if not core.is_blocked:
                heapq.heappush(heap, (core.next_miss_cycle, core_id))
            self._schedule_stall_check(core)

    # ------------------------------------------------------------------
    # Traffic-source protocol (driven by the fabric's backend)
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Run the coherence events and core misses due at ``cycle``."""
        self.engine.process_due(cycle)
        self._fire_due_misses(cycle)

    def next_offer_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` at which :meth:`step` may act.

        The minimum head of the coherence event queue and the miss and
        stall heaps.  Stale heap entries (lazily invalidated) can only
        make this horizon early, never late, so the skip backend may
        jump to it safely.
        """
        horizon = self.engine.next_event_cycle()
        for heap in (self._miss_heap, self._stall_heap):
            if heap and heap[0][0] < horizon:
                horizon = heap[0][0]
        return horizon if horizon > cycle else cycle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cycles: int) -> SystemResult:
        """Simulate ``cycles`` processor cycles and return the result."""
        fabric = self.fabric
        engine = self.engine
        fabric.stats.begin_measurement(fabric.cycle)
        fabric.backend.run(cycles, self)
        fabric.stats.end_measurement(fabric.cycle)
        self.cycles_run += cycles
        for core in self.cores:
            core.finalize(fabric.cycle)
        total_ipc = sum(
            core.ipc(self.cycles_run) for core in self.cores
        )
        avg_miss_latency = (
            self._miss_latency_sum / self._miss_latency_samples
            if self._miss_latency_samples
            else 0.0
        )
        return SystemResult(
            config_name=self.config.name,
            workload_name=self.spec.name,
            cycles=self.cycles_run,
            aggregate_ipc=total_ipc,
            avg_miss_latency=avg_miss_latency,
            transactions_completed=engine.transactions_completed,
            control_fraction=engine.control_fraction,
            fabric_report=fabric.report(),
        )
