"""The benchmark's three workloads, all on the paper's 4NT-128b-PG design.

Each workload knows how to make its sweep point (the unit the
benchmark times, run through ``execute_point`` exactly as a sweep
worker runs it), a tiny point of the same kind for warming up, and the
simulated system the point constructs (timed on its own as
``setup_s``).  Inputs derive only from the seed; the diurnal trace is
written to the benchmark's work directory before any timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from repro.experiments.runner import PointSpec
from repro.noc.config import NocConfig
from repro.noc.multinoc import MultiNocFabric
from repro.noc.simulator import SimulationPhases
from repro.system.processor import Processor
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern
from repro.workloads import cli as workloads_cli
from repro.workloads.spec import make_workload_source

__all__ = ["CONFIG", "WORKLOADS", "Workload"]

#: The paper's design: four 128-bit subnets, power gating, Catnap
#: subnet selection.
CONFIG = NocConfig.multi_noc(4, power_gating=True)

#: Phases of a tiny warm-up point (lazy imports and per-process
#: caches fill before anything is timed).
WARM_PHASES = SimulationPhases(warmup=10, measure=30, cooldown=10)


class Workload:
    """One workload bound to a seed."""

    name = "abstract"
    closed_loop = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def point(self) -> PointSpec:
        """The timed operation."""
        raise NotImplementedError

    def warm_point(self) -> PointSpec:
        """A short point that runs the same code as :meth:`point`."""
        raise NotImplementedError

    def build(self) -> object:
        """Construct the simulated system :meth:`point` builds."""
        raise NotImplementedError

    def canonical_rows(self, rows: list[dict]) -> list[dict]:
        """Rows as the digest sees them (identity by default)."""
        return rows

    @property
    def trace_path(self) -> Path | None:
        """Streaming trace the workload replays, if any."""
        return None


class UniformBusy(Workload):
    name = "uniform-busy"
    LOAD = 0.30
    PACKET_BITS = 512
    PHASES = SimulationPhases(warmup=100, measure=300, cooldown=100)

    def _point(self, phases: SimulationPhases) -> PointSpec:
        return PointSpec.synthetic(
            CONFIG,
            "uniform",
            self.LOAD,
            phases,
            seed=self.seed,
            packet_bits=self.PACKET_BITS,
        )

    def point(self) -> PointSpec:
        return self._point(self.PHASES)

    def warm_point(self) -> PointSpec:
        return self._point(WARM_PHASES)

    def build(self) -> object:
        fabric = MultiNocFabric(CONFIG, seed=self.seed)
        return SyntheticTrafficSource(
            fabric,
            make_pattern("uniform", fabric.mesh),
            self.LOAD,
            self.PACKET_BITS,
            seed=self.seed,
        )


class DiurnalReplay(Workload):
    name = "diurnal-replay"
    SPEC = "diurnal:base=0.08;cycles_per_hour=500"
    CYCLES = 24 * 500
    # Warm-up and measurement cover the day; the cooldown drains it
    # into an idle night.  The day's own zero-load hours (1000 cycles)
    # are shorter than the ~1160 cycles the NIs' injection-rate
    # averages need to decay, so the night is where the skip kernel
    # can jump (about 18% of cycles at seed 42).
    PHASES = SimulationPhases(warmup=500, measure=11_500, cooldown=4000)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._trace = workdir / f"diurnal-s{seed}.ctr"
        workdir.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            status = workloads_cli.main(
                [
                    "gen",
                    "--workload", self.SPEC,
                    "--config", "multi4",
                    "--cycles", str(self.CYCLES),
                    "--seed", str(seed),
                    "--out", str(self._trace),
                ]
            )
        if status != 0:
            raise RuntimeError(f"trace generation exited with {status}")
        self._sha256 = hashlib.sha256(self._trace.read_bytes()).hexdigest()

    @property
    def trace_path(self) -> Path:
        return self._trace

    def _point(self, phases: SimulationPhases) -> PointSpec:
        return PointSpec.serving(
            CONFIG, f"trace:{self._trace}", phases, seed=self.seed
        )

    def point(self) -> PointSpec:
        return self._point(self.PHASES)

    def warm_point(self) -> PointSpec:
        return self._point(WARM_PHASES)

    def build(self) -> object:
        fabric = MultiNocFabric(CONFIG, seed=self.seed)
        return make_workload_source(
            fabric, f"trace:{self._trace}", seed=self.seed
        )

    def canonical_rows(self, rows: list[dict]) -> list[dict]:
        # The row names the trace by path; name it by content instead,
        # so the digest is the same wherever the checkout lives.
        return [
            {**row, "workload_spec": f"trace:sha256={self._sha256}"}
            for row in rows
        ]


class ClosedLoopLight(Workload):
    name = "closed-loop-light"
    closed_loop = True
    MIX = "Light"
    CYCLES = 2000

    def point(self) -> PointSpec:
        return PointSpec.application(
            CONFIG, self.MIX, self.CYCLES, seed=self.seed
        )

    def warm_point(self) -> PointSpec:
        return PointSpec.application(CONFIG, self.MIX, 20, seed=self.seed)

    def build(self) -> object:
        return Processor(CONFIG, self.MIX, seed=self.seed)


#: Workload classes by name, in the order the README lists them; each
#: takes the seed and the directory for generated inputs.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (UniformBusy, DiurnalReplay, ClosedLoopLight)
}

