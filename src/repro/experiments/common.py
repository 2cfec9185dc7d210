"""Shared experiment infrastructure.

Every figure/table driver is a pure function returning an
:class:`ExperimentResult` — a list of row dicts plus formatting — so
tests, benchmarks, and examples all run the same code path.

All drivers accept a ``scale`` factor that shrinks simulated cycle
counts proportionally (benches use ``scale < 1`` for quick runs; the
recorded EXPERIMENTS.md numbers use the default scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.config import SYNTHETIC_PACKET_BITS, NocConfig
from repro.noc.multinoc import FabricReport, MultiNocFabric
from repro.noc.simulator import SimulationPhases, run_open_loop
from repro.perf import meters
from repro.power.network_power import (
    NetworkPowerBreakdown,
    compute_network_power,
)
from repro.system.processor import Processor, SystemResult
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern
from repro.util import env
from repro.util.tables import format_table

__all__ = [
    "ExperimentResult",
    "env_scale",
    "synthetic_phases",
    "report_columns",
    "open_loop_columns",
    "run_synthetic_point",
    "run_application_point",
    "DEFAULT_SEED",
    "APPLICATION_CYCLES",
]

DEFAULT_SEED = 42

#: Cycles simulated per closed-loop application run at scale 1.0.
APPLICATION_CYCLES = 12_000


@dataclass
class ExperimentResult:
    """Rows of one regenerated figure or table."""

    name: str
    title: str
    rows: list[dict] = field(default_factory=list)
    columns: list[str] | None = None
    notes: str = ""

    def to_table(self, precision: int = 3) -> str:
        """Render the rows as an aligned text table."""
        table = format_table(
            self.rows, self.columns, f"{self.name}: {self.title}", precision
        )
        if self.notes:
            table += f"\n-- {self.notes}"
        return table

    def column(self, key: str) -> list:
        """Extract one column across all rows."""
        return [row[key] for row in self.rows]

    def select(self, **criteria) -> list[dict]:
        """Rows matching all of the given column values."""
        return [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in criteria.items())
        ]

    def to_chart(
        self,
        x: str,
        y: str,
        group: str,
        height: int = 12,
        width: int = 60,
        **criteria,
    ) -> str:
        """Render ``y`` vs ``x``, one line per distinct ``group`` value.

        ``criteria`` pre-filters rows (e.g. ``pattern="uniform"``).
        Rows of every group must share the same x grid; a group missing
        any x value raises :class:`ValueError` (silently substituting a
        neighbouring point would plot a fabricated line segment).
        """
        from repro.util.ascii_plot import line_chart

        rows = (
            [
                row
                for row in self.rows
                if all(row.get(k) == v for k, v in criteria.items())
            ]
            if criteria
            else self.rows
        )
        groups: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            groups.setdefault(str(row[group]), []).append(
                (row[x], row[y])
            )
        if not groups:
            return f"{self.name}: (no rows match)"
        xs = sorted({pt[0] for pts in groups.values() for pt in pts})
        series = {}
        for name, points in groups.items():
            lookup = dict(points)
            missing = [xv for xv in xs if xv not in lookup]
            if missing:
                raise ValueError(
                    f"{self.name}: group {name!r} has no row at "
                    f"{x}={missing[0]!r}; all groups must share the "
                    f"same x grid"
                )
            series[name] = [lookup[xv] for xv in xs]
        return line_chart(
            xs, series, height=height, width=width,
            title=f"{self.name}: {y} vs {x}",
        )


def env_scale(default: float = 1.0) -> float:
    """Experiment scale factor from ``REPRO_SCALE`` (default 1.0)."""
    value = env.raw("REPRO_SCALE")
    if value is None:
        return default
    scale = float(value)
    if scale <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    return scale


def synthetic_phases(scale: float = 1.0) -> SimulationPhases:
    """Standard open-loop phases, scaled."""
    return SimulationPhases(warmup=800, measure=2600, cooldown=600).scaled(
        scale
    )


def report_columns(
    report: FabricReport, power: NetworkPowerBreakdown
) -> dict:
    """The columns every measured row carries: the design, its CSC
    share and power, and the per-subnet and latency distributions."""
    config = report.config
    return {
        "config": config.name,
        "policy": config.selection_policy,
        "csc_pct": 100.0 * report.csc_fraction,
        "power_w": power.total_watts,
        "dynamic_w": power.dynamic_watts,
        "static_w": power.static_watts,
        "subnet_share": list(report.subnet_injection_share),
        "latency_p50": report.latency_p50,
        "latency_p95": report.latency_p95,
        "latency_p99": report.latency_p99,
        "avg_hops_per_subnet": list(report.avg_hops_per_subnet),
    }


def open_loop_columns(report: FabricReport) -> dict:
    """:func:`report_columns` plus the measured-window latency and
    throughput of an open-loop (:func:`run_open_loop`) report."""
    return {
        **report_columns(report, compute_network_power(report)),
        "latency": report.avg_packet_latency,
        "network_latency": report.avg_network_latency,
        "throughput": report.throughput_packets,
        "throughput_flits": report.throughput_flits,
    }


def run_synthetic_point(
    config: NocConfig,
    pattern_name: str,
    load: float,
    phases: SimulationPhases,
    seed: int = DEFAULT_SEED,
    packet_bits: int = SYNTHETIC_PACKET_BITS,
) -> dict:
    """One (config, pattern, load) synthetic measurement row."""
    fabric = MultiNocFabric(config, seed=seed)
    pattern = make_pattern(pattern_name, fabric.mesh)
    source = SyntheticTrafficSource(
        fabric, pattern, load, packet_bits, seed=seed
    )
    report = run_open_loop(fabric, source, phases)
    meters.note_report(report)
    return {
        **open_loop_columns(report),
        "metric": config.congestion.metric,
        "pattern": pattern_name,
        "load": load,
    }


def run_application_point(
    config: NocConfig,
    workload_name: str,
    cycles: int,
    seed: int = DEFAULT_SEED,
) -> tuple[dict, SystemResult, NetworkPowerBreakdown]:
    """One (config, workload) closed-loop measurement row."""
    processor = Processor(config, workload_name, seed=seed)
    result = processor.run(cycles)
    meters.note_report(result.fabric_report)
    power = compute_network_power(result.fabric_report)
    row = {
        **report_columns(result.fabric_report, power),
        "workload": workload_name,
        "ipc": result.aggregate_ipc,
        "miss_latency": result.avg_miss_latency,
    }
    return row, result, power
