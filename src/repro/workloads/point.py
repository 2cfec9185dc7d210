"""Sweep executor for ``kind="workload"`` points.

Imported lazily by :mod:`repro.experiments.runner` (mirrors the fault
executor): workload-free sweeps never load this package.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.experiments.common import open_loop_columns
from repro.noc.config import SYNTHETIC_PACKET_BITS, NocConfig
from repro.noc.multinoc import FabricReport, MultiNocFabric
from repro.noc.simulator import SimulationPhases, run_open_loop
from repro.perf import meters
from repro.workloads.spec import make_workload_source, parse_workload_spec

__all__ = ["run_serving_point", "report_digest", "sleep_fractions"]


def report_digest(report: FabricReport) -> str:
    """Canonical sha256 of a fabric report.

    The digest covers the full report — config, cycles, activity
    counters, gating stats, latency/throughput metrics, and per-tenant
    QoS — serialized deterministically, so byte-identical simulations
    (jobs=1 vs jobs=N, dense vs skip) produce the identical hex string
    and any divergence is detectable with one comparison.
    """
    payload = json.dumps(asdict(report), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def sleep_fractions(report: FabricReport) -> list[float]:
    """Per-subnet fraction of router-cycles spent asleep."""
    return [
        stats.sleep_cycles / stats.total_cycles
        if stats.total_cycles
        else 0.0
        for stats in report.gating
    ]


def run_serving_point(
    config: NocConfig,
    workload: str,
    phases: SimulationPhases,
    seed: int,
    packet_bits: int = SYNTHETIC_PACKET_BITS,
) -> dict:
    """One (config, workload) open-loop serving measurement row.

    The row carries the standard synthetic columns plus ``tenants``
    (per-tenant QoS from ``FabricReport.tenants``) and ``sleep_frac``
    (per-subnet sleep fraction), which the obs rollup joins into
    campaign reports.
    """
    spec = parse_workload_spec(workload)
    fabric = MultiNocFabric(config, seed=seed)
    source = make_workload_source(
        fabric, spec, seed=seed, packet_bits=packet_bits
    )
    report = run_open_loop(fabric, source, phases)
    meters.note_report(report)
    return {
        **open_loop_columns(report),
        "workload": spec.kind,
        "workload_spec": spec.to_text(),
        "load": report.offered_rate,
        "tenants": report.tenants,
        "sleep_frac": sleep_fractions(report),
    }
