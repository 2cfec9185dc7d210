"""Fault-injection campaigns over the sweep runner.

A campaign fans a (fault-class × fault-rate × countermeasure) grid over
:func:`repro.experiments.runner.run_sweep`: every grid cell is one
:meth:`PointSpec.fault` point — a synthetic-traffic simulation with an
explicitly attached :class:`~repro.faults.engine.FaultEngine` — so
campaigns inherit the sweep layer's worker pool, on-disk cache, and
progress observers for free.  Each cell runs twice, without and with
the recovery mechanisms enabled, which is the resilience experiment the
survival table summarizes: how much of the damage each countermeasure
buys back.

Determinism contract: the fault schedule is compiled from the spec's
own seed, so a campaign's rows — including each cell's event-log
SHA-256 — are byte-identical across runs and across ``--jobs 1`` vs.
``--jobs N`` (asserted in ``tests/test_faults.py``).
"""

from __future__ import annotations

from typing import Any

from repro.experiments.common import (
    DEFAULT_SEED,
    ExperimentResult,
    synthetic_phases,
)
from repro.experiments.runner import PointSpec, run_sweep
from repro.faults.engine import FaultEngine
from repro.faults.spec import RECOVERY_NAMES, FaultSpec, parse_fault_spec
from repro.noc.config import SYNTHETIC_PACKET_BITS, NocConfig
from repro.noc.multinoc import MultiNocFabric
from repro.noc.simulator import SimulationPhases, run_open_loop
from repro.perf import meters
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern

__all__ = [
    "DEFAULT_CLASSES",
    "DEFAULT_RATES",
    "campaign_config",
    "run_fault_point",
    "campaign_specs",
    "run_campaign",
    "render_campaign",
]

#: Default class grid: one representative of each fault family
#: (gating wake path, credit protocol, link datapath, congestion latch).
DEFAULT_CLASSES = ("drop-wakeup", "lost-credit", "drop-flit", "stuck-rcs-1")

#: Default per-cycle arming probabilities (three decades of stress).
DEFAULT_RATES = (0.001, 0.004, 0.016)


def campaign_config() -> NocConfig:
    """Default campaign fabric: gated 2-subnet 64-core Multi-NoC.

    Small enough that a full default grid runs in seconds, with power
    gating enabled so the wake-path fault classes have a target.
    """
    return NocConfig.mesh_64_core(num_subnets=2, power_gating=True)


def run_fault_point(
    config: NocConfig,
    pattern_name: str,
    load: float,
    phases: SimulationPhases,
    seed: int,
    faults: str,
    packet_bits: int = SYNTHETIC_PACKET_BITS,
) -> dict[str, Any]:
    """One (config, pattern, load, fault-spec) measurement row.

    The fault engine is attached *explicitly* from the point's own
    spec string, replacing any engine the fabric constructor attached
    from ``REPRO_FAULTS`` — a campaign point's faults are part of its
    cache identity and must not depend on ambient environment.  The
    swap keeps the engine in the faults position: a checker or
    telemetry hub attached from the environment still wraps it.
    """
    fabric = MultiNocFabric(config, seed=seed)
    engine = FaultEngine(fabric, parse_fault_spec(faults))
    fabric.swap_layer("faults", engine)
    pattern = make_pattern(pattern_name, fabric.mesh)
    source = SyntheticTrafficSource(
        fabric, pattern, load, packet_bits, seed=seed
    )
    sim_report = run_open_loop(fabric, source, phases)
    meters.note_report(sim_report)
    fault_report = engine.report()
    return {
        "config": config.name,
        "pattern": pattern_name,
        "load": load,
        "faults": faults,
        "latency": sim_report.avg_packet_latency,
        **fault_report.to_dict(),
    }


def campaign_specs(
    classes: tuple[str, ...] = DEFAULT_CLASSES,
    rates: tuple[float, ...] = DEFAULT_RATES,
    config: NocConfig | None = None,
    pattern: str = "uniform",
    load: float = 0.30,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    fault_seed: int = 1,
    window: int = 64,
) -> list[PointSpec]:
    """Build the campaign grid as pure sweep points.

    Every (class, rate) cell appears twice: unprotected, and with all
    recovery mechanisms enabled (the ``+rec`` variant).
    """
    if config is None:
        config = campaign_config()
    phases = synthetic_phases(scale)
    specs: list[PointSpec] = []
    for fault_class in classes:
        for rate in rates:
            for protected in (False, True):
                fault_spec = FaultSpec(
                    rate=rate,
                    classes=(fault_class,),
                    window=window,
                    start=0,
                    end=phases.total,
                    seed=fault_seed,
                    recover=RECOVERY_NAMES if protected else (),
                )
                specs.append(
                    PointSpec.fault(
                        config,
                        pattern,
                        load,
                        phases,
                        fault_spec.to_string(),
                        seed=seed,
                        fault_class=fault_class,
                        rate=rate,
                        protected=protected,
                        variant=fault_class + ("+rec" if protected else ""),
                    )
                )
    return specs


def run_campaign(
    classes: tuple[str, ...] = DEFAULT_CLASSES,
    rates: tuple[float, ...] = DEFAULT_RATES,
    config: NocConfig | None = None,
    pattern: str = "uniform",
    load: float = 0.30,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    fault_seed: int = 1,
    window: int = 64,
    jobs: int | None = None,
) -> ExperimentResult:
    """Execute the campaign grid and return its survival rows."""
    specs = campaign_specs(
        classes, rates, config, pattern, load, scale, seed, fault_seed,
        window,
    )
    rows = run_sweep(specs, jobs=jobs)
    return ExperimentResult(
        name="fault-campaign",
        title="packet survival under injected faults",
        rows=rows,
        columns=[
            "fault_class",
            "protected",
            "rate",
            "injected",
            "masked",
            "recovered",
            "effective",
            "fatal",
            "survival_rate",
            "latency",
        ],
        notes=(
            "survival = undamaged received / offered; '+rec' variants "
            "enable all countermeasures (wakeup-timeout, credit-resync, "
            "rcs-refresh)"
        ),
    )


def render_campaign(result: ExperimentResult) -> str:
    """Survival table plus an ASCII survival-vs-rate chart."""
    parts = [result.to_table(precision=4)]
    try:
        parts.append(
            result.to_chart(x="rate", y="survival_rate", group="variant")
        )
    except (KeyError, ValueError):  # single-rate grids have no curve
        pass
    return "\n\n".join(parts)
