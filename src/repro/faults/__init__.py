"""Deterministic fault injection and recovery for the Catnap simulator.

The package follows the repository's observer contract: a
:class:`~repro.faults.engine.FaultEngine` attaches to one fabric by
shadowing a handful of methods with per-instance attributes, so a
fabric without an engine runs unmodified class bytecode — zero
overhead when off.  ``REPRO_FAULTS=<spec>`` (or ``--faults`` on the
experiment CLI) attaches an engine at fabric construction; campaigns
attach explicit engines per sweep point instead.

Modules
-------
``spec``
    Declarative :class:`FaultSpec`, the ``REPRO_FAULTS`` grammar, and
    the deterministic schedule compiler.
``engine``
    The injection engine: per-instance taps, accounting ledgers, the
    canonical event log, and recovery scheduling.
``recovery``
    :class:`RecoveryConfig` — which countermeasures run, and their
    timeouts/periods.
``report``
    :class:`FaultReport` — end-of-run resilience metrics.
``campaign``
    Grid driver over :func:`repro.experiments.runner.run_sweep`; also
    ``python -m repro.faults campaign``.

See ``docs/faults.md`` for the full model.
"""

from repro.faults.engine import FaultEngine
from repro.faults.recovery import RecoveryConfig
from repro.faults.report import FaultReport
from repro.faults.spec import (
    BLOCKING_CLASSES,
    FAULT_CLASSES,
    RECOVERY_NAMES,
    WINDOWED_CLASSES,
    FaultEvent,
    FaultSpec,
    compile_schedule,
    parse_fault_spec,
)

__all__ = [
    "BLOCKING_CLASSES",
    "FAULT_CLASSES",
    "RECOVERY_NAMES",
    "WINDOWED_CLASSES",
    "FaultEngine",
    "FaultEvent",
    "FaultReport",
    "FaultSpec",
    "RecoveryConfig",
    "compile_schedule",
    "parse_fault_spec",
]
