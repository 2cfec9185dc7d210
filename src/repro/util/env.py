"""The central registry of ``REPRO_*`` environment variables.

Every environment variable the simulator consumes is declared here —
name, type, default, and the documentation page that defines it — and
every *read* anywhere in ``src/repro`` must go through the typed
helpers in this module.  That single-choke-point rule is enforced
statically by the ``SIM104`` contract check (``python -m
repro.analysis contracts``, see ``docs/analysis.md``): a raw
``os.environ.get("REPRO_...")`` outside this module, an unregistered
name, or a registry/doc mismatch against ``docs/index.md`` is a lint
failure, so a new knob cannot ship half-documented.

Nothing in ``src/repro`` writes ``os.environ``; SIM104 fails any
store, ``del`` or mutating call.  Run policy (kernel, layers, jobs,
cache) is parsed once by :meth:`repro.noc.layers.RunOptions.from_env`
and handed to sweep workers as data.

Reads happen at call time, never at import time, so tests may set
variables between fabric constructions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EnvVar",
    "REGISTRY",
    "registered_names",
    "raw",
    "text",
    "flag",
    "integer",
    "floating",
]


@dataclass(frozen=True)
class EnvVar:
    """One registered environment variable.

    ``kind`` is advisory metadata for docs and tooling ("flag",
    "text", "int", "float", "path", "spec"); ``doc_page`` is the
    ``docs/`` page that defines the variable (SIM104 cross-checks the
    ``docs/index.md`` table against it).
    """

    name: str
    kind: str
    default: str
    doc_page: str
    description: str


#: Every known variable, keyed by name.  Populated by the module-level
#: ``EnvVar`` declarations below; SIM104 extracts the same names
#: statically from this file's AST.
REGISTRY: dict[str, EnvVar] = {}


def _register(var: EnvVar) -> EnvVar:
    if var.name in REGISTRY:
        raise ValueError(f"duplicate env-var registration: {var.name}")
    REGISTRY[var.name] = var
    return var


# -- simulation kernel -------------------------------------------------
_register(EnvVar(
    "REPRO_BACKEND", "text", "dense", "architecture.md",
    "time-loop kernel for every fabric: dense (default) or skip",
))

# -- experiment pipeline -----------------------------------------------
_register(EnvVar(
    "REPRO_SCALE", "float", "1.0", "experiments.md",
    "global cycle-count scale factor for experiment drivers",
))
_register(EnvVar(
    "REPRO_JOBS", "int", "<all cores>", "experiments.md",
    "sweep worker-pool size (1 disables multiprocessing)",
))
_register(EnvVar(
    "REPRO_NO_CACHE", "flag", "unset", "experiments.md",
    "disable the on-disk sweep result cache",
))
_register(EnvVar(
    "REPRO_CACHE_DIR", "path", "results/.cache", "experiments.md",
    "directory of the content-hashed sweep result cache",
))

# -- runtime invariant checker -----------------------------------------
_register(EnvVar(
    "REPRO_CHECK", "flag", "unset", "analysis.md",
    "attach the runtime invariant checker to every fabric",
))
_register(EnvVar(
    "REPRO_CHECK_INTERVAL", "int", "1", "analysis.md",
    "check every N-th cycle (laws hold at every cycle boundary)",
))

# -- fault injection ---------------------------------------------------
_register(EnvVar(
    "REPRO_FAULTS", "spec", "unset", "faults.md",
    "fault-injection spec (rate=...;classes=...;seed=...)",
))

# -- telemetry ---------------------------------------------------------
_register(EnvVar(
    "REPRO_TELEMETRY", "flag", "unset", "telemetry.md",
    "attach the telemetry hub to every fabric",
))
_register(EnvVar(
    "REPRO_TELEMETRY_DIR", "path", "results/telemetry", "telemetry.md",
    "telemetry artifact output directory",
))
_register(EnvVar(
    "REPRO_TELEMETRY_PERIOD", "int", "64", "telemetry.md",
    "time-series sampling period in cycles",
))

# -- attribution -------------------------------------------------------
_register(EnvVar(
    "REPRO_EXPLAIN", "spec", "unset", "explain.md",
    "attach the attribution hub: 1 (both), latency, or energy",
))
_register(EnvVar(
    "REPRO_EXPLAIN_DIR", "path", "results/explain", "explain.md",
    "attribution artifact output directory",
))

# -- simulator self-profiling ------------------------------------------
_register(EnvVar(
    "REPRO_PERF", "flag", "unset", "perf.md",
    "attach the phase profiler to every fabric",
))
_register(EnvVar(
    "REPRO_PERF_DIR", "path", "results/perf", "perf.md",
    "profile artifact output directory",
))
_register(EnvVar(
    "REPRO_PERF_CPROFILE", "flag", "unset", "perf.md",
    "additionally capture a deterministic cProfile per step",
))

# -- campaign observability --------------------------------------------
_register(EnvVar(
    "REPRO_OBS", "flag", "unset", "obs.md",
    "attach the run-ledger observer to every sweep",
))
_register(EnvVar(
    "REPRO_OBS_DIR", "path", "results/obs", "obs.md",
    "run-ledger output directory (one subdirectory per run)",
))

# -- serving workloads -------------------------------------------------
_register(EnvVar(
    "REPRO_WORKLOADS", "spec", "tenants:rates=0.06,0.03,0.01",
    "workloads.md",
    "serving workload spec swept by ext_serving (kind:key=value;...)",
))
_register(EnvVar(
    "REPRO_WORKLOADS_DIR", "path", "results/workloads", "workloads.md",
    "default output directory for recorded streaming traces",
))

# -- benchmark harness -------------------------------------------------
_register(EnvVar(
    "REPRO_BENCH_SCALE", "float", "0.35", "perf.md",
    "cycle-count scale for the pytest benchmark harness",
))


def registered_names() -> tuple[str, ...]:
    """Every registered variable name, sorted."""
    return tuple(sorted(REGISTRY))


def _require(name: str) -> None:
    if name not in REGISTRY:
        raise KeyError(
            f"unregistered environment variable {name!r}; declare it in "
            "repro.util.env (and docs/index.md) first"
        )


def raw(name: str) -> str | None:
    """The raw value, or ``None`` when unset.

    The only helper that distinguishes *unset* from *empty* — use it
    when the default depends on the caller (e.g. ``REPRO_JOBS`` falls
    back to the core count).
    """
    _require(name)
    return os.environ.get(name)


def text(name: str, default: str = "") -> str:
    """The value as text; unset and empty both yield ``default``."""
    _require(name)
    return os.environ.get(name, "") or default


def flag(name: str) -> bool:
    """True when set to anything but ``""`` or ``"0"``.

    The shared on/off convention of every ``REPRO_*`` switch
    (``REPRO_CHECK``, ``REPRO_PERF``, ``REPRO_TELEMETRY``, ...).
    """
    _require(name)
    return os.environ.get(name, "") not in ("", "0")


def integer(name: str, default: int) -> int:
    """The value as an ``int``; unset and empty yield ``default``."""
    _require(name)
    value = os.environ.get(name, "")
    return int(value) if value else default


def floating(name: str, default: float) -> float:
    """The value as a ``float``; unset and empty yield ``default``."""
    _require(name)
    value = os.environ.get(name, "")
    return float(value) if value else default
