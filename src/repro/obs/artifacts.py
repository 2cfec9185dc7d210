"""Artifact naming and the artifact readers for the rollup.

The instrumentation layers with artifacts — telemetry
(``*.timeseries.json``, ``*.trace.json``, ``*.summary.txt``), perf
(``*.perf.json``, ``*.pstats``, ``*.folded.txt``) and explain
(``*.explain.json``) — drop per-point files into ``results/``
directories while a sweep runs; their suffixes live in the
:mod:`repro.noc.layers` registry.  Each point's
:class:`~repro.experiments.runner.PointResult` carries the paths its
layers flushed, which the run ledger records and
:class:`repro.obs.ledger.ArtifactObserver` prints;
:func:`next_flush_ref` keeps those paths distinct.

The module also holds the readers the campaign rollup
(:mod:`repro.obs.report`) uses to *join* a ledger with the artifacts
its points recorded.  Every reader degrades gracefully: a missing,
truncated, or schema-foreign file yields ``None``, never an exception,
because a rollup over an interrupted campaign must still render the
points that did complete.
"""

from __future__ import annotations

import json

from repro.noc.layers import LAYERS

__all__ = [
    "classify_artifact",
    "explain_tax",
    "next_flush_ref",
    "read_json_artifact",
    "sleep_fractions",
]

#: Suffix → artifact kind, over every layer's artifacts.
_KINDS: tuple[tuple[str, str], ...] = tuple(
    pair for layer in LAYERS for pair in layer.artifacts
)


#: Process-wide flush counts per artifact-stem prefix; see
#: :func:`next_flush_ref`.
_FLUSH_REFS: dict[str, int] = {}


def next_flush_ref(prefix: str) -> int:
    """Next free ``-r<n>`` suffix for ``prefix`` in this process.

    Telemetry hubs and phase profilers name their artifacts
    ``{config}-s{seed}-p{pid}-r{n}``.  The ``r`` counter must be
    process-wide, not per-writer-instance: a sweep probing two loads
    of one configuration builds two fabrics (each with its own hub or
    profiler) in the same process, and per-instance counters would
    both pick ``r0`` — the second flush silently overwriting the
    first's artifacts.  Forked pool workers inherit a copy of the
    table, but their pid lands in the prefix, so inherited entries are
    merely unused.
    """
    ref = _FLUSH_REFS.get(prefix, 0)
    _FLUSH_REFS[prefix] = ref + 1
    return ref


def classify_artifact(path: str) -> str:
    """Artifact kind for ``path`` (``"other"`` when unrecognized)."""
    for suffix, kind in _KINDS:
        if path.endswith(suffix):
            return kind
    return "other"


def read_json_artifact(path: str) -> dict[str, object] | None:
    """Parse a JSON artifact; ``None`` on any read or parse failure."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) else None


def sleep_fractions(path: str) -> list[float] | None:
    """Per-subnet sleep fraction from a ``*.timeseries.json`` artifact.

    The telemetry summary records exact per-subnet sleep cycles
    (reconciled against ``GatingStats``); dividing by routers-per-
    subnet × simulated cycles gives the fraction of router-cycles each
    subnet spent power-gated — the quantity the energy-proportionality
    rollup plots against offered load.  Returns ``None`` when the file
    is missing/corrupt or carries no usable occupancy data.
    """
    doc = read_json_artifact(path)
    if doc is None:
        return None
    summary = doc.get("summary")
    series = doc.get("series")
    if not isinstance(summary, dict) or not isinstance(series, dict):
        return None
    sleep_cycles = summary.get("sleep_cycles_by_subnet")
    cycles = summary.get("cycles")
    if not isinstance(sleep_cycles, list) or not isinstance(cycles, int):
        return None
    if cycles <= 0:
        return None
    routers = _routers_per_subnet(series)
    if routers is None or routers <= 0:
        return None
    fractions: list[float] = []
    for total in sleep_cycles:
        if not isinstance(total, (int, float)):
            return None
        fractions.append(float(total) / (routers * cycles))
    return fractions


def explain_tax(
    path: str,
) -> tuple[list[float | None], list[float | None]] | None:
    """Per-subnet attribution columns from a ``*.explain.json`` file.

    Returns ``(energy_per_flit_j, mean_wakeup_stall)`` lists indexed
    by subnet — the two columns the campaign rollup joins.  Entries
    are ``None`` when that decomposition was disabled or the subnet
    carried no flits; the whole result is ``None`` when the file is
    missing, corrupt, or schema-foreign.
    """
    doc = read_json_artifact(path)
    if doc is None or doc.get("schema") != "repro.explain/1":
        return None
    tax = doc.get("tax")
    if not isinstance(tax, dict):
        return None
    rows = tax.get("per_subnet")
    if not isinstance(rows, list) or not rows:
        return None
    per_flit: list[float | None] = []
    stall: list[float | None] = []
    for row in rows:
        if not isinstance(row, dict):
            return None
        energy = row.get("energy_per_flit_j")
        wakeup = row.get("mean_wakeup_stall")
        per_flit.append(
            float(energy) if isinstance(energy, (int, float)) else None
        )
        stall.append(
            float(wakeup) if isinstance(wakeup, (int, float)) else None
        )
    return per_flit, stall


def _routers_per_subnet(series: dict[str, object]) -> int | None:
    """Router count per subnet from the first occupancy sample."""
    subnets = series.get("subnets")
    if not isinstance(subnets, list) or not subnets:
        return None
    first = subnets[0]
    if not isinstance(first, dict):
        return None
    total = 0
    for key in ("active", "sleep", "wakeup"):
        column = first.get(key)
        if (
            not isinstance(column, list)
            or not column
            or not isinstance(column[0], int)
        ):
            return None
        total += column[0]
    return total
