"""Ledger replay and live status rendering for ``repro.obs``.

A ledger is an append-only event log, so "what is this campaign doing
right now" is a pure fold: :func:`replay` reduces the events seen so
far into a :class:`RunState`, and :func:`render_status` turns one state
into the text block the ``status`` subcommand prints.  Because
:func:`repro.obs.ledger.read_ledger` tolerates the partial trailing
line of a file another process is still appending to, ``status
--follow`` can re-read and re-render in a loop against a live sweep
with no coordination beyond the filesystem.

Run directories are resolved by :func:`resolve_run`: an explicit path,
an exact run-directory name, a unique run-id prefix, or — with no
reference at all — the most recently modified run under the obs root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.ledger import LEDGER_NAME, read_ledger
from repro.perf.meters import throughput_suffix
from repro.util.ascii_plot import sparkline
from repro.util.tables import format_table

__all__ = [
    "RunState",
    "WorkerState",
    "replay",
    "render_status",
    "render_ls",
    "resolve_run",
    "list_runs",
]

#: Sparkline window: the most recent N per-point throughput samples.
_SPARK_WINDOW = 32


@dataclass
class WorkerState:
    """Accumulated heartbeat record for one worker pid."""

    pid: int
    points: int = 0
    cycles: int = 0
    flits: int = 0
    busy_seconds: float = 0.0


@dataclass
class RunState:
    """Everything ``status`` renders, folded from ledger events."""

    run_id: str = ""
    total: int = 0
    jobs: int = 0
    cache: bool = False
    done: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    finished: bool = False
    digest: str | None = None
    retried: int = 0
    exec_seconds: float = 0.0
    sim_cycles: int = 0
    sim_flits: int = 0
    wall_seconds: float = 0.0
    artifacts: int = 0
    workers: dict[int, WorkerState] = field(default_factory=dict)
    #: Per executed point: (cycles/s, flits/s), ledger order.
    rates: list[tuple[float, float]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    spec_index: list[dict[str, Any]] = field(default_factory=list)
    #: Describe strings of failed points, ledger order.
    failures: list[str] = field(default_factory=list)


def replay(
    events: list[dict[str, Any]],
    warnings: list[str] | None = None,
) -> RunState:
    """Fold ledger ``events`` into the current :class:`RunState`."""
    state = RunState(warnings=list(warnings or []))
    describe: dict[int, str] = {}
    for event in events:
        kind = event.get("event")
        if kind == "sweep_started":
            state.run_id = str(event.get("run_id", ""))
            state.total = _as_int(event.get("total"))
            state.jobs = _as_int(event.get("jobs"))
            state.cache = bool(event.get("cache"))
            index = event.get("spec_index")
            if isinstance(index, list):
                state.spec_index = [
                    entry for entry in index if isinstance(entry, dict)
                ]
                for entry in state.spec_index:
                    describe[_as_int(entry.get("index"))] = str(
                        entry.get("describe", "")
                    )
        elif kind == "cache_hit":
            state.done += 1
            state.cache_hits += 1
        elif kind == "point_finished":
            state.done += 1
            state.executed += 1
            state.exec_seconds += _as_float(event.get("elapsed"))
            artifacts = event.get("artifacts")
            if isinstance(artifacts, list):
                state.artifacts += len(artifacts)
        elif kind == "heartbeat":
            pid = _as_int(event.get("pid"))
            worker = state.workers.setdefault(pid, WorkerState(pid))
            cycles = _as_int(event.get("cycles"))
            flits = _as_int(event.get("flits"))
            elapsed = _as_float(event.get("elapsed"))
            worker.points += 1
            worker.cycles += cycles
            worker.flits += flits
            worker.busy_seconds += elapsed
            state.sim_cycles += cycles
            state.sim_flits += flits
            if elapsed > 0:
                state.rates.append(
                    (cycles / elapsed, flits / elapsed)
                )
        elif kind == "point_failed":
            state.done += 1
            state.failed += 1
            index = _as_int(event.get("index"))
            label = describe.get(index, f"point {index}")
            state.failures.append(
                f"{label}: {event.get('error', '?')}"
            )
        elif kind == "sweep_finished":
            state.finished = True
            digest = event.get("digest")
            state.digest = digest if isinstance(digest, str) else None
            stats = event.get("stats")
            if isinstance(stats, dict):
                state.retried = _as_int(stats.get("retried_points"))
                state.wall_seconds = _as_float(
                    stats.get("wall_seconds")
                )
    return state


def render_status(state: RunState) -> str:
    """The ``status`` text block for one replayed run state."""
    lines: list[str] = []
    phase = "finished" if state.finished else "running"
    lines.append(
        f"run {state.run_id or '?'} [{phase}] "
        f"jobs={state.jobs} cache={'on' if state.cache else 'off'}"
    )
    lines.append(
        f"  progress: {state.done}/{state.total} points "
        f"{_bar(state.done, state.total)}"
    )
    ratio = (
        f" ({100.0 * state.cache_hits / state.done:.0f}%)"
        if state.done
        else ""
    )
    lines.append(
        f"  cache:    {state.cache_hits} hits / "
        f"{state.executed} simulated{ratio}"
    )
    if state.failed or state.retried:
        lines.append(
            f"  failures: {state.failed} failed, "
            f"{state.retried} retried"
        )
        for failure in state.failures:
            lines.append(f"    - {failure}")
    seconds = (
        state.wall_seconds if state.finished else state.exec_seconds
    )
    rates = throughput_suffix(
        state.sim_cycles, state.sim_flits, seconds
    )
    if rates:
        lines.append(f"  rate:     {rates}")
    window = state.rates[-_SPARK_WINDOW:]
    if window:
        lines.append(
            f"  cycles/s: {sparkline([c for c, _ in window])}"
        )
        lines.append(
            f"  flits/s:  {sparkline([f for _, f in window])}"
        )
    if state.artifacts:
        lines.append(f"  artifacts: {state.artifacts} recorded")
    if state.workers:
        busiest = max(
            w.busy_seconds for w in state.workers.values()
        )
        for pid in sorted(state.workers):
            worker = state.workers[pid]
            share = (
                worker.busy_seconds / busiest if busiest > 0 else 0.0
            )
            lines.append(
                f"  worker {pid}: {worker.points} points, "
                f"{worker.busy_seconds:.2f}s busy "
                f"{_meter(share)}"
            )
    if state.finished and state.digest:
        lines.append(f"  digest:   {state.digest}")
    for warning in state.warnings:
        lines.append(f"  warning:  {warning}")
    return "\n".join(lines)


def list_runs(root: "Path | str") -> list[dict[str, object]]:
    """One summary row per run directory under ``root``.

    Sorted by ledger modification time (oldest first) so the listing
    reads chronologically; rows degrade gracefully for damaged runs.
    """
    base = Path(root)
    stamped: list[tuple[float, Path]] = []
    try:
        children = sorted(base.iterdir())
    except OSError:
        return []
    for child in children:
        ledger = child / LEDGER_NAME
        if not ledger.is_file():
            continue
        try:
            stamp = ledger.stat().st_mtime
        except OSError:
            stamp = 0.0
        stamped.append((stamp, child))
    rows: list[dict[str, object]] = []
    for _, child in sorted(stamped, key=lambda item: item[0]):
        events, warnings = read_ledger(child / LEDGER_NAME)
        state = replay(events, warnings)
        rows.append(
            {
                "run": child.name,
                "points": f"{state.done}/{state.total}",
                "failed": state.failed,
                "cached": state.cache_hits,
                "status": "finished" if state.finished else "running",
                "digest": (state.digest or "")[:12],
            }
        )
    return rows


def render_ls(root: "Path | str") -> str:
    """The ``ls`` table for every run recorded under ``root``."""
    rows = list_runs(root)
    if not rows:
        return f"no runs under {root}"
    return format_table(
        rows,
        columns=[
            "run",
            "points",
            "failed",
            "cached",
            "status",
            "digest",
        ],
        title=f"recorded runs ({root})",
    )


def resolve_run(ref: str | None, root: "Path | str") -> Path | None:
    """Locate a run directory from a user-supplied reference.

    Accepts, in order of precedence: a filesystem path (to a run
    directory or directly to a ``ledger.jsonl``), an exact run
    directory name under ``root``, a unique name prefix (run-ids are
    hex prefixes of the spec digest hash, so ``catnap obs status
    68dfd8`` works), or ``None`` for the most recently written run.
    Returns ``None`` when nothing (or nothing unambiguous) matches.
    """
    base = Path(root)
    if ref:
        as_path = Path(ref)
        if as_path.is_file() and as_path.name == LEDGER_NAME:
            return as_path.parent
        if as_path.is_dir() and (as_path / LEDGER_NAME).is_file():
            return as_path
        exact = base / ref
        if (exact / LEDGER_NAME).is_file():
            return exact
        matches = [
            child
            for child in sorted(base.glob(f"{ref}*"))
            if (child / LEDGER_NAME).is_file()
        ]
        return matches[0] if len(matches) == 1 else None
    latest: Path | None = None
    latest_stamp = float("-inf")
    try:
        children = sorted(base.iterdir())
    except OSError:
        return None
    for child in children:
        ledger = child / LEDGER_NAME
        if not ledger.is_file():
            continue
        try:
            stamp = ledger.stat().st_mtime
        except OSError:
            continue
        if stamp > latest_stamp:
            latest_stamp = stamp
            latest = child
    return latest


def _bar(done: int, total: int, width: int = 20) -> str:
    """``#`` progress bar, e.g. ``[#####---------------] 25%``."""
    if total <= 0:
        return "[" + "-" * width + "]"
    filled = round(width * min(done, total) / total)
    pct = 100.0 * min(done, total) / total
    return "[" + "#" * filled + "-" * (width - filled) + f"] {pct:.0f}%"


def _meter(share: float, width: int = 10) -> str:
    """Relative-utilization meter for the worker lines."""
    filled = round(width * max(0.0, min(1.0, share)))
    return "|" + "#" * filled + "-" * (width - filled) + "|"


def _as_int(value: object) -> int:
    return value if isinstance(value, int) else 0


def _as_float(value: object) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    return 0.0
