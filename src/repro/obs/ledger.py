"""The campaign run ledger: durable JSONL record of sweep execution.

:class:`LedgerObserver` plugs into the sweep observer chain
(:class:`repro.experiments.runner.SweepObserver`) and streams one JSON
object per line to ``<REPRO_OBS_DIR>/<run>/ledger.jsonl`` while the
sweep runs.  Event stream, in emission order::

    sweep_started   run identity, spec index, execution policy
    point_started   specs[i] entered the execution section
    cache_hit       specs[i] was served from the on-disk cache
    heartbeat       worker pid + (cycles, flits, elapsed) point delta
    point_finished  specs[i] executed; rows digest + its artifacts
    point_failed    specs[i] failed its run and the serial retry
    sweep_finished  SweepStats.to_json() + the canonical ledger digest

Three durability rules make the file tailable and crash-tolerant:

* appends are line-buffered — every event is one complete ``write()``
  of one line, so a concurrent reader sees only whole lines plus at
  most one partial trailing line (which :func:`read_ledger` skips);
* milestone events (``sweep_started``, ``point_failed``,
  ``sweep_finished``) are fsynced, so a crash can lose at most recent
  per-point chatter, never the run's identity or its failures;
* nothing in the *canonical* record depends on wall-clock or pids —
  run-ids come from the spec digests (the sweep's seeded determinism
  contract) and event ordering from spec indices, so a serial and a
  ``REPRO_JOBS=N`` run of the same sweep produce ledgers with the same
  :func:`canonical_digest` even though their raw event interleavings
  differ.

One observer instance may witness several sweeps (an experiment driver
can call ``run_sweep`` more than once); each sweep opens its own run
directory, suffixed ``-r<n>`` to keep repeated runs of the same sweep
distinct on disk.  See ``docs/obs.md`` for the schema table.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.experiments.runner import SweepObserver
from repro.util import env

if TYPE_CHECKING:
    from repro.experiments.runner import PointResult, PointSpec, SweepStats

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_NAME",
    "DEFAULT_DIR",
    "ArtifactObserver",
    "LedgerObserver",
    "ledger_enabled",
    "run_id_for",
    "canonical_digest",
    "read_ledger",
]

#: Event-schema version tag carried by every ``sweep_started`` event
#: (and shared with :meth:`repro.experiments.runner.SweepStats.to_json`).
LEDGER_SCHEMA = "repro.obs/1"

#: Ledger file name inside each run directory.
LEDGER_NAME = "ledger.jsonl"

#: Default run-ledger root (override with ``REPRO_OBS_DIR``).
DEFAULT_DIR = os.path.join("results", "obs")

#: Row keys copied from a point's first row into its ledger event —
#: the compact, join-ready subset the rollup needs (full rows live in
#: the sweep cache and the returned tables, not the ledger).
_ROW_SUMMARY_KEYS = (
    "load",
    "latency",
    "throughput",
    "power_w",
    "dynamic_w",
    "static_w",
    "csc_pct",
    "subnet_share",
    "survival_rate",
    "injected",
    "masked",
    "recovered",
    "effective",
    "fatal",
    "ipc",
    "tenants",
    "sleep_frac",
)


def ledger_enabled() -> bool:
    """True when ``REPRO_OBS`` asks for a run ledger on every sweep."""
    return env.flag("REPRO_OBS")


def default_dir() -> str:
    """Ledger root per environment (``REPRO_OBS_DIR``)."""
    return env.text("REPRO_OBS_DIR", DEFAULT_DIR)


def run_id_for(specs: "list[PointSpec]") -> str:
    """Deterministic run identity from the sweep's spec digests.

    Twelve hex chars of SHA-256 over the ordered spec digest list —
    the same seeded-determinism contract that makes rows byte-identical
    across ``jobs=1`` vs ``jobs=N`` makes this id identical too.
    Wall-clock never participates: rerunning the same sweep yields the
    same id (disambiguated on disk by the ``-r<n>`` directory suffix).
    """
    payload = json.dumps(
        {"schema": LEDGER_SCHEMA, "specs": [s.digest() for s in specs]},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _rows_digest(rows: list[dict[str, Any]]) -> str:
    """Content hash of a point's JSON-normalized rows."""
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def canonical_digest(events: "list[dict[str, Any]]") -> str | None:
    """Digest of the work a ledger records, independent of execution.

    Canonicalization keeps only what the seeded determinism contract
    pins — run identity, the spec digest list, each point's rows digest
    and outcome (ordered by spec index), and the failed index set — and
    drops everything execution-dependent: wall times, worker pids,
    cache hit/miss status (a hit records the same rows the miss
    computed), artifact paths (which embed pids), and raw event
    interleaving.  Serial, parallel, cold, and warm runs of one sweep
    therefore digest identically; returns ``None`` when the events
    contain no ``sweep_started`` header to canonicalize against.
    """
    header: dict[str, Any] | None = None
    points: dict[int, dict[str, Any]] = {}
    failed: set[int] = set()
    for event in events:
        kind = event.get("event")
        if kind == "sweep_started" and header is None:
            header = event
        elif kind in ("point_finished", "cache_hit"):
            index = event.get("index")
            if isinstance(index, int):
                points[index] = {
                    "index": index,
                    "spec": event.get("spec"),
                    "rows_digest": event.get("rows_digest"),
                    "ok": True,
                }
        elif kind == "point_failed":
            index = event.get("index")
            if isinstance(index, int):
                failed.add(index)
                points[index] = {
                    "index": index,
                    "spec": event.get("spec"),
                    "rows_digest": None,
                    "ok": False,
                }
    if header is None:
        return None
    canonical = {
        "schema": LEDGER_SCHEMA,
        "run_id": header.get("run_id"),
        "total": header.get("total"),
        "specs": header.get("specs"),
        "points": [points[i] for i in sorted(points)],
        "failed": sorted(failed),
    }
    payload = json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def read_ledger(
    path: "Path | str",
) -> tuple[list[dict[str, Any]], list[str]]:
    """Events plus warnings from a ledger file, crash-tolerantly.

    Corrupt lines are *skipped with a warning, never a crash* (the
    ledger mirror of :class:`~repro.experiments.runner.SweepCache`'s
    read-as-miss rule): a truncated trailing line — the normal state of
    a ledger another process is still writing — is tolerated silently,
    while an interior line that fails to parse, or a trailing corrupt
    line of a finished ledger, produces a warning naming its line
    number.  A missing file reads as no events plus one warning.
    """
    events: list[dict[str, Any]] = []
    warnings: list[str] = []
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        return [], [f"{path}: unreadable ({exc})"]
    text = data.decode("utf-8", errors="replace")
    complete_tail = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError:
            if number == len(lines) and not complete_tail:
                continue  # partial trailing line: writer still at work
            warnings.append(
                f"{path}: line {number}: corrupt event skipped"
            )
            continue
        if isinstance(event, dict):
            events.append(event)
        else:
            warnings.append(
                f"{path}: line {number}: non-object event skipped"
            )
    return events, warnings


class ArtifactObserver(SweepObserver):
    """Announces each finished point's artifacts, one
    ``  <layer>: <path>`` line per file its layers flushed.

    Layers attach inside sweep worker processes, so the parent never
    sees them; their flushed paths arrive in
    :attr:`~repro.experiments.runner.PointResult.artifacts`, grouped
    in layer order.
    """

    def __init__(self, stream: "IO[str] | None" = None) -> None:
        self.stream: IO[str] = (
            stream if stream is not None else sys.stderr
        )
        #: Every artifact path reported so far, in report order.
        self.reported: list[str] = []

    def point_finished(self, spec: "PointSpec", result: "PointResult") -> None:
        for layer, path in result.artifacts:
            self.reported.append(path)
            print(f"  {layer}: {path}", file=self.stream)


class LedgerObserver(SweepObserver):
    """Sweep observer that writes one run ledger per observed sweep."""

    def __init__(
        self,
        root: "Path | str | None" = None,
        stream: "IO[str] | None" = None,
    ) -> None:
        self.root = Path(root) if root is not None else Path(default_dir())
        self.stream: IO[str] = (
            stream if stream is not None else sys.stderr
        )
        #: Run directories this observer has opened, in order.
        self.runs: list[Path] = []
        self._handle: IO[str] | None = None
        self._seq = 0

    # -- plumbing ------------------------------------------------------

    def _emit(self, event: dict[str, Any], milestone: bool = False) -> None:
        """Append one event line; fsync when ``milestone``."""
        if self._handle is None:
            return
        event = {"seq": self._seq, **event}
        self._seq += 1
        self._handle.write(
            json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n"
        )
        self._handle.flush()
        if milestone:
            os.fsync(self._handle.fileno())

    def _allocate_run_dir(self, run_id: str) -> Path:
        """``<root>/<run_id>-r<n>`` for the first free ``n``."""
        self.root.mkdir(parents=True, exist_ok=True)
        gitignore = self.root / ".gitignore"
        if not gitignore.exists():
            # Artifact roots self-ignore so a run never dirties git
            # status (mirrors the committed results/*/.gitignore files).
            gitignore.write_text("*\n!.gitignore\n")
        n = 0
        while (self.root / f"{run_id}-r{n}").exists():
            n += 1
        run_dir = self.root / f"{run_id}-r{n}"
        run_dir.mkdir(parents=True, exist_ok=True)
        return run_dir

    def _spec_entry(self, index: int, spec: "PointSpec") -> dict[str, Any]:
        """Compact join-ready identity of one spec for the header."""
        return {
            "index": index,
            "digest": spec.digest(),
            "kind": spec.kind,
            "describe": spec.describe(),
            "config": spec.config.name if spec.config else None,
            "pattern": spec.pattern,
            "load": spec.load,
            "seed": spec.seed,
            "label": dict(spec.label),
        }

    # -- SweepObserver hooks -------------------------------------------

    def sweep_started(
        self, specs: "list[PointSpec]", jobs: int, cached: bool
    ) -> None:
        if self._handle is not None:
            # A sweep_finished never arrived (crashed sweep); seal the
            # previous ledger before starting the next run.
            self._close()
        run_id = run_id_for(specs)
        run_dir = self._allocate_run_dir(run_id)
        self.runs.append(run_dir)
        self._handle = open(
            run_dir / LEDGER_NAME, "a", buffering=1, encoding="utf-8"
        )
        self._seq = 0
        self._emit(
            {
                "event": "sweep_started",
                "schema": LEDGER_SCHEMA,
                "run_id": run_id,
                "total": len(specs),
                "jobs": jobs,
                "cache": cached,
                "specs": [s.digest() for s in specs],
                "spec_index": [
                    self._spec_entry(i, s) for i, s in enumerate(specs)
                ],
            },
            milestone=True,
        )
        print(f"  ledger: {run_dir / LEDGER_NAME}", file=self.stream)

    def point_started(self, index: int, spec: "PointSpec") -> None:
        self._emit({"event": "point_started", "index": index})

    def point_finished(self, spec: "PointSpec", result: "PointResult") -> None:
        rows = result.rows
        event: dict[str, Any] = {
            "event": "cache_hit" if result.cached else "point_finished",
            "index": result.index,
            "spec": spec.digest(),
            "rows": len(rows),
            "rows_digest": _rows_digest(rows),
            "row_summary": _row_summary(rows),
        }
        if not result.cached:
            self._emit(
                {
                    "event": "heartbeat",
                    "pid": result.pid,
                    "cycles": result.cycles,
                    "flits": result.flits,
                    "elapsed": result.elapsed,
                }
            )
            event["elapsed"] = result.elapsed
            event["artifacts"] = [path for _, path in result.artifacts]
        self._emit(event)

    def point_failed(self, spec: "PointSpec", result: "PointResult") -> None:
        self._emit(
            {
                "event": "point_failed",
                "index": result.index,
                "spec": spec.digest(),
                "error": result.error,
            },
            milestone=True,
        )

    def sweep_finished(self, stats: "SweepStats") -> None:
        if self._handle is None:
            return
        run_dir = self.runs[-1]
        events, _ = read_ledger(run_dir / LEDGER_NAME)
        self._emit(
            {
                "event": "sweep_finished",
                "stats": stats.to_json(),
                "digest": canonical_digest(events),
            },
            milestone=True,
        )
        self._close()

    def _close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def _row_summary(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Join-ready subset of a point's first row (empty for no rows)."""
    if not rows:
        return {}
    first = rows[0]
    return {
        key: first[key] for key in _ROW_SUMMARY_KEYS if key in first
    }
