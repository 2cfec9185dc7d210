"""Campaign-level observability: run ledgers, live status, rollups.

The sweep runner (:mod:`repro.experiments.runner`) reports progress
through :class:`~repro.experiments.runner.SweepObserver` hooks, but
without this package that record is transient — a progress line on
stderr that vanishes with the process.  ``repro.obs`` makes campaign
execution durable and queryable:

* :mod:`repro.obs.ledger` — :class:`~repro.obs.ledger.LedgerObserver`
  streams structured JSONL events (``sweep_started``, ``point_*``,
  ``cache_hit``, worker ``heartbeat``\\ s, ``sweep_finished``) to
  ``results/obs/<run>/ledger.jsonl`` with crash-safe appends and a
  canonical-JSON digest proving serial and parallel runs recorded the
  same work;
* :mod:`repro.obs.status` — ``python -m repro.obs status [--follow]``
  tails a ledger (including one being written by another process) and
  renders progress, per-worker utilization, cache-hit ratio, and
  throughput sparklines; ``ls`` enumerates recorded runs;
* :mod:`repro.obs.report` — ``python -m repro.obs report`` joins a
  ledger with the telemetry/perf artifacts its points produced into an
  energy-proportionality rollup plus a machine-readable
  ``report.json``;
* :mod:`repro.obs.artifacts` — artifact naming and the readers the
  rollup joins through.  Each point's artifact paths arrive in its
  :class:`~repro.experiments.runner.PointResult`, which the ledger
  records and :class:`~repro.obs.ledger.ArtifactObserver` prints; no
  observer reads an artifact directory.

Enable per run with ``catnap-experiments <fig> --ledger`` (or
``REPRO_OBS=1``); artifacts land under ``REPRO_OBS_DIR`` (default
``results/obs``).  See ``docs/obs.md``.
"""

from __future__ import annotations

from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerObserver,
    canonical_digest,
    read_ledger,
    run_id_for,
)

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerObserver",
    "canonical_digest",
    "read_ledger",
    "run_id_for",
]
