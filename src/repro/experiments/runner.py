"""Sweep-execution layer: point-specs, worker pool, cache, observers.

Every experiment driver describes its sweep as a list of *pure*
:class:`PointSpec` records (configuration + pattern + load + phases +
seed — everything a measurement depends on, and nothing else) and hands
the list to :func:`run_sweep`, which

1. resolves each spec against an on-disk :class:`SweepCache` under
   ``results/.cache/`` (keyed by a content hash of the spec plus
   :data:`CACHE_SCHEMA_VERSION`, so re-running a figure after an
   unrelated code change is a cache hit),
2. fans the remaining points out across a ``multiprocessing`` pool
   (worker count from the run policy, default ``os.cpu_count()``; a
   deterministic serial path runs at one job), and
3. reports one :class:`PointResult` per point (rows, wall-clock,
   worker pid, simulated work, the artifacts its layers flushed) and a
   :class:`SweepStats` per sweep to every :class:`SweepObserver`.

Because a spec carries its seed explicitly and every point is executed
in isolation, serial and parallel runs produce byte-identical rows; the
returned rows are additionally normalized through a JSON round trip so
cached and freshly-computed results are indistinguishable.

Jobs and cache come from the run policy
(:func:`repro.noc.layers.run_options`: the experiments CLI's flags, or
``REPRO_JOBS``, ``REPRO_NO_CACHE`` and ``REPRO_CACHE_DIR``, see
``docs/experiments.md``), which pool workers receive through their
initializer.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.experiments.common import (
    DEFAULT_SEED,
    run_application_point,
    run_synthetic_point,
)
from repro.noc import layers
from repro.noc.config import SYNTHETIC_PACKET_BITS, NocConfig
from repro.noc.multinoc import MultiNocFabric
from repro.noc.simulator import SimulationPhases
from repro.perf import meters
from repro.power.network_power import COMPONENT_NAMES, power_at_port_load
from repro.power.technology import table2_rows
from repro.traffic.generators import BurstyTrafficSource
from repro.traffic.patterns import make_pattern

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "PointSpec",
    "SweepCache",
    "SweepObserver",
    "SweepStats",
    "PointResult",
    "ProgressObserver",
    "execute_point",
    "run_sweep",
    "set_default_observers",
]

#: Bump when row contents or spec hashing change incompatibly; every
#: bump invalidates all previously cached points at once.
#: 2: synthetic/application rows gained latency percentile and
#: per-subnet hop-count columns.
CACHE_SCHEMA_VERSION = 2

#: Default on-disk cache location (override with ``REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = Path(layers.DEFAULT_CACHE_DIR)


def _jsonify(obj):
    """Normalize ``obj`` through a JSON round trip.

    Guarantees cached rows (which live as JSON on disk) compare equal
    to freshly computed ones: tuples become lists, dict key order is
    canonical, and only JSON-representable values survive.
    """
    return json.loads(json.dumps(obj, sort_keys=True))


@dataclass(frozen=True)
class PointSpec:
    """One pure, self-contained measurement point of a sweep.

    A spec captures everything its measurement depends on — the fabric
    configuration, traffic pattern, offered load, simulation phases,
    and the RNG seed — so executing it is a pure function and its
    content hash is a sound cache key.  ``label`` entries are merged
    into the produced row(s) but deliberately excluded from the hash:
    two drivers labelling the same simulation differently share one
    cache entry.

    Use the named constructors (:meth:`synthetic`, :meth:`application`,
    :meth:`power`, :meth:`bursty`, :meth:`table02`) rather than filling
    fields by hand.
    """

    kind: str
    config: NocConfig | None = None
    pattern: str | None = None
    load: float | None = None
    phases: SimulationPhases | None = None
    seed: int | None = None
    packet_bits: int | None = None
    workload: str | None = None
    cycles: int | None = None
    params: tuple[tuple[str, object], ...] = ()
    label: tuple[tuple[str, object], ...] = field(
        default=(), compare=False
    )

    # -- named constructors -------------------------------------------

    @classmethod
    def synthetic(
        cls,
        config: NocConfig,
        pattern: str,
        load: float,
        phases: SimulationPhases,
        seed: int = DEFAULT_SEED,
        packet_bits: int = SYNTHETIC_PACKET_BITS,
        **label,
    ) -> "PointSpec":
        """Open-loop synthetic-traffic point (one row)."""
        return cls(
            kind="synthetic",
            config=config,
            pattern=pattern,
            load=load,
            phases=phases,
            seed=seed,
            packet_bits=packet_bits,
            label=tuple(sorted(label.items())),
        )

    @classmethod
    def application(
        cls,
        config: NocConfig,
        workload: str,
        cycles: int,
        seed: int = DEFAULT_SEED,
        **label,
    ) -> "PointSpec":
        """Closed-loop application-workload point (one row)."""
        return cls(
            kind="application",
            config=config,
            workload=workload,
            cycles=cycles,
            seed=seed,
            label=tuple(sorted(label.items())),
        )

    @classmethod
    def power(
        cls, config: NocConfig, port_load: float, **label
    ) -> "PointSpec":
        """Analytic power-breakdown point (one row; Figure 7)."""
        return cls(
            kind="power",
            config=config,
            load=port_load,
            label=tuple(sorted(label.items())),
        )

    @classmethod
    def bursty(
        cls,
        config: NocConfig,
        pattern: str,
        schedule: tuple[tuple[int, float], ...],
        sample_period: int,
        total_cycles: int,
        seed: int = DEFAULT_SEED,
        **label,
    ) -> "PointSpec":
        """Time-series point over a step-load schedule (many rows)."""
        return cls(
            kind="bursty",
            config=config,
            pattern=pattern,
            seed=seed,
            cycles=total_cycles,
            params=(
                ("sample_period", sample_period),
                ("schedule", tuple(schedule)),
            ),
            label=tuple(sorted(label.items())),
        )

    @classmethod
    def fault(
        cls,
        config: NocConfig,
        pattern: str,
        load: float,
        phases: SimulationPhases,
        faults: str,
        seed: int = DEFAULT_SEED,
        packet_bits: int = SYNTHETIC_PACKET_BITS,
        **label,
    ) -> "PointSpec":
        """Fault-injected synthetic point (one row; :mod:`repro.faults`).

        ``faults`` is a ``REPRO_FAULTS``-grammar spec string; it is part
        of ``params`` and therefore of the cache identity.
        """
        return cls(
            kind="fault",
            config=config,
            pattern=pattern,
            load=load,
            phases=phases,
            seed=seed,
            packet_bits=packet_bits,
            params=(("faults", faults),),
            label=tuple(sorted(label.items())),
        )

    @classmethod
    def serving(
        cls,
        config: NocConfig,
        workload: str,
        phases: SimulationPhases,
        seed: int = DEFAULT_SEED,
        packet_bits: int = SYNTHETIC_PACKET_BITS,
        **label,
    ) -> "PointSpec":
        """Serving-workload point (one row; :mod:`repro.workloads`).

        ``workload`` is a ``--workload``-grammar spec string; it is
        canonicalized here so different spellings of the same workload
        share a cache entry.  For ``trace:`` workloads the trace file's
        content hash is folded into ``params`` — replaying an edited
        trace from the same path never reuses a stale cached row.
        """
        # Lazy import: workload-free sweeps never load the package.
        from repro.workloads.spec import parse_workload_spec

        spec = parse_workload_spec(workload)
        params: tuple[tuple[str, object], ...] = ()
        if spec.kind == "trace":
            digest = hashlib.sha256(
                Path(str(spec.get("path"))).read_bytes()
            ).hexdigest()
            params = (("trace_sha256", digest),)
        return cls(
            kind="workload",
            config=config,
            phases=phases,
            seed=seed,
            packet_bits=packet_bits,
            workload=spec.to_text(),
            params=params,
            label=tuple(sorted(label.items())),
        )

    @classmethod
    def table02(cls) -> "PointSpec":
        """The fitted 32 nm voltage/frequency table (four rows)."""
        return cls(kind="table02")

    # -- labelling / hashing ------------------------------------------

    def with_label(self, **label) -> "PointSpec":
        """Copy with extra row labels (not part of the cache key)."""
        merged = dict(self.label)
        merged.update(label)
        return replace(self, label=tuple(sorted(merged.items())))

    def key(self) -> dict:
        """Canonical JSON-safe identity of this point (label excluded)."""
        return _jsonify(
            {
                "kind": self.kind,
                "config": asdict(self.config) if self.config else None,
                "pattern": self.pattern,
                "load": self.load,
                "phases": asdict(self.phases) if self.phases else None,
                "seed": self.seed,
                "packet_bits": self.packet_bits,
                "workload": self.workload,
                "cycles": self.cycles,
                "params": self.params,
            }
        )

    def digest(self) -> str:
        """Content hash keying the on-disk cache."""
        payload = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "spec": self.key()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable form for progress lines."""
        parts = [self.kind]
        if self.config is not None:
            parts.append(self.config.name)
        if self.workload is not None:
            parts.append(self.workload)
        if self.pattern is not None:
            parts.append(self.pattern)
        if self.load is not None:
            parts.append(f"load={self.load:g}")
        return " ".join(parts)


# -- point executors (top-level so pool workers can run them) ----------


def _run_synthetic(spec: PointSpec) -> list[dict]:
    row = run_synthetic_point(
        spec.config,
        spec.pattern,
        spec.load,
        spec.phases,
        spec.seed,
        spec.packet_bits,
    )
    return [row]


def _run_application(spec: PointSpec) -> list[dict]:
    row, _, _ = run_application_point(
        spec.config, spec.workload, spec.cycles, spec.seed
    )
    return [row]


def _run_power(spec: PointSpec) -> list[dict]:
    breakdown = power_at_port_load(spec.config, spec.load)
    row: dict = {}
    for name in COMPONENT_NAMES:
        row[name] = breakdown.components[name].total_watts
    row["dynamic_w"] = breakdown.dynamic_watts
    row["static_w"] = breakdown.static_watts
    row["total_w"] = breakdown.total_watts
    return [row]


def _run_bursty(spec: PointSpec) -> list[dict]:
    params = dict(spec.params)
    sample_period = params["sample_period"]
    schedule = [tuple(step) for step in params["schedule"]]
    fabric = MultiNocFabric(spec.config, seed=spec.seed)
    pattern = make_pattern(spec.pattern, fabric.mesh)
    source = BurstyTrafficSource(fabric, pattern, schedule, seed=spec.seed)
    num_subnets = spec.config.num_subnets
    nodes = fabric.mesh.num_nodes
    rows: list[dict] = []
    last_generated = 0
    last_received = 0
    last_per_subnet = [0] * num_subnets
    while fabric.cycle < spec.cycles:
        fabric.backend.run(sample_period, source)
        generated = source.packets_generated
        received = fabric.stats.packets_received
        per_subnet = [
            sum(ni.injected_per_subnet[s] for ni in fabric.nis)
            for s in range(num_subnets)
        ]
        window_injected = sum(per_subnet) - sum(last_per_subnet)
        shares = [
            (per_subnet[s] - last_per_subnet[s]) / window_injected
            if window_injected
            else 0.0
            for s in range(num_subnets)
        ]
        denom = nodes * sample_period
        row = {
            "cycle": fabric.cycle,
            "offered": (generated - last_generated) / denom,
            "accepted": (received - last_received) / denom,
        }
        for s in range(num_subnets):
            row[f"subnet{s}"] = shares[s]
        rows.append(row)
        last_generated = generated
        last_received = received
        last_per_subnet = per_subnet
    meters.note_fabric(fabric)
    # The rows come from the windows above; the report is taken so that
    # attached layers (perf, telemetry, explain) flush their artifacts.
    fabric.report()
    return rows


def _run_fault(spec: PointSpec) -> list[dict]:
    # Imported lazily: repro.faults.campaign itself builds PointSpecs
    # from this module, and fault-free sweeps never need the package.
    from repro.faults.campaign import run_fault_point

    params = dict(spec.params)
    row = run_fault_point(
        spec.config,
        spec.pattern,
        spec.load,
        spec.phases,
        spec.seed,
        params["faults"],
        spec.packet_bits,
    )
    return [row]


def _run_workload(spec: PointSpec) -> list[dict]:
    # Imported lazily, like the fault executor: workload-free sweeps
    # never pay for the package.
    from repro.workloads.point import run_serving_point

    row = run_serving_point(
        spec.config,
        spec.workload,
        spec.phases,
        spec.seed,
        spec.packet_bits,
    )
    return [row]


def _run_table02(spec: PointSpec) -> list[dict]:
    return [
        {
            "design": point.design,
            "router_width_bits": point.router_width_bits,
            "frequency_ghz": point.frequency_ghz,
            "voltage_v": point.voltage_v,
            "highlighted": point.highlighted,
        }
        for point in table2_rows()
    ]


_EXECUTORS = {
    "synthetic": _run_synthetic,
    "application": _run_application,
    "power": _run_power,
    "bursty": _run_bursty,
    "fault": _run_fault,
    "workload": _run_workload,
    "table02": _run_table02,
}


def execute_point(spec: PointSpec) -> list[dict]:
    """Execute one spec and return its JSON-normalized rows (no label)."""
    try:
        executor = _EXECUTORS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown point kind {spec.kind!r}; "
            f"choose from {sorted(_EXECUTORS)}"
        ) from None
    return _jsonify(executor(spec))


@dataclass(frozen=True)
class PointResult:
    """One sweep point's outcome: what a worker (or the cache) produced.

    ``elapsed`` is the in-worker execution time, ``pid`` the worker's
    process (for busy-time attribution in :class:`SweepStats`), and
    ``cycles``/``flits`` the simulated work from the per-point work
    meter, so a forked pool can ship worker-side counts back to the
    parent.  ``artifacts`` holds ``(layer, path)`` for every file the
    point's instrumentation layers flushed
    (:func:`repro.noc.layers.drain_artifacts`).  ``error`` is ``None``
    on success.  A cache hit is ``cached=True`` with zero work and no
    artifacts.
    """

    index: int
    rows: list[dict]
    elapsed: float = 0.0
    cached: bool = False
    pid: int = 0
    cycles: int = 0
    flits: int = 0
    error: str | None = None
    artifacts: tuple[tuple[str, str], ...] = ()


def _execute_indexed(item: tuple[int, PointSpec]) -> PointResult:
    """Pool worker body: run one spec, keep its position and timing.

    Exceptions are captured rather than propagated (in ``error``):
    letting one bad point unwind ``imap_unordered`` would discard every
    other worker's finished results, so the parent decides — it retries
    failed points once serially and surfaces permanent failures through
    :attr:`SweepStats.failed_points`.
    """
    index, spec = item
    meters.begin_point()
    layers.collect_artifacts()
    started = time.perf_counter()
    error: str | None = None
    rows: list[dict] = []
    try:
        rows = execute_point(spec)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    cycles, flits = meters.drain_point()
    return PointResult(
        index,
        rows,
        elapsed,
        pid=os.getpid(),
        cycles=cycles,
        flits=flits,
        error=error,
        artifacts=layers.drain_artifacts(),
    )


# -- on-disk cache -----------------------------------------------------


class SweepCache:
    """Content-addressed on-disk store of completed point rows.

    One JSON file per point under ``root``, named by the spec digest.
    Each file records the schema version and the full spec key next to
    the rows, so a hash collision or a stale schema can never serve
    wrong data — mismatches read as misses.
    """

    def __init__(self, root: Path | str = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def _path(self, spec: PointSpec) -> Path:
        return self.root / f"{spec.digest()}.json"

    def get(self, spec: PointSpec) -> list[dict] | None:
        """Rows for ``spec``, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("spec") != spec.key()
        ):
            return None
        rows = payload.get("rows")
        return rows if isinstance(rows, list) else None

    def put(self, spec: PointSpec, rows: list[dict]) -> None:
        """Persist rows crash-safely.

        The payload goes to an exclusively-created temp file in the
        cache directory, is fsynced, and lands under its final name via
        ``os.replace`` — so a reader can only ever observe the complete
        entry or none at all, concurrent writers (parallel sweeps
        sharing a cache) cannot clobber each other's temp files, and a
        crash mid-write leaves no half-written ``.json`` behind (the
        orphaned temp file is cleaned up on the error path and is
        invisible to :meth:`get`/:meth:`clear`, which only consider
        ``*.json``).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(spec)
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "spec": spec.key(),
                "rows": rows,
            },
            sort_keys=True,
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def clear(self) -> int:
        """Delete every cached point; return the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed


# -- observers ---------------------------------------------------------


@dataclass
class SweepStats:
    """Aggregate record of one :func:`run_sweep` call.

    ``sim_cycles``/``sim_flits`` count the simulated work behind the
    cache misses (cache hits simulate nothing); ``worker_busy_seconds``
    maps each worker pid to its in-point execution time, and
    ``exec_wall_seconds`` is the wall-clock of the execution section
    alone, so ``sum(busy) / (exec_wall * workers)`` is the pool's
    utilization.

    ``failed_points`` lists ``(index, error)`` for points that failed
    even after the serial retry; their rows are missing from the sweep
    result.  ``retried_points`` counts points that failed once and
    succeeded on retry (their rows are present and correct).
    """

    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    point_seconds: list[float] = field(default_factory=list)
    sim_cycles: int = 0
    sim_flits: int = 0
    workers: int = 0
    exec_wall_seconds: float = 0.0
    worker_busy_seconds: dict[int, float] = field(default_factory=dict)
    failed_points: list[tuple[int, str]] = field(default_factory=list)
    retried_points: int = 0

    def worker_utilization(self) -> float:
        """Busy fraction of the worker pool over the execution section."""
        denominator = self.exec_wall_seconds * self.workers
        if denominator <= 0:
            return 0.0
        return sum(self.worker_busy_seconds.values()) / denominator

    def to_json(self) -> dict:
        """JSON-safe view with a stable key order.

        The schema tag (``repro.obs/1``) is shared with the run
        ledger's ``sweep_finished`` event (see ``docs/obs.md``), so a
        ``--stats-out`` file and a ledger record of the same sweep are
        field-for-field comparable.  Keys are emitted in a fixed order
        and the pid map is sorted, so two equal stats objects always
        serialize byte-identically.
        """
        return {
            "schema": "repro.obs/1",
            "points": self.points,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failed_points": [
                [index, error] for index, error in self.failed_points
            ],
            "retried_points": self.retried_points,
            "sim_cycles": self.sim_cycles,
            "sim_flits": self.sim_flits,
            "workers": self.workers,
            "worker_busy_seconds": {
                str(pid): seconds
                for pid, seconds in sorted(
                    self.worker_busy_seconds.items()
                )
            },
            "worker_utilization": self.worker_utilization(),
            "wall_seconds": self.wall_seconds,
            "exec_wall_seconds": self.exec_wall_seconds,
            "point_seconds": list(self.point_seconds),
        }


class SweepObserver:
    """Hook interface for sweep progress; all methods default to no-ops.

    ``sweep_started`` fires once with the resolved execution policy —
    the full spec list, the worker count, and whether a cache is in
    play — so observers that need run identity (the :mod:`repro.obs`
    ledger derives its run-id from the spec digests) never have to
    re-derive it from the environment.  ``point_started`` marks a point
    entering the execution section (in spec order; cache hits never
    start).  ``point_finished`` fires once per successful point, in
    completion order (which under a parallel pool is not spec order),
    with the point's :class:`PointResult`; ``point_failed`` gets the
    record of a point that failed both its run and the serial retry.
    """

    def sweep_started(
        self, specs: list["PointSpec"], jobs: int, cached: bool
    ) -> None:
        """Execution policy for the sweep about to run."""

    def point_started(self, index: int, spec: "PointSpec") -> None:
        """``specs[index]`` was handed to the execution section."""

    def point_finished(self, spec: PointSpec, result: PointResult) -> None:
        """``spec`` produced ``result.rows`` (executed or cached)."""

    def point_failed(self, spec: PointSpec, result: PointResult) -> None:
        """A point failed both its first run and the serial retry."""

    def sweep_finished(self, stats: SweepStats) -> None:
        """The sweep's aggregate record."""


class ProgressObserver(SweepObserver):
    """Prints sweep progress to stderr.

    ``verbose`` (the CLI's ``--progress``) prints one line per completed
    point plus a summary.  Without it only what must never pass
    silently is printed: each permanently failed point (its table rows
    are missing) and the summary of a sweep that retried or lost
    points.

    Status lines carry a rolling ETA (wall time so far divided by
    completed points, scaled to the remainder — meaningless before two
    points have finished, so suppressed until then) and the running
    cache-hit count when any point hit.
    """

    def __init__(self, stream=None, verbose: bool = True):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self._total = 0
        self._done = 0
        self._hits = 0
        self._started = 0.0

    def sweep_started(self, specs, jobs: int, cached: bool) -> None:
        self._total = len(specs)
        self._done = 0
        self._hits = 0
        self._started = time.perf_counter()

    def _suffix(self) -> str:
        """`` [eta 12s, 3 cached]`` from completed-point wall times."""
        extras: list[str] = []
        remaining = self._total - self._done
        if self._done >= 2 and remaining > 0:
            per_point = (
                time.perf_counter() - self._started
            ) / self._done
            extras.append(f"eta {per_point * remaining:.0f}s")
        if self._hits:
            extras.append(f"{self._hits} cached")
        return f" [{', '.join(extras)}]" if extras else ""

    def point_finished(self, spec, result: PointResult) -> None:
        self._done += 1
        if result.cached:
            self._hits += 1
        if not self.verbose:
            return
        status = "cache" if result.cached else f"{result.elapsed:.2f}s"
        print(
            f"  [{self._done}/{self._total}] {spec.describe()} "
            f"({status}){self._suffix()}",
            file=self.stream,
        )

    def point_failed(self, spec, result: PointResult) -> None:
        self._done += 1
        print(
            f"  [{self._done}/{self._total}] {spec.describe()} "
            f"FAILED: {result.error}",
            file=self.stream,
        )

    def sweep_finished(self, stats: SweepStats) -> None:
        if not (
            self.verbose or stats.retried_points or stats.failed_points
        ):
            return
        line = (
            f"  sweep: {stats.points} points, {stats.cache_hits} cached, "
            f"{stats.cache_misses} simulated in {stats.wall_seconds:.2f}s"
        )
        if stats.retried_points:
            line += f"; {stats.retried_points} retried"
        if stats.failed_points:
            line += f"; {len(stats.failed_points)} FAILED"
        from repro.perf.meters import throughput_suffix

        rates = throughput_suffix(
            stats.sim_cycles, stats.sim_flits, stats.wall_seconds
        )
        if rates:
            line += f" ({rates})"
        if stats.workers:
            line += (
                f"; {stats.workers} worker"
                f"{'s' if stats.workers != 1 else ''} "
                f"{100.0 * stats.worker_utilization():.0f}% busy"
            )
        print(line, file=self.stream)


_default_observers: tuple[SweepObserver, ...] = ()


def set_default_observers(*observers: SweepObserver) -> None:
    """Observers used by :func:`run_sweep` calls that pass none.

    The experiments CLI and ``python -m repro.faults campaign
    --ledger`` install theirs here so drivers stay observer-agnostic;
    call with no arguments to clear.
    """
    global _default_observers
    _default_observers = observers


# -- the sweep runner --------------------------------------------------

_CACHE_FROM_OPTIONS = object()  # sentinel: "the run policy's cache"


def run_sweep(
    specs,
    jobs: int | None = None,
    cache: SweepCache | None = _CACHE_FROM_OPTIONS,
    observers=None,
) -> list[dict]:
    """Execute every spec and return their rows, flattened in spec order.

    ``synthetic``/``application``/``power`` points contribute exactly
    one row each, so for such sweeps ``rows[i]`` corresponds to
    ``specs[i]``; ``bursty``/``table02`` points expand to several rows
    in place.  Results are independent of ``jobs``: every spec carries
    its own seed, so serial and parallel execution are byte-identical.

    ``jobs`` and ``cache`` default to the run policy's
    (:func:`repro.noc.layers.run_options`; pass ``cache=None`` to force
    the cache off), which pool workers also run under.  Every event
    goes to each of ``observers``, in order; ``None`` means the ones
    installed with :func:`set_default_observers`.

    A point that raises is retried once serially in the parent; if the
    retry also fails, the sweep continues without its rows and the
    failure is surfaced through :attr:`SweepStats.failed_points` and
    the observers' ``point_failed`` hook (so one bad point cannot
    discard an hour of finished work).
    """
    specs = list(specs)
    if observers is None:
        observers = _default_observers
    observers = tuple(observers)

    def emit(hook: str, *args) -> None:
        for observer in observers:
            getattr(observer, hook)(*args)

    options = layers.run_options()
    if cache is _CACHE_FROM_OPTIONS:
        cache = (
            None
            if options.cache_dir is None
            else SweepCache(options.cache_dir)
        )
    if jobs is None:
        jobs = options.jobs

    stats = SweepStats(points=len(specs))
    started = time.perf_counter()
    emit("sweep_started", specs, jobs, cache is not None)

    rows_by_index: dict[int, list[dict]] = {}
    pending: list[tuple[int, PointSpec]] = []
    for index, spec in enumerate(specs):
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            rows_by_index[index] = hit
            stats.cache_hits += 1
            stats.point_seconds.append(0.0)
            emit("point_finished", spec, PointResult(index, hit, cached=True))
        else:
            pending.append((index, spec))

    def record(result: PointResult) -> None:
        rows_by_index[result.index] = result.rows
        stats.cache_misses += 1
        stats.point_seconds.append(result.elapsed)
        stats.sim_cycles += result.cycles
        stats.sim_flits += result.flits
        stats.worker_busy_seconds[result.pid] = (
            stats.worker_busy_seconds.get(result.pid, 0.0) + result.elapsed
        )
        if result.pid != os.getpid():
            # Pool workers accumulate into their own (forked) process
            # meter, which dies with them; fold their shipped delta
            # into this process's lifetime total.  Points run here
            # (serially or as a retry) are already counted.
            meters.WORK.add(result.cycles, result.flits)
        spec = specs[result.index]
        if cache is not None:
            cache.put(spec, result.rows)
        emit("point_finished", spec, result)

    def settle(result: PointResult) -> None:
        """Record one executed point, retrying a failure once serially.

        The retry runs in the parent process (transient worker-side
        conditions — a dying fork, an fd limit — don't reproduce
        there); a second failure is permanent and lands in
        ``stats.failed_points`` instead of raising, so the rest of the
        sweep still completes and returns its rows.
        """
        if result.error is not None:
            spec = specs[result.index]
            result = _execute_indexed((result.index, spec))
            if result.error is not None:
                stats.failed_points.append((result.index, result.error))
                emit("point_failed", spec, result)
                return
            stats.retried_points += 1
        record(result)

    if pending:
        workers = min(jobs, len(pending))
        stats.workers = workers
        exec_started = time.perf_counter()
        if workers > 1:
            # The pool consumes the whole pending list up front, so
            # every point "starts" (enters the execution section) now,
            # in spec order — per-worker start instants are not
            # observable from the parent.
            for index, spec in pending:
                emit("point_started", index, spec)
            with _pool_context().Pool(
                workers,
                initializer=layers.install_run_options,
                initargs=(options,),
            ) as pool:
                for result in pool.imap_unordered(
                    _execute_indexed, pending
                ):
                    settle(result)
        else:
            for index, spec in pending:
                emit("point_started", index, spec)
                settle(_execute_indexed((index, spec)))
        stats.exec_wall_seconds = time.perf_counter() - exec_started

    stats.wall_seconds = time.perf_counter() - started
    emit("sweep_finished", stats)

    out: list[dict] = []
    for index, spec in enumerate(specs):
        label = dict(spec.label)
        # Permanently failed points (stats.failed_points) have no rows.
        for row in rows_by_index.get(index, ()):
            out.append({**row, **label} if label else dict(row))
    return out


def _pool_context():
    """Fork where available (cheap, inherits state); spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")
