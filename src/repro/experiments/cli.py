"""Command-line entry point: regenerate any paper figure or table.

Usage::

    catnap-experiments --list
    catnap-experiments fig08 --scale 0.5
    catnap-experiments all --scale 0.25 --out results/
    catnap-experiments fig10 --jobs 8 --progress     # parallel sweep
    catnap-experiments fig10 --no-cache              # force re-simulation
    catnap-experiments fig06 --check                 # invariant-checked
    catnap-experiments fig06 --telemetry             # trace + time series
    catnap-experiments fig06 --perf                  # phase profile
    catnap-experiments fig06 --faults rate=0.001     # fault injection
    catnap-experiments fig06 --explain               # latency/energy attribution
    catnap-experiments fig06 --backend skip          # skip-ahead kernel
    catnap-experiments ext_serving --workload llm:batch=8   # serving mix
    catnap-experiments analysis lint                 # static lint passes

Each experiment prints its table to stdout and, with ``--out``, also
writes ``<name>.txt`` into the given directory.  Sweep execution is
delegated to :mod:`repro.experiments.runner`: ``--jobs``/``--no-cache``
/``--cache-dir`` set the corresponding ``REPRO_JOBS`` /
``REPRO_NO_CACHE`` / ``REPRO_CACHE_DIR`` environment variables so every
driver (and anything it spawns) sees the same policy.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments import runner
from repro.experiments.ablations import ABLATIONS
from repro.experiments.ext_serving import run_ext_serving
from repro.experiments.ext_specialization import run_ext_class_partition
from repro.experiments.fig02_bandwidth import run_fig02
from repro.experiments.fig06_subnet_scaling import run_fig06
from repro.experiments.fig07_power_breakdown import run_fig07
from repro.experiments.fig08_applications import (
    headline_summary,
    run_fig08,
)
from repro.experiments.fig09_csc import run_fig09
from repro.experiments.fig10_uniform_pg import run_fig10
from repro.experiments.fig11_congestion_metrics import run_fig11
from repro.experiments.fig12_bursty import run_fig12
from repro.experiments.fig13_ir_thresholds import run_fig13
from repro.experiments.fig14_64core import run_fig14
from repro.experiments.table02_voltage import run_table02
from repro.noc.layers import LAYERS

__all__ = [
    "EXPERIMENTS",
    "PAPER_EXPERIMENTS",
    "run_experiment",
    "render_experiment",
    "main",
]

EXPERIMENTS = {
    "fig02": run_fig02,
    "table02": run_table02,
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "ext_class_partition": run_ext_class_partition,
    "ext_serving": run_ext_serving,
    **ABLATIONS,
}

#: Names run by ``catnap-experiments all`` (the paper's own artifacts);
#: ablations are opt-in by name because they are extensions.
PAPER_EXPERIMENTS = (
    "fig02", "table02", "fig06", "fig07", "fig08", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14",
)

#: ASCII charts printed after the table: (x, y, group, row filter).
_CHART_SPECS: dict[str, list[tuple[str, str, str, dict]]] = {
    "fig10": [
        ("load", "latency", "config", {}),
        ("load", "csc_pct", "config", {}),
    ],
    "fig11": [
        ("load", "latency", "variant", {"pattern": "uniform"}),
        ("load", "latency", "variant", {"pattern": "transpose"}),
    ],
    "fig13": [
        ("load", "latency", "threshold", {"pattern": "uniform"}),
        ("load", "latency", "threshold", {"pattern": "transpose"}),
    ],
    "fig14": [("load", "csc_pct", "config", {})],
}


#: Columns appended by ``--percentiles`` when every row carries them.
_PERCENTILE_COLUMNS = ("latency_p50", "latency_p95", "latency_p99")


def render_experiment(result, percentiles: bool = False) -> str:
    """Table plus any ASCII charts for one experiment result.

    With ``percentiles``, latency percentile columns are appended to
    the table when the rows carry them; the default rendering is
    byte-identical to the paper tables regardless of what extra keys
    the rows hold (drivers pin their column lists explicitly).
    """
    if (
        percentiles
        and result.columns is not None
        and result.rows
        and all(
            all(key in row for key in _PERCENTILE_COLUMNS)
            for row in result.rows
        )
    ):
        from dataclasses import replace as _replace

        extra = [
            key
            for key in _PERCENTILE_COLUMNS
            if key not in result.columns
        ]
        result = _replace(result, columns=result.columns + extra)
    parts = [result.to_table()]
    for x, y, group, criteria in _CHART_SPECS.get(result.name, []):
        parts.append("")
        parts.append(result.to_chart(x, y, group, **criteria))
    return "\n".join(parts)


def run_experiment(name: str, scale: float = 1.0):
    """Run one experiment by name and return its result."""
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(EXPERIMENTS)} or 'all'"
        )
    return EXPERIMENTS[name](scale=scale)


class _TallyObserver(runner.SweepObserver):
    """Accumulates hit/miss counts and simulated-work totals across the
    sweeps of one experiment, optionally echoing per-point progress
    lines to stderr and fanning events out to extra observers."""

    def __init__(
        self,
        progress: bool,
        extra: list[runner.SweepObserver] | None = None,
    ):
        self.progress = (
            runner.ProgressObserver() if progress else None
        )
        self.extra = list(extra) if extra else []
        self.reset()

    def reset(self) -> None:
        self.points = 0
        self.hits = 0
        self.misses = 0
        self.sim_cycles = 0
        self.sim_flits = 0
        #: ``SweepStats.to_json()`` of every finished sweep, in order
        #: (across resets — an experiment's whole CLI invocation feeds
        #: one ``--stats-out`` document).
        if not hasattr(self, "sweep_stats"):
            self.sweep_stats: list[dict] = []

    def sweep_context(self, specs, jobs: int, cached: bool) -> None:
        if self.progress:
            self.progress.sweep_context(specs, jobs, cached)
        for observer in self.extra:
            observer.sweep_context(specs, jobs, cached)

    def sweep_started(self, total: int) -> None:
        if self.progress:
            self.progress.sweep_started(total)
        for observer in self.extra:
            observer.sweep_started(total)

    def point_started(self, index, spec) -> None:
        if self.progress:
            self.progress.point_started(index, spec)
        for observer in self.extra:
            observer.point_started(index, spec)

    def worker_heartbeat(
        self, pid: int, cycles: int, flits: int, elapsed: float
    ) -> None:
        if self.progress:
            self.progress.worker_heartbeat(pid, cycles, flits, elapsed)
        for observer in self.extra:
            observer.worker_heartbeat(pid, cycles, flits, elapsed)

    def point_finished(self, index, spec, rows, elapsed, cached) -> None:
        self.points += 1
        if cached:
            self.hits += 1
        else:
            self.misses += 1
        if self.progress:
            self.progress.point_finished(index, spec, rows, elapsed, cached)
        for observer in self.extra:
            observer.point_finished(index, spec, rows, elapsed, cached)

    def point_failed(self, index, spec, error) -> None:
        # Always loud, even without --progress: a permanently failed
        # point means missing table rows, which must not pass silently.
        if self.progress:
            self.progress.point_failed(index, spec, error)
        else:
            print(
                f"  [{index}] FAILED {spec.describe()}: {error}",
                file=sys.stderr,
            )
        for observer in self.extra:
            observer.point_failed(index, spec, error)

    def sweep_finished(self, stats) -> None:
        self.sim_cycles += stats.sim_cycles
        self.sim_flits += stats.sim_flits
        self.sweep_stats.append(stats.to_json())
        if self.progress:
            self.progress.sweep_finished(stats)
        elif stats.retried_points or stats.failed_points:
            # Even without --progress, degraded sweeps must be loud:
            # retries mean flaky points, failures mean missing rows.
            line = f"  sweep: {stats.retried_points} retried"
            if stats.failed_points:
                line += f", {len(stats.failed_points)} FAILED"
            print(line, file=sys.stderr)
        for observer in self.extra:
            observer.sweep_finished(stats)

    def summary(self) -> str:
        if not self.points:
            return ""
        return (
            f" — {self.points} points, {self.hits} cached, "
            f"{self.misses} simulated"
        )

    def throughput(self, elapsed: float) -> str:
        """``" — 1.2M cycles/s, …"`` over ``elapsed``; empty when no
        simulated work happened (all-cached or analytic runs)."""
        from repro.perf.meters import throughput_suffix

        rates = throughput_suffix(self.sim_cycles, self.sim_flits, elapsed)
        return f" — {rates}" if rates else ""


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analysis":
        # ``catnap-experiments analysis lint ...`` forwards to the
        # static-analysis CLI so one entry point covers both halves.
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="catnap-experiments",
        description="Regenerate the Catnap paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name (e.g. fig08) or 'all'",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="cycle-count scale factor (default 1.0)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="directory for .txt outputs"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="sweep worker processes (default: REPRO_JOBS or all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result-cache directory (default: results/.cache)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print one line per completed sweep point to stderr",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run with REPRO_CHECK=1: every simulated fabric verifies "
        "cycle-level invariants (see docs/analysis.md)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="run with REPRO_FAULTS=SPEC: every simulated fabric "
        "attaches a deterministic fault-injection engine "
        "(see docs/faults.md); use '1' for the default schedule",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="run with REPRO_TELEMETRY=1: every simulated fabric "
        "records time series and a Perfetto trace under "
        "results/telemetry/ (see docs/telemetry.md)",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for telemetry artifacts (implies --telemetry)",
    )
    parser.add_argument(
        "--explain",
        nargs="?",
        const="1",
        default=None,
        metavar="SPEC",
        help="run with REPRO_EXPLAIN=SPEC: every simulated fabric "
        "attributes per-packet latency phases and per-subnet energy, "
        "writing *.explain.json under results/explain/ "
        "(see docs/explain.md); SPEC is '1' (both), 'latency', "
        "'energy', or a comma list",
    )
    parser.add_argument(
        "--explain-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for attribution artifacts (implies --explain)",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="run with REPRO_PERF=1: every simulated fabric profiles "
        "its own step phases and writes *.perf.json under "
        "results/perf/ (see docs/perf.md)",
    )
    parser.add_argument(
        "--perf-out",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory for perf profile artifacts (implies --perf)",
    )
    parser.add_argument(
        "--workload",
        metavar="SPEC",
        default=None,
        help="run with REPRO_WORKLOADS=SPEC: the serving workload swept "
        "by ext_serving (see docs/workloads.md), e.g. llm:batch=8 or "
        "tenants:rates=0.1,0.05",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help="run with REPRO_BACKEND=NAME: simulation kernel for every "
        "fabric — 'dense' steps each cycle, 'skip' jumps idle spans "
        "(byte-identical results; see docs/architecture.md)",
    )
    parser.add_argument(
        "--percentiles",
        action="store_true",
        help="append latency p50/p95/p99 columns to tables that "
        "carry them",
    )
    parser.add_argument(
        "--ledger",
        action="store_true",
        help="record every sweep to a run ledger under results/obs/ "
        "(inspect with `python -m repro.obs`; see docs/obs.md)",
    )
    parser.add_argument(
        "--stats-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="write per-sweep SweepStats (repro.obs/1 JSON) to PATH",
    )
    args = parser.parse_args(argv)
    if args.list or args.experiment is None:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    if args.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = str(args.cache_dir)
    if args.workload is not None:
        # Validate here so a typo fails fast with a usage error rather
        # than as one captured failure per sweep point (mirrors
        # --faults).  Unlike observer flags this does NOT disable the
        # cache: the canonical spec text lands in PointSpec.workload
        # and is therefore already part of every cache key.
        from repro.workloads.spec import parse_workload_spec

        try:
            parse_workload_spec(args.workload)
        except ValueError as exc:
            parser.error(f"--workload: {exc}")
        os.environ["REPRO_WORKLOADS"] = args.workload
    if args.backend is not None:
        # Validate here so a typo fails fast with a usage error rather
        # than as one captured failure per sweep point (mirrors
        # --faults).
        from repro.noc.backend import DEFAULT_BACKEND, backend_names

        if args.backend not in backend_names():
            parser.error(
                f"--backend: unknown backend {args.backend!r}; "
                f"choose from {', '.join(backend_names())}"
            )
        # Environment (not a parameter) so forked sweep workers build
        # every fabric on the selected kernel.  Backends are
        # result-equivalent by contract, but a cache hit would silently
        # skip exercising the requested kernel — so any non-default
        # choice disables caching wholesale (mirrors --check).
        os.environ["REPRO_BACKEND"] = args.backend
        if args.backend != DEFAULT_BACKEND:
            os.environ["REPRO_NO_CACHE"] = "1"
    # Instrumentation layers (repro.noc.layers).  Each flag is
    # validated here, so a typo fails fast with a usage error rather
    # than as one captured failure per sweep point, then exported
    # through the environment so forked sweep workers attach the layer
    # to every fabric they construct.  A cache hit would skip the
    # simulation — no checking, no injection, no artifacts — and
    # instrumented results must not poison the shared cache, so any
    # layer disables caching wholesale.
    layers = []
    for layer in LAYERS:
        value = getattr(args, layer.flag[2:].replace("-", "_"))
        if layer.out_flag:
            out = getattr(args, layer.out_flag[2:].replace("-", "_"))
            if out is not None:
                os.environ[layer.dir_env] = str(out)
                value = value or "1"
        if value is None or value is False:
            continue
        value = "1" if value is True else value
        try:
            layer.parse_spec(value)
        except ValueError as exc:
            parser.error(f"{layer.flag}: {exc}")
        os.environ[layer.env] = value
        os.environ["REPRO_NO_CACHE"] = "1"
        layers.append(layer)
    if args.experiment == "all":
        names = list(PAPER_EXPERIMENTS)
    elif args.experiment == "ablations":
        names = [name for name in EXPERIMENTS if name.startswith("abl_")]
    else:
        names = [args.experiment]
    from repro.obs.ledger import ArtifactObserver, LedgerObserver
    from repro.util import env

    extra: list[runner.SweepObserver] = [
        ArtifactObserver(layer) for layer in layers if layer.artifacts
    ]
    if args.ledger or env.flag("REPRO_OBS"):
        extra.append(LedgerObserver())
    tally = _TallyObserver(progress=args.progress, extra=extra)
    runner.set_default_observer(tally)
    try:
        for name in names:
            tally.reset()
            # perf_counter, not time.time: wall-clock is not monotonic
            # (NTP steps would corrupt the elapsed figure) — SIM003.
            started = time.perf_counter()
            result = run_experiment(name, args.scale)
            table = render_experiment(
                result, percentiles=args.percentiles
            )
            elapsed = time.perf_counter() - started
            print(table)
            print(
                f"[{name} finished in {elapsed:.1f}s{tally.summary()}"
                f"{tally.throughput(elapsed)}]\n"
            )
            if name == "fig08":
                print("Headline:", headline_summary(result), "\n")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(table + "\n")
    finally:
        runner.set_default_observer(None)
    if args.stats_out is not None:
        import json

        args.stats_out.parent.mkdir(parents=True, exist_ok=True)
        args.stats_out.write_text(
            json.dumps(
                {
                    "schema": "repro.obs/1",
                    "sweeps": tally.sweep_stats,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
