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
delegated to :mod:`repro.experiments.runner`.

The run policy — kernel, instrumentation layers, jobs and cache — is
one :class:`~repro.noc.layers.RunOptions`: the ``REPRO_*`` variables
overlaid with ``--backend``, the layer flags, ``--jobs``,
``--no-cache`` and ``--cache-dir``.  It is installed only while
:func:`main` runs and reaches sweep workers as data, so the process
environment is never written.  Any layer or non-default backend turns
the cache off.  ``--workload`` is passed to ``ext_serving`` as an
argument.
"""

from __future__ import annotations

import argparse
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
from repro.noc.backend import backend_names
from repro.noc.layers import LAYERS, RunOptions, install_run_options
from repro.util import env

__all__ = [
    "EXPERIMENTS",
    "PAPER_EXPERIMENTS",
    "run_experiment",
    "render_experiment",
    "build_parser",
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


def run_experiment(
    name: str, scale: float = 1.0, workload: str | None = None
):
    """Run one experiment by name and return its result.

    ``workload`` is the serving spec ``ext_serving`` sweeps (None: its
    default); the other experiments have no workload to choose.
    """
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(EXPERIMENTS)} or 'all'"
        )
    if name == "ext_serving":
        return run_ext_serving(scale=scale, workload=workload)
    return EXPERIMENTS[name](scale=scale)


class _SweepLog(runner.SweepObserver, list):
    """Every finished sweep's :class:`~repro.experiments.runner.SweepStats`,
    in order: the summary lines and ``--stats-out`` read them."""

    def sweep_finished(self, stats: runner.SweepStats) -> None:
        self.append(stats)


def _summary(sweeps: list[runner.SweepStats], elapsed: float) -> str:
    """`` — N points, H cached, M simulated — <rates>`` over ``elapsed``
    for one experiment's sweeps; empty when no point finished.  Failed
    points are neither hits nor misses, so they are not counted."""
    hits = sum(stats.cache_hits for stats in sweeps)
    misses = sum(stats.cache_misses for stats in sweeps)
    if not hits + misses:
        return ""
    from repro.perf.meters import throughput_suffix

    rates = throughput_suffix(
        sum(stats.sim_cycles for stats in sweeps),
        sum(stats.sim_flits for stats in sweeps),
        elapsed,
    )
    return (
        f" — {hits + misses} points, {hits} cached, {misses} simulated"
        + (f" — {rates}" if rates else "")
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``catnap-experiments`` argument parser."""
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
    # One flag per instrumentation layer (repro.noc.layers), plus a
    # directory flag for each layer with artifacts.  The value lands
    # under the variable's name, and the help is its registry entry.
    for layer in LAYERS:
        var = env.REGISTRY[layer.env]
        help_text = f"{var.description} (see docs/{var.doc_page})"
        if var.kind == "flag":
            parser.add_argument(
                layer.flag,
                dest=layer.env,
                action="store_const",
                const="1",
                help=help_text,
            )
        else:
            parser.add_argument(
                layer.flag,
                dest=layer.env,
                nargs="?",
                const="1",
                metavar="SPEC",
                help=help_text,
            )
        if layer.out_flag:
            parser.add_argument(
                layer.out_flag,
                dest=layer.dir_env,
                metavar="DIR",
                help=f"{env.REGISTRY[layer.dir_env].description} "
                f"(implies {layer.flag})",
            )
    parser.add_argument(
        "--workload",
        metavar="SPEC",
        default=None,
        help="the serving workload swept by ext_serving "
        "(see docs/workloads.md), e.g. llm:batch=8 or "
        "tenants:rates=0.1,0.05",
    )
    parser.add_argument(
        "--backend",
        metavar="NAME",
        default=None,
        help="simulation kernel for every fabric — 'dense' steps each "
        "cycle, 'skip' jumps idle spans (byte-identical results; see "
        "docs/architecture.md)",
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
    return parser


def _run_options(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> RunOptions:
    """The environment's run policy overlaid with the flags.

    Each flag is validated here, so a typo fails fast with a usage
    error rather than as one captured failure per sweep point.
    """
    flags = vars(args)
    overlay: dict[str, str] = {}
    if args.jobs is not None:
        if args.jobs < 1:
            parser.error("--jobs must be >= 1")
        overlay["REPRO_JOBS"] = str(args.jobs)
    if args.no_cache:
        overlay["REPRO_NO_CACHE"] = "1"
    if args.cache_dir is not None:
        overlay["REPRO_CACHE_DIR"] = str(args.cache_dir)
    if args.workload is not None:
        # Not part of the run policy: the canonical spec text lands in
        # PointSpec.workload and so in every cache key.
        from repro.workloads.spec import parse_workload_spec

        try:
            parse_workload_spec(args.workload)
        except ValueError as exc:
            parser.error(f"--workload: {exc}")
    if args.backend is not None:
        if args.backend not in backend_names():
            parser.error(
                f"--backend: unknown backend {args.backend!r}; "
                f"choose from {', '.join(backend_names())}"
            )
        overlay["REPRO_BACKEND"] = args.backend
    for layer in LAYERS:
        spec = flags[layer.env]
        if layer.out_flag and flags[layer.dir_env] is not None:
            overlay[layer.dir_env] = flags[layer.dir_env]
            spec = spec or "1"
        if spec is None:
            continue
        try:
            layer.parse_spec(spec)
        except ValueError as exc:
            parser.error(f"{layer.flag}: {exc}")
        overlay[layer.env] = spec
    return RunOptions.from_env(overlay)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analysis":
        # ``catnap-experiments analysis lint ...`` forwards to the
        # static-analysis CLI so one entry point covers both halves.
        from repro.analysis.cli import main as analysis_main

        return analysis_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or args.experiment is None:
        for name in EXPERIMENTS:
            print(name)
        return 0
    options = _run_options(parser, args)
    if args.experiment == "all":
        names = list(PAPER_EXPERIMENTS)
    elif args.experiment == "ablations":
        names = [name for name in EXPERIMENTS if name.startswith("abl_")]
    else:
        names = [args.experiment]
    from repro.obs.ledger import ArtifactObserver, LedgerObserver

    sweeps = _SweepLog()
    observers: list[runner.SweepObserver] = [
        runner.ProgressObserver(verbose=args.progress),
        sweeps,
        ArtifactObserver(),
    ]
    if args.ledger or env.flag("REPRO_OBS"):
        observers.append(LedgerObserver())
    previous = install_run_options(options)
    runner.set_default_observers(*observers)
    try:
        for name in names:
            first_sweep = len(sweeps)
            # perf_counter, not time.time: wall-clock is not monotonic
            # (NTP steps would corrupt the elapsed figure) — SIM003.
            started = time.perf_counter()
            result = run_experiment(name, args.scale, args.workload)
            table = render_experiment(
                result, percentiles=args.percentiles
            )
            elapsed = time.perf_counter() - started
            print(table)
            print(
                f"[{name} finished in {elapsed:.1f}s"
                f"{_summary(sweeps[first_sweep:], elapsed)}]\n"
            )
            if name == "fig08":
                print("Headline:", headline_summary(result), "\n")
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                (args.out / f"{name}.txt").write_text(table + "\n")
    finally:
        runner.set_default_observers()
        install_run_options(previous)
    if args.stats_out is not None:
        import json

        args.stats_out.parent.mkdir(parents=True, exist_ok=True)
        args.stats_out.write_text(
            json.dumps(
                {
                    "schema": "repro.obs/1",
                    "sweeps": [stats.to_json() for stats in sweeps],
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
