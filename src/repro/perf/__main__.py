"""Perf command line: ``python -m repro.perf``.

``compare OLD NEW [--threshold PCT]`` diffs two benchmark directories
(``BENCH_*.json`` records, see :mod:`repro.perf.bench`): exit status 0
when nothing regressed beyond the threshold, 1 on a regression.  New
benchmarks with no baseline, benchmarks missing from the new set, and
scale-mismatched pairs are reported but never fail the comparison —
CI's soft gate relies on that contract.

``show PATH ...`` pretty-prints ``*.perf.json`` phase-profile
artifacts written by the profiler (``REPRO_PERF=1`` / ``--perf``):
the run's throughput, the kernel that ran it (backend, profiled steps,
jumped and deferred cycles) and the phase table.  Keys it does not
know, such as the ``router_stages`` table of older artifacts, are
ignored; so is a missing kernel line.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.perf.bench import DEFAULT_THRESHOLD_PCT, compare_bench_dirs
from repro.util.tables import format_table

__all__ = ["main"]


def _show_profile(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"{path}: unreadable ({exc})", file=sys.stderr)
        return 1
    throughput = doc.get("throughput", {})
    print(
        f"{path}: {doc.get('config')} seed={doc.get('seed')} "
        f"steps={doc.get('steps_profiled')} "
        f"step_wall={doc.get('step_seconds', 0.0):.3f}s "
        f"({throughput.get('steps_per_sec', 0.0):,.0f} steps/s, "
        f"{throughput.get('flits_per_sec', 0.0):,.0f} flits/s)"
    )
    if "backend" in doc:
        print(
            f"kernel: backend={doc['backend']} "
            f"steps={doc.get('steps_profiled')} "
            f"jumped={doc.get('cycles_jumped')} "
            f"deferred={doc.get('cycles_deferred')} "
            f"cycles={doc.get('cycles')}"
        )
    rows = [
        {
            "phase": name,
            "seconds": entry.get("seconds", 0.0),
            "share_pct": 100.0 * entry.get("share", 0.0),
        }
        for name, entry in doc.get("phases", {}).items()
    ]
    if rows:
        print(format_table(rows, ["phase", "seconds", "share_pct"]))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Simulator-performance tooling.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    compare = subparsers.add_parser(
        "compare",
        help="diff two BENCH_*.json directories for regressions",
    )
    compare.add_argument("old", help="baseline bench directory")
    compare.add_argument("new", help="candidate bench directory")
    compare.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help="regression threshold in percent "
        f"(default {DEFAULT_THRESHOLD_PCT:g})",
    )
    show = subparsers.add_parser(
        "show", help="pretty-print *.perf.json profile artifacts"
    )
    show.add_argument("paths", nargs="+", help="profile artifact files")
    args = parser.parse_args(argv)
    if args.command == "compare":
        comparison = compare_bench_dirs(
            args.old, args.new, threshold_pct=args.threshold
        )
        print(comparison.render())
        return comparison.exit_code
    failures = 0
    for path in args.paths:
        failures += _show_profile(path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
