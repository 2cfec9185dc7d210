"""``python -m repro.explain`` — inspect attribution artifacts.

Subcommands::

    show                 per-artifact attribution summary
    blame [--top-k N]    worst wakeup-stalled packets across artifacts
    tax                  per-subnet wakeup-tax and energy-per-flit

All verbs read the ``*.explain.json`` artifacts under ``--dir``
(default ``$REPRO_EXPLAIN_DIR`` or ``results/explain``) that an
``--explain`` run flushed.  Exit codes: 0 on success, 1 when no
artifact could be read, 2 for argparse errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.explain.hub import PHASE_NAMES
from repro.noc.layers import BY_NAME, RunOptions
from repro.obs.artifacts import classify_artifact, read_json_artifact
from repro.util.tables import format_table

__all__ = ["main"]


def _load_documents(directory: str) -> list[tuple[str, dict]]:
    """Every readable (path, document) under ``directory``, sorted."""
    documents: list[tuple[str, dict]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return documents
    for name in names:
        if classify_artifact(name) != "explain-attribution":
            continue
        path = os.path.join(directory, name)
        doc = read_json_artifact(path)
        if doc is not None and doc.get("schema") == "repro.explain/1":
            documents.append((path, doc))
    return documents


def _show(documents: list[tuple[str, dict]]) -> str:
    rows = []
    for path, doc in documents:
        latency = doc.get("latency")
        row: dict[str, object] = {
            "config": doc.get("config", "?"),
            "seed": doc.get("seed", "?"),
            "cycles": doc.get("cycles", 0),
        }
        if latency:
            packets = latency.get("packets", 0)
            totals = latency.get("phase_totals", {})
            total_cycles = latency.get("latency_cycles", 0)
            row["packets"] = packets
            row["unfinished"] = latency.get("unfinished", 0)
            row["headless"] = latency.get("headless", 0)
            row["mismatches"] = latency.get("phase_mismatches", 0)
            row["wakeup_frac"] = (
                totals.get("wakeup_stall", 0) / total_cycles
                if total_cycles
                else 0.0
            )
        row["artifact"] = os.path.basename(path)
        rows.append(row)
    return format_table(rows, title="attribution artifacts:")


def _blame(documents: list[tuple[str, dict]], top_k: int) -> str:
    stall_index = PHASE_NAMES.index("wakeup_stall")
    candidates = []
    for _path, doc in documents:
        latency = doc.get("latency")
        if not latency:
            continue
        config = doc.get("config", "?")
        for record in latency.get("records", ()):
            phases = record[6:]
            candidates.append(
                {
                    "config": config,
                    "packet": record[0],
                    "src": record[1],
                    "dst": record[2],
                    "subnet": record[3],
                    "latency": record[5] - record[4],
                    "wakeup_stall": phases[stall_index],
                    "ni_queue": phases[0],
                    "selection_stall": phases[1],
                }
            )
    candidates.sort(
        key=lambda row: (-row["wakeup_stall"], -row["latency"],
                         row["config"], row["packet"]),
    )
    return format_table(
        candidates[:top_k],
        title=f"top {top_k} wakeup-stalled packets:",
    )


def _tax(documents: list[tuple[str, dict]]) -> str:
    rows = []
    for _path, doc in documents:
        tax = doc.get("tax", {})
        for entry in tax.get("per_subnet", ()):
            row: dict[str, object] = {
                "config": doc.get("config", "?"),
                "seed": doc.get("seed", "?"),
            }
            row.update(entry)
            energy = row.pop("energy_j", None)
            if energy is not None:
                row["energy_uj"] = round(energy * 1e6, 3)
            per_flit = row.pop("energy_per_flit_j", None)
            if per_flit is not None:
                row["energy_per_flit_pj"] = round(per_flit * 1e12, 6)
            rows.append(row)
    return format_table(
        rows, title="per-subnet wakeup tax / energy per flit:"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explain",
        description=(
            "Inspect attribution artifacts (see docs/explain.md)."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--dir",
        default=None,
        help=(
            "artifact directory (default: $REPRO_EXPLAIN_DIR or "
            "results/explain)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "show",
        parents=[common],
        help="per-artifact attribution summary",
    )
    blame = sub.add_parser(
        "blame",
        parents=[common],
        help="worst wakeup-stalled packets",
    )
    blame.add_argument(
        "--top-k",
        type=int,
        default=10,
        help="number of packets to show (default 10)",
    )
    sub.add_parser(
        "tax",
        parents=[common],
        help="per-subnet wakeup tax and energy per flit",
    )

    args = parser.parse_args(argv)
    directory = args.dir
    if directory is None:
        # Where an --explain run writes: $REPRO_EXPLAIN_DIR or the default.
        explain = BY_NAME["explain"]
        directory = RunOptions.from_env({explain.env: "1"}).out_dir(explain)
    documents = _load_documents(directory)
    if not documents:
        print(
            f"explain: no attribution artifacts under {directory}",
            file=sys.stderr,
        )
        return 1
    if args.command == "show":
        print(_show(documents))
    elif args.command == "blame":
        print(_blame(documents, max(1, args.top_k)))
    else:
        print(_tax(documents))
    return 0
