"""Fault-injection command line: ``python -m repro.faults``.

``campaign`` runs a (fault-class × rate × countermeasure) grid over the
sweep runner and prints the survival table plus an ASCII
survival-vs-rate chart (see docs/faults.md).  ``plan`` compiles a fault
spec into its deterministic event schedule without simulating — useful
for inspecting what a given ``REPRO_FAULTS`` string will inject.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.faults.campaign import (
    DEFAULT_CLASSES,
    DEFAULT_RATES,
    campaign_config,
    render_campaign,
    run_campaign,
)
from repro.faults.spec import (
    FAULT_CLASSES,
    compile_schedule,
    parse_fault_spec,
)

if TYPE_CHECKING:
    from repro.experiments.common import ExperimentResult

__all__ = ["main"]


def _comma_list(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


def _comma_floats(value: str) -> tuple[float, ...]:
    return tuple(float(item) for item in _comma_list(value))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic NoC fault-injection campaigns.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    campaign = subparsers.add_parser(
        "campaign",
        help="run a fault-rate x fault-class resilience grid",
    )
    campaign.add_argument(
        "--classes",
        type=_comma_list,
        default=DEFAULT_CLASSES,
        metavar="A,B,...",
        help=f"fault classes (default {','.join(DEFAULT_CLASSES)}; "
        f"known: {','.join(FAULT_CLASSES)})",
    )
    campaign.add_argument(
        "--rates",
        type=_comma_floats,
        default=DEFAULT_RATES,
        metavar="R,R,...",
        help="per-cycle arming probabilities "
        f"(default {','.join(map(str, DEFAULT_RATES))})",
    )
    campaign.add_argument(
        "--pattern", default="uniform", help="traffic pattern"
    )
    campaign.add_argument(
        "--load", type=float, default=0.30, help="offered load"
    )
    campaign.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="cycle-count scale factor (CI smoke uses < 1)",
    )
    campaign.add_argument(
        "--seed", type=int, default=42, help="fabric/traffic seed"
    )
    campaign.add_argument(
        "--fault-seed", type=int, default=1, help="fault schedule seed"
    )
    campaign.add_argument(
        "--window", type=int, default=64, help="fault window (cycles)"
    )
    campaign.add_argument(
        "--jobs", type=int, default=None, help="worker count"
    )
    campaign.add_argument(
        "--ledger",
        action="store_true",
        help="record the campaign sweep to a run ledger under "
        "results/obs/ (inspect with `python -m repro.obs`)",
    )

    plan = subparsers.add_parser(
        "plan",
        help="compile a fault spec and print its event schedule",
    )
    plan.add_argument(
        "spec",
        nargs="?",
        default="1",
        help="REPRO_FAULTS spec string (default: all defaults)",
    )

    args = parser.parse_args(argv)

    if args.command == "plan":
        spec = parse_fault_spec(args.spec)
        config = campaign_config()
        from repro.noc.topology import ConcentratedMesh

        mesh = ConcentratedMesh(
            config.mesh_cols, config.mesh_rows, config.tiles_per_node
        )
        events = compile_schedule(spec, config, mesh)
        print(f"spec: {spec.to_string()}")
        print(f"{len(events)} event(s) on {config.name}:")
        for event in events:
            print(json.dumps(event.key(), sort_keys=True))
        return 0

    from repro.util import env

    if args.ledger or env.flag("REPRO_OBS"):
        # The campaign driver calls run_sweep without observers, so the
        # ledger attaches through the runner's default observers
        # (cleared on the way out, crash or not).
        from repro.experiments import runner
        from repro.obs.ledger import LedgerObserver

        runner.set_default_observers(LedgerObserver())
        try:
            result = _run_campaign(args)
        finally:
            runner.set_default_observers()
    else:
        result = _run_campaign(args)
    print(render_campaign(result))
    return 0


def _run_campaign(args: argparse.Namespace) -> "ExperimentResult":
    return run_campaign(
        classes=args.classes,
        rates=args.rates,
        pattern=args.pattern,
        load=args.load,
        scale=args.scale,
        seed=args.seed,
        fault_seed=args.fault_seed,
        window=args.window,
        jobs=args.jobs,
    )


if __name__ == "__main__":
    sys.exit(main())
