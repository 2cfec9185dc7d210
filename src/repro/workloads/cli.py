"""``python -m repro.workloads`` — record / info / replay / gen.

Usage::

    python -m repro.workloads record --workload llm:batch=8 \\
        --config multi4 --cycles 20000 --out run.ctr
    python -m repro.workloads gen --workload tenants:rates=0.1,0.1 \\
        --config small --cycles 500000 --packets 1000000 --out big.ctr
    python -m repro.workloads info big.ctr
    python -m repro.workloads replay big.ctr --config small \\
        --backend skip --rss-limit-mb 200

``record`` simulates a fabric while streaming everything the workload
offers to disk; ``gen`` synthesizes the same trace without simulating
the network (fast enough for million-packet CI smokes); ``info``
summarizes a file from its chunk headers alone; ``replay`` streams a
trace through a fresh fabric and prints the canonical report digest —
byte-identical across ``dense`` and ``skip`` backends — plus the peak
RSS so bounded-memory replay is enforceable in CI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.noc.backend import NEVER, backend_names
from repro.noc.config import NocConfig, PowerGatingConfig
from repro.traffic.trace import RecordingSource, TraceRecord
from repro.util import env

__all__ = ["main", "CONFIG_NAMES"]

#: Named fabric configurations accepted by ``--config``.
_CONFIG_FACTORIES = {
    "small": lambda: NocConfig(
        mesh_cols=4,
        mesh_rows=4,
        num_subnets=2,
        link_width_bits=128,
        voltage_v=0.625,
        gating=PowerGatingConfig(enabled=True),
    ),
    "multi4": lambda: NocConfig.multi_noc(4, power_gating=True),
    "multi8": lambda: NocConfig.multi_noc(8, power_gating=True),
    "single512": lambda: NocConfig.single_noc_512(power_gating=True),
    "mesh64": lambda: NocConfig.mesh_64_core(2, power_gating=True),
}

CONFIG_NAMES = tuple(sorted(_CONFIG_FACTORIES))

#: Cycles per backend span during replay (span boundaries are where
#: backends guarantee byte-identical state).
_REPLAY_SPAN = 8192


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _default_out(kind: str, seed: int) -> Path:
    directory = Path(env.text("REPRO_WORKLOADS_DIR", "results/workloads"))
    return directory / f"{kind}-seed{seed}.ctr"


def _resolve_out(args, kind: str) -> Path:
    out = args.out or _default_out(kind, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


class _CaptureFabric:
    """Mesh-only fabric stand-in: ``offer`` writes trace records.

    Lets ``gen`` drive any workload source at full generator speed —
    no routers, no flits — which is what makes million-packet trace
    synthesis a seconds-scale CI step.
    """

    def __init__(self, mesh, writer) -> None:
        self.mesh = mesh
        self.writer = writer
        self.cycle = 0

    def offer(self, packet) -> None:
        self.writer.append(
            TraceRecord(
                cycle=self.cycle,
                src=packet.src,
                dst=packet.dst,
                size_bits=packet.size_bits,
                message_class=packet.message_class,
                tenant=packet.tenant,
            )
        )


def _cmd_record(args) -> int:
    from repro.noc.multinoc import MultiNocFabric
    from repro.workloads.spec import make_workload_source, parse_workload_spec
    from repro.workloads.stream import StreamingTraceWriter

    spec = parse_workload_spec(args.workload)
    out = _resolve_out(args, spec.kind)
    config = _CONFIG_FACTORIES[args.config]()
    fabric = MultiNocFabric(config, seed=args.seed)
    inner = make_workload_source(fabric, spec, seed=args.seed)
    with StreamingTraceWriter(out, args.chunk) as writer:
        source = RecordingSource(fabric, inner, writer)
        fabric.backend.run(args.cycles, source)
        recorded = writer.records_written
    print(
        f"recorded {recorded} packets over {args.cycles} cycles "
        f"({config.name}, workload {spec.to_text()}) -> {out}"
    )
    return 0


def _cmd_gen(args) -> int:
    from repro.noc.topology import ConcentratedMesh
    from repro.workloads.spec import make_workload_source, parse_workload_spec
    from repro.workloads.stream import StreamingTraceWriter

    spec = parse_workload_spec(args.workload)
    if spec.kind == "trace":
        print("gen: cannot generate from a trace workload", file=sys.stderr)
        return 2
    out = _resolve_out(args, spec.kind)
    config = _CONFIG_FACTORIES[args.config]()
    mesh = ConcentratedMesh(
        config.mesh_cols, config.mesh_rows, config.tiles_per_node
    )
    with StreamingTraceWriter(out, args.chunk) as writer:
        shim = _CaptureFabric(mesh, writer)
        source = make_workload_source(shim, spec, seed=args.seed)
        cycle = 0
        while cycle < args.cycles:
            shim.cycle = cycle
            source.step(cycle)
            if args.packets and writer.records_written >= args.packets:
                break
            horizon = source.next_offer_cycle(cycle + 1)
            if horizon >= NEVER:
                break
            cycle = max(cycle + 1, horizon)
        generated = writer.records_written
        last_cycle = shim.cycle
    print(
        f"generated {generated} packets over {last_cycle + 1} cycles "
        f"({config.name} mesh, workload {spec.to_text()}) -> {out}"
    )
    return 0


def _cmd_info(args) -> int:
    from repro.workloads.stream import trace_info

    info = trace_info(args.trace)
    width = max(len(key) for key in info)
    for key, value in info.items():
        print(f"{key:<{width}}  {value if value is not None else '-'}")
    return 0


def _cmd_replay(args) -> int:
    from repro.noc.multinoc import MultiNocFabric
    from repro.workloads.point import report_digest, sleep_fractions
    from repro.workloads.spec import open_trace_source

    config = _CONFIG_FACTORIES[args.config]()
    fabric = MultiNocFabric(config, seed=args.seed, backend=args.backend)
    source = open_trace_source(fabric, str(args.trace))
    fabric.stats.begin_measurement(0)
    while not source.exhausted:
        fabric.backend.run(_REPLAY_SPAN, source)
    fabric.stats.end_measurement(fabric.cycle)
    drained = fabric.drain()
    report = fabric.report()
    print(
        f"replayed {source.packets_generated} packets over "
        f"{report.cycles} cycles ({config.name}, backend "
        f"{args.backend or 'env/default'}, drained={drained})"
    )
    print(
        f"latency avg={report.avg_packet_latency:.2f} "
        f"p50={report.latency_p50:.0f} p99={report.latency_p99:.0f} "
        f"offered={report.offered_rate:.4f} "
        f"throughput={report.throughput_packets:.4f}"
    )
    sleep = sleep_fractions(report)
    if any(sleep):
        cells = "/".join(f"{fraction:.3f}" for fraction in sleep)
        print(f"sleep_frac per subnet: {cells}")
    for tenant in report.tenants:
        print(
            f"tenant {tenant['tenant']}: received={tenant['received']} "
            f"p99={tenant['latency_p99']:.0f}"
        )
    print(f"digest: {report_digest(report)}")
    rss = _peak_rss_mb()
    limit = f" (limit {args.rss_limit_mb:.0f} MB)" if args.rss_limit_mb else ""
    print(f"peak rss: {rss:.1f} MB{limit}")
    if args.rss_limit_mb and rss > args.rss_limit_mb:
        print(
            f"replay exceeded the RSS ceiling: {rss:.1f} MB > "
            f"{args.rss_limit_mb:.0f} MB",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_common(parser: argparse.ArgumentParser, gen: bool) -> None:
    parser.add_argument(
        "--workload",
        required=True,
        metavar="SPEC",
        help="workload spec (see docs/workloads.md), e.g. llm:batch=8",
    )
    parser.add_argument(
        "--config",
        choices=CONFIG_NAMES,
        default="multi4",
        help="named fabric configuration (default multi4)",
    )
    parser.add_argument(
        "--cycles",
        type=int,
        required=True,
        help="cycles to run the workload for",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="deterministic seed (default 7)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output trace path (default under REPRO_WORKLOADS_DIR)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="N",
        help="records per compressed chunk (default 65536)",
    )
    if gen:
        parser.add_argument(
            "--packets",
            type=int,
            default=None,
            metavar="N",
            help="stop after generating N packets",
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Record, inspect, generate, and replay "
        "streaming traffic traces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    record = commands.add_parser(
        "record", help="simulate a workload and record its trace"
    )
    _add_common(record, gen=False)

    gen = commands.add_parser(
        "gen", help="synthesize a trace without simulating the network"
    )
    _add_common(gen, gen=True)

    info = commands.add_parser("info", help="summarize a streaming trace")
    info.add_argument("trace", type=Path)

    replay = commands.add_parser(
        "replay", help="stream a trace through a fresh fabric"
    )
    replay.add_argument("trace", type=Path)
    replay.add_argument(
        "--config",
        choices=CONFIG_NAMES,
        default="multi4",
        help="named fabric configuration (default multi4)",
    )
    replay.add_argument("--seed", type=int, default=7)
    replay.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help="simulation kernel (default: REPRO_BACKEND or dense)",
    )
    replay.add_argument(
        "--rss-limit-mb",
        type=float,
        default=None,
        metavar="MB",
        help="fail (exit 1) if peak RSS exceeds this many MB",
    )

    args = parser.parse_args(argv)
    if args.command in ("record", "gen"):
        from repro.workloads.spec import parse_workload_spec

        try:
            parse_workload_spec(args.workload)
        except ValueError as exc:
            parser.error(f"--workload: {exc}")
    handler = {
        "record": _cmd_record,
        "gen": _cmd_gen,
        "info": _cmd_info,
        "replay": _cmd_replay,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - module smoke
    sys.exit(main())
