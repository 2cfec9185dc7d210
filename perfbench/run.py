#!/usr/bin/env python3
"""Simulator benchmark: host throughput per kernel, and a per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload uniform-busy --seed 42 \\
        --seconds 36 --trace 0

``--trace 0`` times the workload's sweep point through
``repro.experiments.runner.execute_point`` on the ``dense`` and
``skip`` kernels in alternation until ``--seconds`` have passed.  ``--trace 1`` runs the point once untraced and once
traced on each kernel and reports the per-layer split (see
``perfbench/README.md``).  Each run first prints one JSON line with
the per-kernel operation counts, the host fingerprint and a fixed
calibration loop's time; its last line is the JSON result.

Every operation is checked: its canonical row digest must equal the
other kernel's, and for the default seed the digest pinned in
``perfbench/expected_digests.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import LayerTotals, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
EXPECTED = HERE / "expected_digests.json"
KERNELS = ("dense", "skip")
DEFAULT_SEED = 42

#: Host time is CPU time of this process: time the scheduler spends on
#: other processes does not count against the simulator.
clock = time.process_time

#: Metric name -> unit, as printed with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "sim_cycles_per_s.dense": "1/s",
    "sim_cycles_per_s.skip": "1/s",
    "peak_rss_mb": "MB",
}

#: Metric name -> unit, as printed with ``--trace 1``.  A metric that
#: does not apply to a workload (``coherence.*`` on an open loop) is 0.
PER_LAYER = {
    "router.ns_per_cycle": "ns",
    "router.ns_per_flit": "ns",
    "link.ns_per_cycle": "ns",
    "ni.ns_per_cycle": "ns",
    "ni.ns_per_flit_injected": "ns",
    "gating.ns_per_cycle": "ns",
    "monitor.ns_per_cycle": "ns",
    "rcs.ns_per_cycle": "ns",
    "step.self_ns_per_cycle": "ns",
    "source.ns_per_cycle": "ns",
    "coherence.ns_per_cycle": "ns",
    "system.self_ns_per_cycle": "ns",
    "trace.overhead_frac": "ratio",
    "backend.visited_frac": "ratio",
    "backend.kernel_ns_per_cycle": "ns",
    "stream.decode_ns_per_record": "ns",
    "work.cycles": "count",
    "work.flits": "count",
    "work.packets": "count",
    "router.flits_per_active_router_cycle": "flit/cycle",
    "gating.sleep_frac": "ratio",
    "gating.wake_requests": "count",
    "rcs.transitions": "count",
    "system.transactions": "count",
}

#: Set-up samples taken before the first operation (one more is
#: taken before every operation).
SETUP_PRELUDE = 4

#: Summary of a span name that never occurred.
NO_SPANS = LayerTotals(0, 0, 0)

#: Dense/skip pairs every end-to-end run makes, whatever ``--seconds``
#: says (a diurnal pair takes about 15 s on a 2-core Xeon VM).
MIN_PAIRS = 2


def calibration_seconds() -> float:
    """CPU time of a fixed pure-Python loop (host drift, not scored)."""
    started = clock()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return clock() - started


def row_digest(rows: list[dict]) -> str:
    """sha256 of the rows in canonical JSON."""
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """Operations of one run: timing, digests and the gate."""

    def __init__(self, workload, pinned: str | None) -> None:
        from repro.experiments.runner import execute_point
        from repro.perf import meters

        self.workload = workload
        self.pinned = pinned
        self._execute = execute_point
        self._work = meters.WORK
        self.ops: list[dict] = []
        self.setup_samples: list[float] = []

    def time_setup(self) -> None:
        """Construct the workload's system once, outside any point."""
        gc.collect()
        started = clock()
        self.workload.build()
        self.setup_samples.append(clock() - started)

    def run(self, spec, kernel: str, record: bool = True) -> dict:
        """Execute ``spec`` on ``kernel``; one operation when ``record``."""
        os.environ["REPRO_BACKEND"] = kernel
        gc.collect()
        cycles0, flits0 = self._work.snapshot()
        started = clock()
        op = {"kernel": kernel, "digest": None, "error": None}
        try:
            rows = self._execute(spec)
        except Exception as exc:  # a failed operation, reported below
            op["error"] = f"{type(exc).__name__}: {exc}"
        else:
            op["seconds"] = clock() - started
            op["digest"] = row_digest(self.workload.canonical_rows(rows))
        op["cycles"] = self._work.cycles - cycles0
        op["flits"] = self._work.flits - flits0
        if record:
            self.ops.append(op)
        return op

    def gate(self) -> None:
        """Mark each operation failed or passed.

        An operation fails when it raised, when its digest differs
        from the first digest the other kernel produced, or (default
        seed) when it differs from the pinned digest.  All digests of
        one kernel must therefore match too.
        """
        first = {}
        for op in self.ops:
            if op["digest"] is not None:
                first.setdefault(op["kernel"], op["digest"])
        for op in self.ops:
            other = "skip" if op["kernel"] == "dense" else "dense"
            reasons = []
            if op["error"]:
                reasons.append(op["error"])
            elif op["digest"] != first.get(other, op["digest"]):
                reasons.append(f"digest differs from {other}")
            if (
                not op["error"]
                and self.pinned is not None
                and op["digest"] != self.pinned
            ):
                reasons.append("digest differs from the pinned digest")
            op["failed"] = bool(reasons)
            op["reasons"] = reasons

    def counts(self) -> dict[str, dict[str, int]]:
        """Operations attempted and failed, per kernel."""
        table = {kernel: {"attempted": 0, "failed": 0} for kernel in KERNELS}
        for op in self.ops:
            table[op["kernel"]]["attempted"] += 1
            table[op["kernel"]]["failed"] += int(op["failed"])
        return table

    def rates(self, kernel: str) -> list[float]:
        """Simulated cycles per host second of each passing operation."""
        return [
            op["cycles"] / op["seconds"]
            for op in self.ops
            if op["kernel"] == kernel and not op["failed"] and op["seconds"]
        ]


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternate dense and skip until ``seconds`` of wall time pass."""
    workload = bench.workload
    spec = workload.point()
    deadline = time.perf_counter() + seconds
    for _ in range(SETUP_PRELUDE):
        bench.time_setup()
    pair = 0
    while True:
        pair_started = time.perf_counter()
        order = KERNELS if pair % 2 == 0 else KERNELS[::-1]
        for kernel in order:
            bench.time_setup()
            bench.run(spec, kernel)
        pair += 1
        now = time.perf_counter()
        # At least MIN_PAIRS; after that, start another pair only if it
        # should end before the deadline.
        if pair >= MIN_PAIRS and now + (now - pair_started) > deadline:
            break
    bench.gate()
    metrics = {"setup_s": statistics.median(bench.setup_samples)}
    extra = {"setup_samples_s": bench.setup_samples}
    for kernel in KERNELS:
        rates = bench.rates(kernel)
        # The slowest call, not the median: on a shared host the rate
        # jumps up while neighbours idle, and how often they idle is
        # what varies from run to run (README, "Steadiness").
        metrics[f"sim_cycles_per_s.{kernel}"] = min(rates, default=0.0)
        extra[f"cycles_per_s.{kernel}"] = rates
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, extra


def _instrument(recorder, full: bool, captured: dict):
    """Construction hooks that attach ``recorder`` to new instances.

    ``full`` wraps every fabric phase (the dense split); otherwise only
    the traffic producer and the time loop are wrapped, so the skip
    kernel keeps its own path.
    """
    from repro.noc.multinoc import MultiNocFabric
    from repro.system.processor import Processor

    def on_fabric(fabric) -> None:
        wrapped: set[int] = set()

        def wrap_source(cycles, source=None) -> None:
            if source is not None and id(source) not in wrapped:
                wrapped.add(id(source))
                recorder.wrap(source, "step", "source.step")
                recorder.wrap(
                    source, "next_offer_cycle", "source.next_offer_cycle"
                )

        recorder.hook(fabric.backend, "run", before=wrap_source)
        recorder.wrap(fabric.backend, "run", "backend.run")
        if not full:
            return
        recorder.hook(
            fabric, "report", after=lambda report: captured.update(
                report=report
            )
        )
        recorder.wrap(fabric, "step", "fabric.step")
        for network in fabric.subnets:
            recorder.wrap(network, "deliver_arrivals", "link")
            recorder.wrap(network, "step_routers", "router")
        recorder.wrap(fabric.monitor, "update", "monitor")
        recorder.wrap(fabric.monitor.regional, "update", "rcs")
        for ni in fabric.nis:
            recorder.wrap(ni, "step", "ni")
        recorder.wrap(fabric.gating, "step", "gating")

    def on_processor(processor) -> None:
        engine = processor.engine
        recorder.wrap(
            engine, "process_due", "coherence.process_due"
        )
        if full:
            recorder.wrap(
                engine, "start_transaction", "coherence.start_transaction"
            )
            recorder.hook(
                processor, "run", after=lambda result: captured.update(
                    result=result
                )
            )
        recorder.wrap(processor, "run", "system.run")

    return [(MultiNocFabric, on_fabric), (Processor, on_processor)]


def traced_run(bench: Bench, spec, kernel: str, full: bool):
    """One operation with a recorder attached to what it constructs."""
    recorder = SpanRecorder()
    captured: dict = {}
    originals = []
    for cls, attach in _instrument(recorder, full, captured):
        original = cls.__init__

        def init(self, *args, _original=original, _attach=attach, **kw):
            _original(self, *args, **kw)
            _attach(self)

        originals.append((cls, original))
        cls.__init__ = init
    try:
        op = bench.run(spec, kernel)
    finally:
        for cls, original in originals:
            cls.__init__ = original
        recorder.detach()
    return op, recorder, captured


def decode_ns_per_record(path: Path | None) -> float:
    """Median over five passes of a streaming-trace decode, per record."""
    if path is None:
        return 0.0
    from repro.workloads.stream import StreamingTraceReader

    reader = StreamingTraceReader(path)
    samples = []
    for _ in range(5):
        started = time.perf_counter_ns()
        records = sum(1 for _ in reader)
        samples.append((time.perf_counter_ns() - started) / records)
    return statistics.median(samples)


def measure_layers(bench: Bench) -> tuple[dict, dict]:
    """The traced runs: dense split, skip visit fraction, decode cost."""
    workload = bench.workload
    spec = workload.point()
    plain = bench.run(spec, "dense")
    traced, dense, captured = traced_run(bench, spec, "dense", full=True)
    skip_op, skip, _ = traced_run(bench, spec, "skip", full=False)
    bench.gate()
    checks: dict[str, bool] = {}
    cycles = plain["cycles"] or 1
    layers = dense.summary()
    skip_layers = skip.summary()

    def dense_span(label: str) -> LayerTotals:
        return layers.get(label, NO_SPANS)

    def skip_span(label: str) -> LayerTotals:
        return skip_layers.get(label, NO_SPANS)

    report = captured.get("report")
    activity = report.activity if report else []
    gating = report.gating if report else []
    traversals = sum(row["crossbar_traversals"] for row in activity)
    injected = sum(row["flits_injected"] for row in activity)
    active = sum(stats.active_cycles for stats in gating)
    router_cycles = sum(stats.total_cycles for stats in gating)
    result = captured.get("result")
    router_ns = dense_span("router").total_ns
    ni_ns = dense_span("ni").total_ns
    coherence_ns = (
        dense_span("coherence.process_due").self_ns
        + dense_span("coherence.start_transaction").self_ns
    )
    source_ns = (
        dense_span("source.step").self_ns
        + dense_span("source.next_offer_cycle").self_ns
    )
    if workload.closed_loop:
        # Processor.run is the time loop; its per-cycle producer call
        # is process_due, the analogue of an open loop's source.step.
        visits = skip_span("coherence.process_due").count
        loop_ns = skip_span("system.run").total_ns
        producer_ns = skip_span("coherence.process_due").self_ns
    else:
        visits = skip_span("source.step").count
        loop_ns = skip_span("backend.run").total_ns
        producer_ns = (
            skip_span("source.step").self_ns
            + skip_span("source.next_offer_cycle").self_ns
        )
    metrics = {
        "router.ns_per_cycle": router_ns / cycles,
        "router.ns_per_flit": router_ns / max(traversals, 1),
        "link.ns_per_cycle": dense_span("link").total_ns / cycles,
        "ni.ns_per_cycle": ni_ns / cycles,
        "ni.ns_per_flit_injected": ni_ns / max(injected, 1),
        "gating.ns_per_cycle": dense_span("gating").total_ns / cycles,
        "monitor.ns_per_cycle": dense_span("monitor").self_ns / cycles,
        "rcs.ns_per_cycle": dense_span("rcs").total_ns / cycles,
        "step.self_ns_per_cycle": dense_span("fabric.step").self_ns / cycles,
        "source.ns_per_cycle": source_ns / cycles,
        "coherence.ns_per_cycle": coherence_ns / cycles,
        "system.self_ns_per_cycle": dense_span("system.run").self_ns / cycles,
        "trace.overhead_frac": (
            traced["seconds"] / plain["seconds"] - 1.0
            if traced.get("seconds") and plain.get("seconds")
            else 0.0
        ),
        "backend.visited_frac": visits / cycles,
        "backend.kernel_ns_per_cycle": (loop_ns - producer_ns) / cycles,
        "stream.decode_ns_per_record": decode_ns_per_record(
            workload.trace_path
        ),
        "work.cycles": plain["cycles"],
        "work.flits": plain["flits"],
        "work.packets": sum(row["packets_ejected"] for row in activity),
        "router.flits_per_active_router_cycle": (
            traversals / active if active else 0.0
        ),
        "gating.sleep_frac": (
            sum(stats.sleep_cycles for stats in gating) / router_cycles
            if router_cycles
            else 0.0
        ),
        "gating.wake_requests": sum(
            stats.wake_requests for stats in gating
        ),
        "rcs.transitions": report.rcs_transitions if report else 0,
        "system.transactions": (
            result.transactions_completed if result else 0
        ),
    }
    checks["traced digest equals untraced"] = (
        traced["digest"] is not None and traced["digest"] == plain["digest"]
    )
    checks["one fabric.step span per cycle"] = (
        dense_span("fabric.step").count == plain["cycles"]
    )
    checks["phases + step.self == fabric.step"] = (
        dense.partition_error("fabric.step") == 0
    )
    checks["children + system.self == system.run"] = (
        dense.partition_error("system.run") == 0
    )
    if workload.trace_path is not None:
        checks["skip jumps (visited_frac < 1)"] = (
            metrics["backend.visited_frac"] < 1.0
        )
    extra = {
        "checks": checks,
        "spans": {"dense": len(dense.start), "skip": len(skip.start)},
        "skip_seconds": skip_op.get("seconds"),
    }
    return metrics, extra


def load_pinned(workload: str, seed: int) -> str | None:
    """The pinned digest for ``workload`` at the default seed."""
    if seed != DEFAULT_SEED:
        return None
    pinned = json.loads(EXPECTED.read_text())
    return pinned.get(workload)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no simulator sources under {ROOT / 'src'}; run "
            "from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import suite

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Run on the plain simulator: no instrumentation layer, no cache.
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]

    from repro.perf.bench import host_fingerprint

    calibration = [calibration_seconds()]
    workload = suite.WORKLOADS[args.workload](args.seed, WORKDIR)
    bench = Bench(workload, load_pinned(args.workload, args.seed))
    for kernel in KERNELS:
        bench.run(workload.warm_point(), kernel, record=False)
    if args.trace:
        metrics, extra = measure_layers(bench)
        units = PER_LAYER
    else:
        metrics, extra = measure_end_to_end(bench, args.seconds)
        units = END_TO_END
    calibration.append(calibration_seconds())
    counts = bench.counts()
    attempted = sum(row["attempted"] for row in counts.values())
    failed = sum(row["failed"] for row in counts.values())
    correct = failed == 0 and all(extra.get("checks", {}).values())
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "kernels": counts,
                "digests": sorted({op["digest"] or "-" for op in bench.ops}),
                "failures": [
                    op["reasons"] for op in bench.ops if op["failed"]
                ],
                "calibration_s": calibration,
                "host": host_fingerprint(),
                **extra,
            },
            sort_keys=True,
        )
    )
    if metrics.keys() != units.keys():
        raise RuntimeError("measured metrics differ from the declared set")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
