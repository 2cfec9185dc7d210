"""Bench: explain-off fabric.step stays on the seed fast path.

The zero-overhead claim for the attribution hub mirrors telemetry's:

1. structurally, a fabric without ``REPRO_EXPLAIN`` carries no
   instance-attribute shadows — ``fabric.step`` *is* the plain class
   method, i.e. the identical bytecode the seed tree ran; and
2. empirically, a fabric that had a hub attached and then detached
   times within noise of a never-instrumented fabric (detach really
   does restore the fast path).

The attached-hub run is also timed so the cost of explain-on mode
stays visible in the benchmark output (it does strictly more work —
per-NI slot scans every cycle dominate — but must stay within a
bounded factor).
"""

from __future__ import annotations

import time

from repro.explain.hub import ExplainHub
from repro.noc.config import NocConfig, PowerGatingConfig
from repro.noc.multinoc import MultiNocFabric
from repro.traffic.generators import SyntheticTrafficSource
from repro.traffic.patterns import make_pattern

CYCLES = 4_000
LOAD = 0.15


def _config() -> NocConfig:
    return NocConfig(
        mesh_cols=4,
        mesh_rows=4,
        num_subnets=2,
        link_width_bits=128,
        voltage_v=0.625,
        gating=PowerGatingConfig(enabled=True),
    )


def _run(fabric: MultiNocFabric, cycles: int = CYCLES) -> None:
    source = SyntheticTrafficSource(
        fabric, make_pattern("uniform", fabric.mesh), LOAD, 128, seed=7
    )
    for _ in range(cycles):
        source.step(fabric.cycle)
        fabric.step()


def _timed(fabric: MultiNocFabric) -> float:
    started = time.perf_counter()
    _run(fabric)
    return time.perf_counter() - started


def test_explain_off_is_the_class_fast_path(monkeypatch):
    monkeypatch.delenv("REPRO_EXPLAIN", raising=False)
    fabric = MultiNocFabric(_config(), seed=7)
    assert fabric.explain is None
    assert "step" not in fabric.__dict__
    assert fabric.step.__func__ is MultiNocFabric.step
    assert fabric.report.__func__ is MultiNocFabric.report
    for ni in fabric.nis:
        assert "_assign_head" not in ni.__dict__
        assert "step" not in ni.__dict__
    for network in fabric.subnets:
        assert network.eject_sink == fabric._on_packet_received


def test_explain_off_overhead(benchmark, monkeypatch):
    monkeypatch.delenv("REPRO_EXPLAIN", raising=False)

    def plain_run():
        _run(MultiNocFabric(_config(), seed=7))

    benchmark.pedantic(plain_run, rounds=1, iterations=1)

    # Paired timing: never-instrumented vs attached-then-detached.
    # Warm both paths once, then take the best of three to damp
    # scheduler noise; the detached fabric must be within noise of
    # the seed fast path (generous 1.5x bound — the structural check
    # above is the exact guarantee, this catches gross regressions).
    def detached_fabric() -> MultiNocFabric:
        fabric = MultiNocFabric(_config(), seed=7)
        ExplainHub(fabric, out_dir=None).attach().detach()
        assert "step" not in fabric.__dict__
        return fabric

    _timed(MultiNocFabric(_config(), seed=7))
    _timed(detached_fabric())
    plain = min(_timed(MultiNocFabric(_config(), seed=7))
                for _ in range(3))
    detached = min(_timed(detached_fabric()) for _ in range(3))
    assert detached < plain * 1.5, (
        f"detached fabric {detached:.3f}s vs plain {plain:.3f}s"
    )


def test_explain_on_cost_is_bounded(monkeypatch):
    monkeypatch.delenv("REPRO_EXPLAIN", raising=False)
    plain = min(_timed(MultiNocFabric(_config(), seed=7))
                for _ in range(2))

    def hooked_fabric() -> MultiNocFabric:
        fabric = MultiNocFabric(_config(), seed=7)
        ExplainHub(fabric, out_dir=None).attach()
        return fabric

    hooked = min(_timed(hooked_fabric()) for _ in range(2))
    # Explain-on does strictly more work (per-NI slot scans, probe
    # chains on every flit event); keep its cost visible and bounded.
    assert hooked < plain * 8.0, (
        f"attached fabric {hooked:.3f}s vs plain {plain:.3f}s"
    )
