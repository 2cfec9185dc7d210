"""Differential search: the router and gating steps against their
oracles, and dense against skip.

Hypothesis draws fabric configurations (1-4 subnets, 2 or 4 VCs of
2 or 4 flits, RCS regions of one or two divisions per mesh side,
gating on or off, every selection policy, every congestion metric —
Delay makes routers keep blocking counters, IR makes NIs track their
injection-rate averages) and
traffic (Bernoulli uniform or hotspot, a bursty schedule, an ``llm``,
``tenants`` or ``diurnal`` serving source built from its workload
spec, or a small closed-loop ``Processor``).  Each example runs three
fabrics from the same seed:

* ``oracle`` — the dense kernel on a reference cycle body that steps
  every NI and every subnet (``fabric.step`` skips idle ones), with
  every subnet's ``step_routers`` shadowed by the full-scan reference
  in ``tests/router_oracle.py`` and ``gating.step`` by the full-walk
  reference in ``tests/gating_oracle.py``;
* ``dense`` — the dense kernel on ``SubnetNetwork.step_routers`` and
  the controller's sleep-aware ``step``;
* ``skip`` — the skip kernel on the same steps.

All three must end in the same state: the same ``FabricReport``, the
same fabric RNG position, the same traffic-source or coherence RNG
position and the same cycle.  They must also make the same power
transitions in the same order: shadows on the controller's three
transition methods record ``(cycle, subnet, node, transition)``, the
order fault event logs and telemetry traces record.

A second search draws a layer stack — any subset of the five layers,
a telemetry sample period, an explain energy window and a fault spec
whose window may open late — over bursty traffic with an idle span,
and runs it on both kernels.  They must agree on the ``FabricReport``,
the telemetry time series, the explain attribution digest, the fault
event digest and the cycles faults armed on, and the skip kernel must
never step densely.

Tier-1 draws half of the active hypothesis profile's example budget
for the first search (each example simulates three fabrics) and a
quarter for the second; CI's ``--hypothesis-profile=ci``
(``tests/conftest.py``) widens the search.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.gating_oracle import install_gating_oracle
from tests.router_oracle import install_oracle

from repro.analysis.invariants import InvariantChecker
from repro.explain.hub import ExplainHub
from repro.faults.engine import FaultEngine
from repro.faults.spec import parse_fault_spec
from repro.noc.backend import make_backend
from repro.noc.layers import LAYERS
from repro.noc.config import CongestionConfig, NocConfig, PowerGatingConfig
from repro.noc.multinoc import MultiNocFabric
from repro.perf.profiler import PhaseProfiler
from repro.system.processor import Processor
from repro.system.workloads import BENCHMARK_MPKI, WorkloadSpec
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.telemetry.hub import TelemetryHub
from repro.traffic.patterns import make_pattern
from repro.workloads.spec import make_workload_source

EXAMPLES = max(1, settings.default.max_examples // 2)

POLICIES = ("catnap", "round_robin", "random", "ir", "class_partition")
METRICS = ("bfm", "bfa", "ir", "iqocc", "delay")
RUNS = ("oracle", "dense", "skip")
TRANSITIONS = ("_sleep", "_begin_wakeup", "_wake_complete")


@st.composite
def configs(draw):
    num_subnets = draw(st.integers(1, 4))
    # class_partition maps coherence responses to the upper half of the
    # subnets, so NocConfig rejects it with a single subnet; draw it
    # only when there are two or more.
    policies = POLICIES if num_subnets > 1 else tuple(
        policy for policy in POLICIES if policy != "class_partition"
    )
    return NocConfig(
        mesh_cols=draw(st.integers(2, 4)),
        mesh_rows=draw(st.integers(2, 4)),
        num_subnets=num_subnets,
        link_width_bits=draw(st.sampled_from([128, 256])),
        vcs_per_port=draw(st.sampled_from([2, 4])),
        # Every input VC's initial ``free`` credit count.
        flits_per_vc=draw(st.sampled_from([2, 4])),
        voltage_v=0.625,
        selection_policy=draw(st.sampled_from(policies)),
        # A long idle window makes routers sleep inside quiescence
        # jumps, where the closed-form advance makes the transitions.
        gating=PowerGatingConfig(
            enabled=draw(st.booleans()),
            idle_detect_cycles=draw(st.sampled_from([4, 40])),
        ),
        congestion=CongestionConfig(
            metric=draw(st.sampled_from(METRICS)),
            rcs_divisions=draw(st.sampled_from([1, 2])),
        ),
    )


open_loop = st.tuples(
    st.sampled_from(["uniform", "hotspot"]),
    st.floats(0.01, 0.5),
)
bursty = st.tuples(
    st.just("bursty"),
    st.lists(
        st.tuples(st.integers(0, 250), st.floats(0.0, 0.6)),
        min_size=1,
        max_size=4,
    ).map(sorted),
)
# Four benchmarks (repeats allowed) divide any mesh's 4-per-node cores.
closed_loop = st.tuples(
    st.just("processor"),
    st.lists(st.sampled_from(sorted(BENCHMARK_MPKI)), min_size=4,
             max_size=4).map(tuple),
)


@st.composite
def serving(draw):
    """An ``llm``, ``tenants`` or ``diurnal`` workload spec valid on
    every drawn mesh (at least 2x2 nodes, so at most 4 memory
    controllers), with phases and hours short enough to change within
    the run: the skip kernel meets each source's ``next_offer_cycle``
    horizons, zero-rate phases and all-zero sources included."""
    rate = st.one_of(st.just(0.0), st.floats(0.01, 0.2))
    burst = st.one_of(st.just(0.0), st.floats(0.01, 0.5))
    pattern = st.sampled_from(["uniform", "hotspot"])
    kind = draw(st.sampled_from(["llm", "tenants", "diurnal"]))
    if kind == "llm":
        spec = (
            f"llm:batch={draw(st.integers(1, 4))};"
            f"seq={draw(st.integers(1, 16))};"
            f"mcs={draw(st.integers(1, 4))};"
            f"prefill_rate={draw(burst)};"
            f"decode_rate={draw(rate)};"
            f"token_cycles={draw(st.integers(1, 4))};"
            f"gap={draw(st.integers(0, 80))}"
        )
    elif kind == "tenants":
        rates = draw(st.lists(rate, min_size=1, max_size=3))
        spec = (
            f"tenants:rates={','.join(map(repr, rates))};"
            f"pattern={draw(pattern)}"
        )
    else:
        spec = (
            f"diurnal:base={draw(st.floats(0.01, 0.5))};"
            f"pattern={draw(pattern)};"
            f"cycles_per_hour={draw(st.integers(1, 20))}"
        )
    return "serving", spec


traffic = st.one_of(open_loop, bursty, serving(), closed_loop)


def _reference_step(fabric: MultiNocFabric) -> None:
    """``MultiNocFabric.step`` without its idle-NI and empty-subnet
    guards: every phase of every NI and subnet, every cycle."""
    cycle = fabric.cycle
    for network in fabric.subnets:
        network.deliver_arrivals(cycle)
    fabric.monitor.update(cycle, fabric.subnets, fabric.nis)
    for ni in fabric.nis:
        ni.step(cycle)
    for network in fabric.subnets:
        network.step_routers(cycle)
    fabric.gating.step(cycle)
    fabric.cycle = cycle + 1


def _prepare(fabric: MultiNocFabric, run: str) -> list[tuple]:
    """Select the run's kernel and steps; return its transition log."""
    fabric.backend = make_backend("skip" if run == "skip" else "dense", fabric)
    if run == "oracle":
        fabric.step = lambda: _reference_step(fabric)
        install_oracle(fabric)
        install_gating_oracle(fabric)
    log: list[tuple] = []
    gating = fabric.gating
    for name in TRANSITIONS:
        method = getattr(type(gating), name)

        def record(router, cycle, *args, name=name, method=method):
            log.append((cycle, router.subnet, router.node, name))
            method(gating, router, cycle, *args)

        setattr(gating, name, record)
    return log


def _open_loop_state(config, kind, arg, run, seed, cycles):
    fabric = MultiNocFabric(config, seed=seed)
    log = _prepare(fabric, run)
    if kind == "serving":
        source = make_workload_source(fabric, arg, seed=seed)
    elif kind == "bursty":
        pattern = make_pattern("uniform", fabric.mesh)
        source = BurstyTrafficSource(fabric, pattern, arg, 512, seed=seed)
    else:
        pattern = make_pattern(kind, fabric.mesh)
        source = SyntheticTrafficSource(fabric, pattern, arg, 512, seed=seed)
    fabric.backend.run(cycles, source)
    fabric.drain(2_000)
    # A tenants source draws from one RNG substream per tenant.
    rngs = getattr(source, "rngs", None) or (source.rng,)
    return (
        dataclasses.asdict(fabric.report()),
        fabric.rng.getstate(),
        [rng.getstate() for rng in rngs],
        fabric.cycle,
        log,
    )


def _processor_state(config, benchmarks, run, seed, cycles):
    spec = WorkloadSpec("drawn", benchmarks, config.num_cores)
    processor = Processor(config, spec, seed=seed)
    fabric = processor.fabric
    log = _prepare(fabric, run)
    result = processor.run(cycles)
    return (
        dataclasses.asdict(result),
        fabric.rng.getstate(),
        processor.engine.rng.getstate(),
        fabric.cycle,
        log,
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    config=configs(),
    workload=traffic,
    seed=st.integers(1, 1_000),
    cycles=st.integers(100, 400),
)
def test_step_matches_oracle_and_kernels_match(config, workload, seed,
                                               cycles):
    kind, arg = workload
    states = {}
    for run in RUNS:
        if kind == "processor":
            states[run] = _processor_state(config, arg, run, seed, cycles)
        else:
            states[run] = _open_loop_state(config, kind, arg, run, seed,
                                           cycles)
    assert states["dense"] == states["oracle"], "steps vs oracles"
    assert states["skip"] == states["dense"], "skip vs dense"


# ----------------------------------------------------------------------
# Layer stacks: every layer rides the skip kernel
# ----------------------------------------------------------------------


@st.composite
def layer_stacks(draw):
    names = draw(st.sets(st.sampled_from([layer.name for layer in LAYERS])))
    start = draw(st.integers(0, 400))
    faults = (
        f"rate={draw(st.sampled_from([0.004, 0.02]))};"
        f"start={start};end={start + draw(st.integers(1, 200))};"
        f"window={draw(st.integers(1, 64))};"
        f"seed={draw(st.integers(1, 50))};"
        f"recover={draw(st.sampled_from(['none', 'none', 'all']))}"
    )
    return {
        "names": names,
        "interval": draw(st.integers(1, 8)),
        "period": draw(st.integers(1, 80)),
        "window": draw(st.integers(1, 200)),
        "energy": draw(st.booleans()),
        "faults": faults,
    }


def _attach_stack(fabric: MultiNocFabric, stack: dict) -> None:
    """Attach the drawn layers in registry order."""
    build = {
        "perf": lambda: PhaseProfiler(fabric),
        "faults": lambda: FaultEngine(
            fabric, parse_fault_spec(stack["faults"])
        ),
        "checker": lambda: InvariantChecker(
            fabric, interval=stack["interval"]
        ),
        "telemetry": lambda: TelemetryHub(fabric, period=stack["period"]),
        "explain": lambda: ExplainHub(
            fabric, window_cycles=stack["window"], energy=stack["energy"]
        ),
    }
    for layer in LAYERS:
        if layer.name in stack["names"]:
            fabric.swap_layer(layer.name, build[layer.name]())


def _stack_state(config, schedule, stack, backend, seed, cycles):
    fabric = MultiNocFabric(config, seed=seed, backend=backend)
    _attach_stack(fabric, stack)
    pattern = make_pattern("uniform", fabric.mesh)
    source = BurstyTrafficSource(fabric, pattern, schedule, 512, seed=seed)
    fabric.backend.run(cycles, source)
    fabric.drain(2_000)
    state = [dataclasses.asdict(fabric.report()), fabric.cycle]
    if fabric.telemetry is not None:
        state.append(fabric.telemetry.time_series_doc())
    if fabric.explain is not None:
        state.append(fabric.explain.attribution_digest())
    if fabric.faults is not None:
        state.append(fabric.faults.event_digest())
        state.append(fabric.faults.fault_instants)
    return state, fabric.backend


@settings(max_examples=max(1, settings.default.max_examples // 4),
          deadline=None)
@given(
    config=configs(),
    stack=layer_stacks(),
    load=st.floats(0.02, 0.4),
    idle=st.tuples(st.integers(20, 150), st.integers(50, 300)),
    seed=st.integers(1, 1_000),
    cycles=st.integers(200, 600),
)
def test_layer_stacks_match_across_kernels(config, stack, load, idle,
                                           seed, cycles):
    # Traffic, then an idle span, then traffic again.
    begin, length = idle
    schedule = [(0, load), (begin, 0.0), (begin + length, load)]
    dense, _ = _stack_state(config, schedule, stack, "dense", seed, cycles)
    skip, backend = _stack_state(config, schedule, stack, "skip", seed,
                                 cycles)
    assert skip == dense
    assert backend.cycles_deferred == 0
