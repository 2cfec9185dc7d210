"""Differential search: the router and gating steps against their
oracles, and dense against skip.

Hypothesis draws fabric configurations (1-4 subnets, 2 or 4 VCs,
gating on or off, every selection policy, every congestion metric —
Delay makes routers keep blocking counters, IR makes NIs track their
injection-rate averages) and
traffic (Bernoulli uniform or hotspot, a bursty schedule, or a small
closed-loop ``Processor``).  Each example runs three fabrics from the
same seed:

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

Tier-1 draws half of the active hypothesis profile's example budget
(each example simulates three fabrics); CI's ``--hypothesis-profile=ci``
(``tests/conftest.py``) widens the search.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.gating_oracle import install_gating_oracle
from tests.router_oracle import install_oracle

from repro.noc.backend import make_backend
from repro.noc.config import CongestionConfig, NocConfig, PowerGatingConfig
from repro.noc.multinoc import MultiNocFabric
from repro.system.processor import Processor
from repro.system.workloads import BENCHMARK_MPKI, WorkloadSpec
from repro.traffic.generators import (
    BurstyTrafficSource,
    SyntheticTrafficSource,
)
from repro.traffic.patterns import make_pattern

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
        voltage_v=0.625,
        selection_policy=draw(st.sampled_from(policies)),
        # A long idle window makes routers sleep inside quiescence
        # jumps, where the closed-form advance makes the transitions.
        gating=PowerGatingConfig(
            enabled=draw(st.booleans()),
            idle_detect_cycles=draw(st.sampled_from([4, 40])),
        ),
        congestion=CongestionConfig(metric=draw(st.sampled_from(METRICS))),
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
traffic = st.one_of(open_loop, bursty, closed_loop)


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
    pattern = make_pattern("uniform" if kind == "bursty" else kind,
                           fabric.mesh)
    if kind == "bursty":
        source = BurstyTrafficSource(fabric, pattern, arg, 512, seed=seed)
    else:
        source = SyntheticTrafficSource(fabric, pattern, arg, 512, seed=seed)
    fabric.backend.run(cycles, source)
    fabric.drain(2_000)
    return (
        dataclasses.asdict(fabric.report()),
        fabric.rng.getstate(),
        source.rng.getstate(),
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
