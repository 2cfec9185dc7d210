"""Differential search: the router step against its oracle, and dense
against skip.

Hypothesis draws fabric configurations (1-4 subnets, 2 or 4 VCs,
gating on or off, every selection policy, every congestion metric —
Delay makes routers keep blocking counters, IR makes NIs track their
injection-rate averages) and
traffic (Bernoulli uniform or hotspot, a bursty schedule, or a small
closed-loop ``Processor``).  Each example runs three fabrics from the
same seed:

* ``oracle`` — the dense kernel with every subnet's ``step_routers``
  shadowed by the full-scan reference in ``tests/router_oracle.py``;
* ``dense`` — the dense kernel on ``SubnetNetwork.step_routers``;
* ``skip`` — the skip kernel on the same step.

All three must end in the same state: the same ``FabricReport``, the
same fabric RNG position, the same traffic-source or coherence RNG
position and the same cycle.

Tier-1 draws half of the active hypothesis profile's example budget
(each example simulates three fabrics); CI's ``--hypothesis-profile=ci``
(``tests/conftest.py``) widens the search.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

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
        gating=PowerGatingConfig(enabled=draw(st.booleans())),
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


def _prepare(fabric: MultiNocFabric, run: str) -> None:
    fabric.backend = make_backend("skip" if run == "skip" else "dense", fabric)
    if run == "oracle":
        install_oracle(fabric)


def _open_loop_state(config, kind, arg, run, seed, cycles):
    fabric = MultiNocFabric(config, seed=seed)
    _prepare(fabric, run)
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
    )


def _processor_state(config, benchmarks, run, seed, cycles):
    spec = WorkloadSpec("drawn", benchmarks, config.num_cores)
    processor = Processor(config, spec, seed=seed)
    fabric = processor.fabric
    _prepare(fabric, run)
    result = processor.run(cycles)
    return (
        dataclasses.asdict(result),
        fabric.rng.getstate(),
        processor.engine.rng.getstate(),
        fabric.cycle,
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
    assert states["dense"] == states["oracle"], "step_routers vs oracle"
    assert states["skip"] == states["dense"], "skip vs dense"
