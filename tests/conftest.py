"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

# Unit tests run sweeps serially and never touch the on-disk result
# cache unless a test opts in explicitly (explicit run_sweep arguments
# always override these environment defaults).
os.environ.setdefault("REPRO_JOBS", "1")
os.environ.setdefault("REPRO_NO_CACHE", "1")

# CI's differential-test step runs ``--hypothesis-profile=ci``: ten times
# hypothesis's default example budget, no per-example deadline.  Tier-1
# runs under the default profile.  CI jobs that install only pytest run
# no hypothesis test, so the profile is registered only when hypothesis
# is importable.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("ci", max_examples=1000, deadline=None)

from repro.noc.config import (
    CongestionConfig,
    NocConfig,
    PowerGatingConfig,
)
from repro.noc.layers import RunOptions, run_options
from repro.noc.multinoc import MultiNocFabric


def cli_run_options(monkeypatch, argv: list[str]) -> RunOptions:
    """Run the experiments CLI on ``argv`` (it must exit 0) and return
    the run policy its first experiment ran under."""
    from repro.experiments import cli

    seen: list[RunOptions] = []
    real = cli.run_experiment

    def spy(*args, **kwargs):
        seen.append(run_options())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", spy)
    assert cli.main(argv) == 0
    return seen[0]


def small_config(**overrides) -> NocConfig:
    """A 4x4 mesh config that keeps tests fast."""
    defaults = dict(
        mesh_cols=4,
        mesh_rows=4,
        num_subnets=2,
        link_width_bits=128,
        voltage_v=0.625,
    )
    defaults.update(overrides)
    return NocConfig(**defaults)


def small_fabric(
    seed: int = 5, backend: str | None = None, **overrides
) -> MultiNocFabric:
    """A small fabric ready for end-to-end tests."""
    return MultiNocFabric(
        small_config(**overrides), seed=seed, backend=backend
    )


def gated_config(**overrides) -> NocConfig:
    """Small config with power gating enabled."""
    overrides.setdefault("gating", PowerGatingConfig(enabled=True))
    return small_config(**overrides)


@pytest.fixture
def fabric() -> MultiNocFabric:
    """Default small 2-subnet fabric."""
    return small_fabric()


@pytest.fixture
def single_fabric() -> MultiNocFabric:
    """Small single-subnet fabric."""
    return small_fabric(num_subnets=1, link_width_bits=256)


def land_flit(network, router, in_port: int, vc: int, flit, cycle=0):
    """Land ``flit`` in input VC ``(in_port, vc)`` of ``router`` through
    the real link-delivery path: one ring entry for ``cycle``, then
    ``network.deliver_arrivals(cycle)`` (which also lands anything else
    already due at ``cycle``).  Like an NI send, it spends the VC's
    credit and counts the flit as injected and in the network, so the
    invariant checker's conservation laws hold for planted flits."""
    router.held += 1
    channel = router.ports[in_port].vcs[vc]
    channel.free -= 1
    network.flits_in_network += 1
    network.counters.flits_injected += 1
    network._ring[cycle % network._ring_len].append((channel, flit))
    network.deliver_arrivals(cycle)


def drain_all(fabric: MultiNocFabric, max_cycles: int = 50_000) -> None:
    """Drain the fabric and fail the test if it cannot."""
    assert fabric.drain(max_cycles), "fabric failed to drain"


__all__ = [
    "small_config",
    "small_fabric",
    "gated_config",
    "drain_all",
    "land_flit",
    "CongestionConfig",
]
