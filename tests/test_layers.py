"""The instrumentation-layer registry and ShadowSet (repro.noc.layers).

Covers the behaviour every layer shares — env-gated attachment, the
one attach guard, exact restoration, out-of-order detach, the skip
kernel's composition rule and each layer's jump horizon, and the
lazy-import guarantee — once, parametrized over
:data:`~repro.noc.layers.LAYERS`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import gated_config

from repro.experiments.cli import main as experiments_main
from repro.noc.config import PowerGatingConfig
from repro.noc.layers import (
    LAYERS,
    NEVER,
    FabricLayer,
    RunOptions,
    ShadowSet,
    shadow_chain,
)
from repro.noc.multinoc import MultiNocFabric
from repro.util import env

#: Per layer: extra environment for "on", and a check that the
#: attached instance took its configuration from that environment.
_ENV_CONFIG = {
    "perf": (
        {"REPRO_PERF_DIR": "perf-out"},
        lambda hub: hub.out_dir == "perf-out",
    ),
    "faults": (
        {"REPRO_FAULTS": "rate=0.01;seed=4"},
        lambda hub: hub.spec.seed == 4 and hub.attached,
    ),
    "checker": (
        {"REPRO_CHECK_INTERVAL": "3"},
        lambda hub: hub.interval == 3 and len(hub._saved) > 0,
    ),
    "telemetry": (
        {"REPRO_TELEMETRY_PERIOD": "8"},
        lambda hub: hub.sampler.period == 8 and hub.attached,
    ),
    "explain": (
        {"REPRO_EXPLAIN": "latency"},
        lambda hub: hub.latency and not hub.energy and hub.attached,
    ),
}


def _clear_layer_env(monkeypatch) -> None:
    for name in env.REGISTRY:
        if name.startswith(tuple(layer.env for layer in LAYERS)):
            monkeypatch.delenv(name, raising=False)


def _fabric() -> MultiNocFabric:
    return MultiNocFabric(gated_config(), seed=3)


def _stack(monkeypatch) -> MultiNocFabric:
    """A fabric with every layer attached from the environment."""
    monkeypatch.setenv("REPRO_PERF", "1")
    monkeypatch.setenv("REPRO_FAULTS", "rate=0.01;seed=2")
    monkeypatch.setenv("REPRO_CHECK", "1")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_EXPLAIN", "1")
    for layer in LAYERS:
        if layer.dir_env:
            monkeypatch.setenv(layer.dir_env, "unused")
    return _fabric()


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


def test_registry_order_is_the_attach_order(monkeypatch):
    assert [layer.name for layer in LAYERS] == [
        "perf", "faults", "checker", "telemetry", "explain",
    ]
    _clear_layer_env(monkeypatch)
    fabric = _fabric()
    for layer in LAYERS:
        hub = layer.build(fabric)
        assert isinstance(hub, FabricLayer) and hub.name == layer.name
        assert hub._saved.layer == layer.name and not hub.attached


def test_registry_names_are_registered_env_vars_and_cli_flags():
    from repro.experiments.cli import build_parser

    actions = {
        option: action
        for action in build_parser()._actions
        for option in action.option_strings
    }
    for layer in LAYERS:
        assert layer.env in env.REGISTRY
        assert actions[layer.flag].dest == layer.env
        if layer.artifacts:
            assert layer.dir_env in env.REGISTRY
            assert actions[layer.out_flag].dest == layer.dir_env


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_env_gates_attach(layer, monkeypatch):
    _clear_layer_env(monkeypatch)
    assert RunOptions.from_env().spec(layer) is None
    fabric = _fabric()
    assert getattr(fabric, layer.attr) is None
    assert "step" not in vars(fabric)
    monkeypatch.setenv(layer.env, "0")
    assert RunOptions.from_env().spec(layer) is None
    assert getattr(_fabric(), layer.attr) is None

    monkeypatch.setenv(layer.env, "1")
    extra, configured = _ENV_CONFIG[layer.name]
    for name, value in extra.items():
        monkeypatch.setenv(name, value)
    assert RunOptions.from_env().spec(layer) is not None
    fabric = _fabric()
    hub = getattr(fabric, layer.attr)
    assert hub is not None and configured(hub)
    assert shadow_chain(fabric, "step")[0][0] is layer
    for other in LAYERS:
        if other is not layer:
            assert getattr(fabric, other.attr) is None


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_second_attach_raises_and_detach_is_idempotent(layer, monkeypatch):
    _clear_layer_env(monkeypatch)
    fabric = _fabric()
    hub = layer.build(fabric)
    assert hub.attach() is hub and hub.attached
    saved = len(hub._saved)
    top = vars(fabric)["step"]
    with pytest.raises(RuntimeError, match="already attached"):
        hub.attach()
    assert len(hub._saved) == saved and vars(fabric)["step"] is top
    hub.detach()
    assert not hub.attached and "step" not in vars(fabric)
    hub.detach()


# ----------------------------------------------------------------------
# ShadowSet
# ----------------------------------------------------------------------


class _Target:
    def hello(self) -> str:
        return "class"


class _Hook:
    """A minimal layer: its shadow is a bound method, its set _saved."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._saved = ShadowSet(name)

    def hello(self) -> str:
        return self.name


def test_install_returns_the_displaced_binding_and_restores():
    target = _Target()
    lower, upper = _Hook("lower"), _Hook("upper")
    plain = lower._saved.install(target, "hello", lower.hello)
    assert plain() == "class" and len(lower._saved) == 1
    assert upper._saved.install(target, "hello", upper.hello)() == "lower"
    assert [binding() for _, binding in shadow_chain(target, "hello")] == [
        "upper", "lower",
    ]
    upper._saved.restore()
    assert target.hello() == "lower"
    lower._saved.restore()
    assert "hello" not in vars(target) and len(lower._saved) == 0


def test_restore_under_another_shadow_raises_and_changes_nothing():
    target = _Target()
    lower, upper = _Hook("lower"), _Hook("upper")
    lower._saved.install(target, "hello", lower.hello)
    upper._saved.install(target, "hello", upper.hello)
    with pytest.raises(RuntimeError, match="shadowed by upper"):
        lower._saved.restore()
    assert target.hello() == "upper" and len(lower._saved) == 1
    upper._saved.restore()
    lower._saved.restore()
    assert target.hello() == "class"


def test_restore_names_unregistered_shadows():
    target = _Target()
    hook = _Hook("lower")
    hook._saved.install(target, "hello", hook.hello)
    target.hello = lambda: "by hand"
    with pytest.raises(RuntimeError, match="unregistered"):
        hook._saved.restore()
    assert shadow_chain(target, "hello")[0][0] is None


# ----------------------------------------------------------------------
# Stacking and out-of-order detach
# ----------------------------------------------------------------------


def _snapshot(fabric: MultiNocFabric) -> list[dict]:
    objects = [
        fabric,
        fabric.gating,
        fabric.monitor,
        fabric.monitor.regional,
        *fabric.subnets,
        *fabric.nis,
    ]
    skip = {layer.attr for layer in LAYERS}
    return [
        {
            key: value
            for key, value in vars(obj).items()
            if obj is not fabric or key not in skip
        }
        for obj in objects
    ]


def _same(before: list[dict], after: list[dict]) -> bool:
    return all(
        b.keys() == a.keys() and all(a[k] is v for k, v in b.items())
        for b, a in zip(before, after)
    )


def test_reverse_detach_restores_every_pre_attach_attribute(monkeypatch):
    _clear_layer_env(monkeypatch)
    fabric = _fabric()
    before = _snapshot(fabric)
    stacked = _stack(monkeypatch)
    assert [entry[0].name for entry in shadow_chain(stacked, "step")] == [
        "explain", "telemetry", "checker", "faults", "perf",
    ]
    _clear_layer_env(monkeypatch)
    monkeypatch.setenv("REPRO_FAULTS", "rate=0.01;seed=2")
    for layer in LAYERS:
        fabric.swap_layer(layer.name, layer.build(fabric))
    assert not _same(before, _snapshot(fabric))
    for layer in reversed(LAYERS):
        getattr(fabric, layer.attr).detach()
    assert _same(before, _snapshot(fabric))


def test_checker_detach_under_telemetry_raises(monkeypatch):
    _clear_layer_env(monkeypatch)
    monkeypatch.setenv("REPRO_CHECK", "1")
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    fabric = _fabric()
    top = vars(fabric)["step"]
    with pytest.raises(RuntimeError, match="telemetry"):
        fabric.invariant_checker.detach()
    assert vars(fabric)["step"] is top
    fabric.telemetry.detach()
    fabric.invariant_checker.detach()
    assert "step" not in vars(fabric)
    assert fabric.step.__func__ is MultiNocFabric.step


def test_fault_point_keeps_the_checker_outside_its_engine(monkeypatch):
    from repro.faults import campaign
    from repro.faults.campaign import run_fault_point
    from repro.noc.simulator import SimulationPhases

    _clear_layer_env(monkeypatch)
    monkeypatch.setenv("REPRO_FAULTS", "1")
    monkeypatch.setenv("REPRO_CHECK", "1")
    seen = []
    original = campaign.run_open_loop

    def spy(fabric, source, phases):
        seen.append(fabric)
        assert [e[0].name for e in shadow_chain(fabric, "step")] == [
            "checker", "faults",
        ]
        return original(fabric, source, phases)

    monkeypatch.setattr(campaign, "run_open_loop", spy)
    row = run_fault_point(
        gated_config(),
        "uniform",
        0.1,
        SimulationPhases(warmup=20, measure=80, cooldown=40),
        seed=3,
        faults="rate=0.01;classes=drop-flit;seed=5",
    )
    (fabric,) = seen
    assert fabric.faults.spec.seed == 5
    assert fabric.invariant_checker.counts["flit-conservation"] > 0
    assert row["faults"] == "rate=0.01;classes=drop-flit;seed=5"


# ----------------------------------------------------------------------
# The skip kernel's composition rule
# ----------------------------------------------------------------------


def test_skip_kernel_runs_under_the_checker_alone(monkeypatch):
    """Every registered layer composes by the same rule, whatever it
    observes: the kernel runs and reports jumps to each layer in the
    chain, top first."""
    _clear_layer_env(monkeypatch)
    monkeypatch.setenv("REPRO_CHECK", "1")
    fabric = MultiNocFabric(gated_config(), seed=3, backend="skip")
    assert fabric.backend._shadow_mode() == (
        False, (fabric.invariant_checker,)
    )
    _stack(monkeypatch)
    fabric = MultiNocFabric(gated_config(), seed=3, backend="skip")
    assert fabric.backend._shadow_mode() == (
        False,
        tuple(getattr(fabric, layer.attr) for layer in reversed(LAYERS)),
    )


def test_skip_kernel_runs_under_perf_and_the_checker(monkeypatch):
    _clear_layer_env(monkeypatch)
    monkeypatch.setenv("REPRO_PERF", "1")
    monkeypatch.setenv("REPRO_PERF_DIR", "unused")
    fabric = MultiNocFabric(gated_config(), seed=3, backend="skip")
    assert fabric.backend._shadow_mode() == (False, (fabric.perf,))
    monkeypatch.setenv("REPRO_CHECK", "1")
    fabric = MultiNocFabric(gated_config(), seed=3, backend="skip")
    assert fabric.backend._shadow_mode() == (
        False, (fabric.invariant_checker, fabric.perf)
    )


def test_skip_kernel_defers_to_an_unregistered_shadow(monkeypatch):
    _clear_layer_env(monkeypatch)
    monkeypatch.setenv("REPRO_CHECK", "1")
    fabric = MultiNocFabric(gated_config(), seed=3, backend="skip")
    checked = fabric.step
    fabric.step = lambda: checked()
    assert fabric.backend._shadow_mode() == (True, ())


def test_cli_runs_skip_under_every_layer_without_a_note(monkeypatch,
                                                        capsys, tmp_path):
    for name in env.REGISTRY:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert experiments_main(["table02"]) == 0
    plain = capsys.readouterr().out
    assert experiments_main(
        ["table02", "--backend", "skip", "--check", "--perf",
         "--telemetry", "--explain", "--faults", "1"]
    ) == 0
    out, err = capsys.readouterr()
    assert "note:" not in err
    # Only the timing line differs from the plain run.
    assert out.split("[table02")[0] == plain.split("[table02")[0]


# ----------------------------------------------------------------------
# Jump horizons: each boundary test fails when the layer's horizon is
# one cycle late, because the kernel then jumps over the step the
# layer must see.
# ----------------------------------------------------------------------


def _idle_pair(attach, cycles: int = 50, **config):
    """Dense and skip fabrics with nothing to carry, one layer each."""
    hubs = []
    for backend in ("dense", "skip"):
        fabric = MultiNocFabric(gated_config(**config), seed=3,
                                backend=backend)
        hubs.append(attach(fabric))
        fabric.run(cycles)
    assert hubs[1].fabric.backend.cycles_jumped > 0
    return hubs


def test_telemetry_horizon_is_the_sample_cycle(monkeypatch):
    from repro.telemetry.hub import TelemetryHub

    _clear_layer_env(monkeypatch)
    dense, skip = _idle_pair(
        lambda fabric: TelemetryHub(fabric, period=8).attach()
    )
    assert skip.next_observe_cycle(16) == 16
    assert skip.next_observe_cycle(17) == 24
    assert skip.sampler.ticks == list(range(0, 50, 8))
    assert skip.time_series_doc() == dense.time_series_doc()


def test_explain_horizon_is_the_window_closing_step(monkeypatch):
    from repro.explain.hub import ExplainHub

    _clear_layer_env(monkeypatch)
    dense, skip = _idle_pair(
        lambda fabric: ExplainHub(fabric, window_cycles=16).attach()
    )
    assert [w["end"] for w in skip.energy_windows] == [16, 32, 48]
    assert skip.next_observe_cycle(skip.fabric.cycle) == 63
    assert skip.attribution_digest() == dense.attribution_digest()
    latency_only = ExplainHub(_fabric(), energy=False)
    assert latency_only.next_observe_cycle(0) == NEVER


def test_fault_horizon_is_the_arm_cycle(monkeypatch):
    from repro.faults.engine import FaultEngine
    from repro.faults.spec import FaultEvent

    _clear_layer_env(monkeypatch)

    def attach(fabric):
        # Subnet 1's idle routers try to sleep on cycle 20, exactly when
        # the fault arms: armed a cycle late, it would miss them.
        event = FaultEvent(
            seq=0, cycle=20, fault="stuck-awake", subnet=1, duration=8,
        )
        return FaultEngine(fabric, schedule=[event]).attach()

    dense, skip = _idle_pair(
        attach, gating=PowerGatingConfig(enabled=True, idle_detect_cycles=21)
    )
    assert skip.fault_instants == dense.fault_instants
    assert skip.fault_instants[0][0] == 20
    assert [entry["event"] for entry in skip.event_log] == [
        "arm", "hit", "effective",
    ]
    assert skip.event_digest() == dense.event_digest()
    assert skip.next_observe_cycle(50) == NEVER


# ----------------------------------------------------------------------
# Zero cost when off
# ----------------------------------------------------------------------


def test_plain_fabric_imports_no_layer_package():
    code = (
        "import sys\n"
        "from repro.noc.config import NocConfig\n"
        "from repro.noc.multinoc import MultiNocFabric\n"
        "fabric = MultiNocFabric(NocConfig(mesh_cols=4, mesh_rows=4))\n"
        "fabric.run(20)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    environ = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
    }
    src = Path(__file__).resolve().parents[1] / "src"
    environ["PYTHONPATH"] = str(src)
    loaded = subprocess.run(
        [sys.executable, "-c", code],
        env=environ,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.noc.layers" in loaded
    packages = {
        "repro.telemetry", "repro.explain", "repro.faults", "repro.analysis"
    }
    forbidden = [
        name
        for name in loaded
        if name == "repro.perf.profiler"
        or ".".join(name.split(".")[:2]) in packages
    ]
    assert forbidden == []
