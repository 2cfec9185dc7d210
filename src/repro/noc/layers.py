"""The instrumentation-layer registry and the one shadow installer.

Five optional layers observe a :class:`~repro.noc.multinoc.
MultiNocFabric`.  Each is one :class:`Layer` record in :data:`LAYERS`,
in attach order; the fabric constructor, the experiments CLI and the
artifact readers all loop over it.  Adding a layer means adding one
record and one :class:`FabricLayer` subclass.

Layers observe by *shadowing*: per-instance attributes over class
methods (``fabric.step``, ``gating._sleep``, NI sinks, ...), so an
un-attached fabric runs plain class bytecode.  :class:`ShadowSet` is
the only code that installs or restores them (contract ``SIM101``);
each layer keeps one as ``self._saved``.  A restore under another
layer's shadow raises instead of dropping or resurrecting anyone's
binding — detach in reverse attach order, or use
:meth:`~repro.noc.multinoc.MultiNocFabric.swap_layer`.

:class:`FabricLayer`, the base of all five, owns their attach and
detach bookkeeping and their answers to the skip kernel.

Factories and spec parsers are dotted paths imported on first use, so
a plain fabric never loads a layer package.

While the sweep runner executes a point, between
:func:`collect_artifacts` and :func:`drain_artifacts`, every layer
records the paths its flush wrote; the point's
:class:`~repro.experiments.runner.PointResult` carries them to the
observers, so no observer reads an artifact directory.

:class:`RunOptions` is the run policy — kernel, enabled layers, jobs
and cache — handed on as data: the experiments CLI installs one for the
length of a run, the sweep runner passes it to pool workers, and
:func:`run_options` returns it, or parses the environment afresh when
none is installed.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.util import env

__all__ = [
    "Layer", "LAYERS", "BY_NAME", "NEVER", "FabricLayer", "ShadowSet",
    "shadow_chain", "DEFAULT_BACKEND", "DEFAULT_CACHE_DIR", "RunOptions",
    "install_run_options", "run_options", "collect_artifacts",
    "drain_artifacts",
]

#: Sentinel horizon for "never becomes active again" (sources and
#: layers alike).
NEVER = 1 << 62

#: Kernel used when neither the constructor nor the run policy chooses.
DEFAULT_BACKEND = "dense"

#: Sweep-cache directory used when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


def _resolve(path: str) -> Any:
    """``"pkg.module:Attr.attr"`` → the named object (imported lazily)."""
    module, _, qualname = path.partition(":")
    target: Any = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


@dataclass(frozen=True)
class Layer:
    """One instrumentation layer, as everything else needs to know it."""

    name: str
    #: Fabric attribute holding the attached instance (or None).
    attr: str
    #: Enabling variable; its value is also the layer's spec text.
    env: str
    #: ``module:callable`` taking ``(fabric, spec, out_dir)``, returning
    #: a detached layer.
    factory: str
    #: Experiments-CLI flag that sets :attr:`env`.
    flag: str
    #: ``module:callable`` validating the spec text (raises ValueError).
    spec_parser: str | None = None
    #: Artifact directory variable, its default, and the CLI flag
    #: setting it (which implies :attr:`flag`); empty without artifacts.
    dir_env: str = ""
    default_dir: str = ""
    out_flag: str = ""
    #: ``(suffix, kind)`` of every artifact file the layer flushes.
    artifacts: tuple[tuple[str, str], ...] = ()

    def build(
        self, fabric: Any, spec: str = "1", out_dir: str | None = None
    ) -> Any:
        """A detached instance for ``fabric`` configured by ``spec``
        (the enabling variable's value) and the artifact directory."""
        return _resolve(self.factory)(fabric, spec, out_dir)

    def parse_spec(self, text: str) -> None:
        """Validate spec text; raises ValueError on a bad spec."""
        if self.spec_parser is not None:
            _resolve(self.spec_parser)(text)


#: Every layer, in attach order: each wraps whatever the previous ones
#: installed, so perf's phase timers sit closest to the class methods,
#: the checker reconciles post-fault truth, and telemetry and explain
#: observe all of it.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "perf", "perf", "REPRO_PERF",
        "repro.perf.profiler:PhaseProfiler.from_env", "--perf",
        dir_env="REPRO_PERF_DIR",
        default_dir=os.path.join("results", "perf"),
        out_flag="--perf-out",
        artifacts=(
            (".perf.json", "perf-profile"),
            (".pstats", "perf-pstats"),
            (".folded.txt", "perf-folded"),
        ),
    ),
    Layer(
        "faults", "faults", "REPRO_FAULTS",
        "repro.faults.engine:FaultEngine.from_env", "--faults",
        spec_parser="repro.faults.spec:parse_fault_spec",
    ),
    Layer(
        "checker", "invariant_checker", "REPRO_CHECK",
        "repro.analysis.invariants:InvariantChecker.from_env", "--check",
    ),
    Layer(
        "telemetry", "telemetry", "REPRO_TELEMETRY",
        "repro.telemetry.hub:TelemetryHub.from_env", "--telemetry",
        dir_env="REPRO_TELEMETRY_DIR",
        default_dir=os.path.join("results", "telemetry"),
        out_flag="--trace-out",
        artifacts=(
            (".timeseries.json", "telemetry-timeseries"),
            (".trace.json", "telemetry-trace"),
            (".summary.txt", "telemetry-summary"),
        ),
    ),
    Layer(
        "explain", "explain", "REPRO_EXPLAIN",
        "repro.explain.hub:ExplainHub.from_env", "--explain",
        spec_parser="repro.explain.hub:parse_explain_spec",
        dir_env="REPRO_EXPLAIN_DIR",
        default_dir=os.path.join("results", "explain"),
        out_flag="--explain-out",
        artifacts=((".explain.json", "explain-attribution"),),
    ),
)

BY_NAME: dict[str, Layer] = {layer.name: layer for layer in LAYERS}

#: ``(layer, path)`` of every artifact flushed since
#: :func:`collect_artifacts`; None when nothing is being kept.
_flushed: list[tuple[str, str]] | None = None


def collect_artifacts() -> None:
    """Start keeping the artifact paths layers flush (the sweep runner
    calls this before each point it executes)."""
    global _flushed
    _flushed = []


def drain_artifacts() -> tuple[tuple[str, str], ...]:
    """``(layer, path)`` of every artifact flushed since
    :func:`collect_artifacts`, in flush order; stops keeping them.

    The innermost ``report`` shadow flushes first, so one report
    yields the layers in :data:`LAYERS` order.
    """
    global _flushed
    flushed, _flushed = _flushed or [], None
    return tuple(flushed)


@dataclass(frozen=True)
class RunOptions:
    """The run policy every fabric and sweep of a run obeys.

    ``layers`` holds ``(layer, spec text, out dir)`` for each enabled
    layer in :data:`LAYERS` order; ``out dir`` is None for a layer
    without artifacts.  ``cache_dir`` None means no sweep cache.
    """

    backend: str = DEFAULT_BACKEND
    layers: tuple[tuple[Layer, str, str | None], ...] = ()
    jobs: int = 1
    cache_dir: str | None = DEFAULT_CACHE_DIR

    @classmethod
    def from_env(
        cls, overlay: Mapping[str, str] | None = None
    ) -> "RunOptions":
        """Parse the policy from ``REPRO_BACKEND``, each layer's enabling
        and directory variable, ``REPRO_JOBS``, ``REPRO_NO_CACHE`` and
        ``REPRO_CACHE_DIR``; values in ``overlay`` (the experiments
        CLI's flags, by variable name) win over the environment.

        Any enabled layer or non-default backend turns the cache off: a
        hit would skip the simulation the layer or kernel is there to
        run, and instrumented rows must not enter the shared cache.
        """

        def read(name: str, default: str = "") -> str:
            return (overlay or {}).get(name) or env.text(name, default)

        layers = []
        for layer in LAYERS:
            spec = read(layer.env)
            if spec in ("", "0"):
                continue
            out_dir = (
                read(layer.dir_env, layer.default_dir)
                if layer.dir_env
                else None
            )
            layers.append((layer, spec, out_dir))
        backend = read("REPRO_BACKEND", DEFAULT_BACKEND)
        jobs_text = read("REPRO_JOBS")
        jobs = int(jobs_text) if jobs_text else os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("REPRO_JOBS must be >= 1")
        no_cache = (
            layers
            or backend != DEFAULT_BACKEND
            or read("REPRO_NO_CACHE") not in ("", "0")
        )
        cache_dir = (
            None if no_cache else read("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )
        return cls(backend, tuple(layers), jobs, cache_dir)

    def spec(self, layer: Layer) -> str | None:
        """``layer``'s spec text; None when it is off here."""
        return self._entry(layer)[1]

    def out_dir(self, layer: Layer) -> str | None:
        """``layer``'s artifact directory; None when it is off here."""
        return self._entry(layer)[2]

    def _entry(self, layer: Layer) -> tuple[Layer, str | None, str | None]:
        for entry in self.layers:
            if entry[0] == layer:
                return entry
        return layer, None, None


_installed: RunOptions | None = None


def install_run_options(options: RunOptions | None) -> RunOptions | None:
    """Make ``options`` this process's run policy (None: parse the
    environment at each :func:`run_options` call); returns the policy
    it replaces.  Also the sweep pool's worker initializer."""
    global _installed
    previous, _installed = _installed, options
    return previous


def run_options() -> RunOptions:
    """The installed run policy, or one parsed from the environment now."""
    return _installed if _installed is not None else RunOptions.from_env()


class ShadowSet:
    """The instance attributes one layer installed, for exact restore.

    Records are ``(obj, name, had, previous, installed)``: whether
    ``obj`` had its own ``name`` before, that instance value, and the
    value installed over it.
    """

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self._records: list[tuple[Any, str, bool, Any, Any]] = []

    def __len__(self) -> int:
        return len(self._records)

    def install(self, obj: Any, name: str, value: Any) -> Any:
        """Shadow ``obj.name`` with ``value``; return the displaced binding."""
        displaced = getattr(obj, name)
        own = vars(obj)
        self._records.append((obj, name, name in own, own.get(name), value))
        setattr(obj, name, value)
        return displaced

    def restore(self) -> None:
        """Undo every install, newest first.

        Raises RuntimeError, changing nothing, when another layer (or
        anyone else) has since shadowed or deleted one of the bindings.
        """
        for obj, name, _, _, value in self._records:
            current = vars(obj).get(name)
            top = _owner(current)
            if current is value or top is self:
                continue
            culprit = top.layer if top else f"an unregistered binding {current!r}"
            raise RuntimeError(
                f"cannot detach {self.layer}: {type(obj).__name__}.{name} "
                f"is shadowed by {culprit}; detach in reverse attach order"
            )
        for obj, name, had, previous, _ in reversed(self._records):
            if had:
                setattr(obj, name, previous)
            else:
                delattr(obj, name)
        self._records.clear()

    def _displaced(self, obj: Any, name: str, value: Any) -> tuple[bool, Any]:
        """``(found, previous)`` for the install of ``value`` as ``obj.name``."""
        for rec_obj, rec_name, _, previous, installed in self._records:
            if rec_obj is obj and rec_name == name and installed is value:
                return True, previous
        return False, None


def _owner(binding: Any) -> ShadowSet | None:
    """The ShadowSet of the layer a bound-method shadow belongs to (each
    layer keeps its set as ``self._saved``), or None."""
    saved = getattr(getattr(binding, "__self__", None), "_saved", None)
    return saved if isinstance(saved, ShadowSet) else None


def shadow_chain(obj: Any, name: str) -> list[tuple[Layer | None, Any]]:
    """The instance bindings stacked on ``obj.name``, top first, as
    ``(layer, binding)``.  The walk follows each layer's displaced value
    down to the class attribute; ``layer`` is None for a set whose name
    is not registered, and for a binding no set installed, where the
    walk stops."""
    chain: list[tuple[Layer | None, Any]] = []
    value = vars(obj).get(name)
    while value is not None:
        saved = _owner(value)
        found, previous = (
            saved._displaced(obj, name, value) if saved else (False, None)
        )
        chain.append((BY_NAME.get(saved.layer) if found else None, value))
        if not found:
            break
        value = previous
    return chain


class FabricLayer:
    """The base of every layer: attach, detach and the kernel protocol.

    :meth:`attach` shadows ``fabric.step`` with the subclass's
    ``_step`` (which calls ``self._orig_step()``, the displaced
    binding), shadows ``fabric.report`` with :meth:`_report` when
    ``out_dir`` is set, and then calls :meth:`_install_probes` for the
    layer's other shadows.  A second attach raises; :meth:`detach`
    restores every shadow and is a no-op when nothing is attached.
    :meth:`_report` flushes the layer's artifacts and, inside a sweep
    point, records their paths for :func:`drain_artifacts`.

    The skip kernel runs the shadowed step on every cycle it visits.
    Before a quiescence jump it asks every layer in the ``step`` chain
    for :meth:`next_observe_cycle` and never jumps past the earliest
    answer; after the jump it reports the span to :meth:`note_steps`.
    """

    #: The layer's name in :data:`LAYERS`; subclasses set it.
    name = ""

    def __init__(self, fabric: Any, out_dir: str | None = None) -> None:
        self.fabric = fabric
        self.out_dir = out_dir
        self._saved = ShadowSet(self.name)

    @property
    def attached(self) -> bool:
        return bool(self._saved)

    def attach(self) -> Any:
        """Install every shadow on the fabric; returns ``self``."""
        if self._saved:
            raise RuntimeError(f"{self.name} layer is already attached")
        install = self._saved.install
        fabric = self.fabric
        self._orig_step = install(fabric, "step", self._step)
        if self.out_dir is not None:
            self._orig_report = install(fabric, "report", self._report)
        self._install_probes(install)
        return self

    def detach(self) -> None:
        """Remove every shadow, restoring the pre-attach attributes."""
        self._saved.restore()

    def _install_probes(self, install: Any) -> None:
        """Install the layer's shadows beyond ``step`` and ``report``
        through ``install`` (its :meth:`ShadowSet.install`)."""

    def _report(self) -> Any:
        report = self._orig_report()
        paths = self.flush()
        if _flushed is not None:
            _flushed.extend(
                (self.name, path) for path in sorted(paths.values())
            )
        return report

    def _artifact_stem(self) -> str:
        """``{out_dir}/{config}-s{seed}-p{pid}-r{n}``, the path prefix
        of the next flush's artifacts.  The ``r`` counter is process-wide
        (:func:`repro.obs.artifacts.next_flush_ref`) and shared by the
        layers, so parallel sweep workers, repeated flushes and two
        same-config fabrics in one process never overwrite each other.
        """
        from repro.obs.artifacts import next_flush_ref

        out_dir = self.out_dir
        if out_dir is None:
            out_dir = BY_NAME[self.name].default_dir
        os.makedirs(out_dir, exist_ok=True)
        fabric = self.fabric
        prefix = f"{fabric.config.name}-s{fabric.seed}-p{os.getpid()}"
        return os.path.join(out_dir, f"{prefix}-r{next_flush_ref(prefix)}")

    def next_observe_cycle(self, cycle: int) -> int:
        """The first cycle at or after ``cycle`` whose step the layer
        must see run; the skip kernel jumps no further."""
        return NEVER

    def note_steps(self, count: int, cycle: int) -> None:
        """Account ``count`` cycles, ending at ``cycle``, that the skip
        kernel jumped without calling ``fabric.step``."""
