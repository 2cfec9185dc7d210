"""The phase profiler: where does the simulator's wall-clock go?

``PhaseProfiler`` observes one :class:`~repro.noc.multinoc.MultiNocFabric`
by *shadowing* instance methods, the contract of every layer in
:mod:`repro.noc.layers`: a generic timing shadow on each phase method
``MultiNocFabric.step`` calls, a thin wrapper on ``fabric.step`` that
times whole steps, and ``fabric.report``, which autoflushes a
``*.perf.json`` artifact when the profiler was attached via the
environment.  It so profiles the fabric's own cycle body on every
kernel: the skip kernel runs the shadowed step on visited cycles and
reports jumps to :meth:`PhaseProfiler.note_steps`, so
:meth:`~PhaseProfiler.throughput` is a rate of profiled *steps*, not of
simulated cycles.  A fabric without a profiler runs the plain class
methods.

Enable with ``REPRO_PERF=1`` (see :mod:`repro.noc.layers`); artifacts go
to ``REPRO_PERF_DIR`` (default ``results/perf``).  Setting
``REPRO_PERF_CPROFILE=1`` additionally captures a deterministic
``cProfile`` of every step and flushes a ``.pstats`` dump plus a
caller;callee collapsed-stack text file ready for flame-graph tools
(see ``docs/perf.md``).
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns
from typing import TYPE_CHECKING, Any, Callable

from repro.noc.layers import FabricLayer
from repro.util import env
from repro.util.ascii_plot import bar_chart
from repro.util.histogram import BoundedHistogram

if TYPE_CHECKING:
    import cProfile

    from repro.noc.multinoc import MultiNocFabric

__all__ = [
    "PROFILE_SCHEMA",
    "STEP_PHASES",
    "PhaseProfiler",
    "cprofile_enabled",
]

#: Schema tag stamped into every ``*.perf.json`` artifact.
PROFILE_SCHEMA = "repro.perf.profile/1"

#: Slices of one ``MultiNocFabric.step`` call, in execution order;
#: ``step_other`` is the residual (loop glue, timers, outer probes).
STEP_PHASES = (
    "link_delivery",
    "monitor_lcs",
    "regional_update",
    "ni_packetization",
    "router_pipeline",
    "gating",
    "step_other",
)

#: Coarse phases sampled per step into bounded histograms.
_HISTOGRAM_PHASES = (
    "link_delivery",
    "monitor",
    "ni_packetization",
    "router_pipeline",
    "gating",
    "step",
)


def cprofile_enabled() -> bool:
    """True when ``REPRO_PERF_CPROFILE`` asks for a cProfile capture."""
    return env.flag("REPRO_PERF_CPROFILE")

class PhaseProfiler(FabricLayer):
    """Per-phase wall-clock accounting for one fabric instance."""

    name = "perf"

    def __init__(
        self,
        fabric: "MultiNocFabric",
        out_dir: str | None = None,
        capture_cprofile: bool = False,
    ) -> None:
        super().__init__(fabric, out_dir)
        #: Profiled ``fabric.step`` calls, and cycles the skip kernel
        #: jumped without one (reported through :meth:`note_steps`).
        self.steps = 0
        self.cycles_jumped = 0
        # Nanoseconds per timed phase ("monitor" includes the regional
        # update) and for whole steps; ``_seen`` holds the totals at the
        # end of the last step, so each step's histogram sample is a
        # difference.
        self._ns = dict.fromkeys((*_HISTOGRAM_PHASES, "regional_update"), 0)
        self._seen = dict(self._ns)
        self.step_histograms = {
            name: BoundedHistogram() for name in _HISTOGRAM_PHASES
        }
        self._flits_at_attach = self._flits_routed_now()
        self._cprofile: "cProfile.Profile | None" = None
        if capture_cprofile:
            import cProfile as _cprofile

            self._cprofile = _cprofile.Profile()

    # ------------------------------------------------------------------
    # Construction from the environment
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls, fabric: "MultiNocFabric", spec: str, out_dir: str | None
    ) -> "PhaseProfiler":
        """Build a profiler writing to ``out_dir``, with cProfile capture
        per ``REPRO_PERF_CPROFILE``."""
        return cls(
            fabric,
            out_dir=out_dir,
            capture_cprofile=cprofile_enabled(),
        )

    # ------------------------------------------------------------------
    # Shadowed methods
    # ------------------------------------------------------------------
    def _install_probes(self, install: Any) -> None:
        """Install the phase timers."""
        fabric = self.fabric
        timer = self._install_timer
        for network in fabric.subnets:
            timer(network, "deliver_arrivals", "link_delivery")
            timer(network, "step_routers", "router_pipeline")
        timer(fabric.monitor, "update", "monitor")
        timer(fabric.monitor.regional, "update", "regional_update")
        for ni in fabric.nis:
            timer(ni, "step", "ni_packetization")
        timer(fabric.gating, "step", "gating")

    def _install_timer(self, obj: Any, name: str, phase: str) -> None:
        """Shadow ``obj.name`` with a wrapper adding its wall-clock to
        ``phase``; the phase counts only what it displaced, so layers
        wrapping it later are timed in ``step_other``."""
        method: Callable[..., Any] = getattr(obj, name)
        ns = self._ns

        def timed(*args: Any) -> Any:
            t0 = perf_counter_ns()
            result = method(*args)
            ns[phase] += perf_counter_ns() - t0
            return result

        self._saved.install(obj, name, timed)

    def _step(self) -> bool:
        """The displaced step, timed whole; returns its busy flag."""
        prof = self._cprofile
        if prof is not None:
            prof.enable()
        t0 = perf_counter_ns()
        busy = self._orig_step()
        elapsed = perf_counter_ns() - t0
        if prof is not None:
            prof.disable()
        ns = self._ns
        ns["step"] += elapsed
        self.steps += 1
        seen = self._seen
        for name, hist in self.step_histograms.items():
            total = ns[name]
            hist.record(total - seen[name])
            seen[name] = total
        return busy

    def note_steps(self, count: int, cycle: int) -> None:
        self.cycles_jumped += count

    # ------------------------------------------------------------------
    # Derived breakdowns
    # ------------------------------------------------------------------
    def _flits_routed_now(self) -> int:
        return sum(
            network.counters.crossbar_traversals
            for network in self.fabric.subnets
        )

    def phase_seconds(self) -> dict[str, float]:
        """Seconds per top-level phase; keys are :data:`STEP_PHASES`.

        The phases partition the measured step time: ``monitor_lcs``
        excludes the separately timed regional update, ``step_other``
        is the untimed residual (loop glue, timer overhead, outer
        layers' probes), and every value is clamped non-negative, so
        the sum never exceeds the whole-step measurement.
        """
        ns = self._ns
        monitor = ns["monitor"]
        regional = min(ns["regional_update"], monitor)
        values = {
            "link_delivery": ns["link_delivery"],
            "monitor_lcs": monitor - regional,
            "regional_update": regional,
            "ni_packetization": ns["ni_packetization"],
            "router_pipeline": ns["router_pipeline"],
            "gating": ns["gating"],
        }
        timed = sum(values.values())
        values["step_other"] = max(0, ns["step"] - timed)
        return {name: values[name] / 1e9 for name in STEP_PHASES}

    @property
    def step_seconds(self) -> float:
        """Wall-clock spent inside profiled fabric steps."""
        return self._ns["step"] / 1e9

    def throughput(self) -> dict[str, float]:
        """Profiled steps/sec and flits-routed/sec of step time.

        Under the skip kernel jumped cycles are neither stepped nor
        timed, so ``steps_per_sec`` is a rate of visited steps, not of
        simulated cycles.
        """
        seconds = self.step_seconds
        flits = self._flits_routed_now() - self._flits_at_attach
        return {
            "steps_per_sec": self.steps / seconds if seconds else 0.0,
            "flits_per_sec": flits / seconds if seconds else 0.0,
            "flits_routed": float(flits),
        }

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def profile(self) -> dict[str, Any]:
        """JSON-safe profile document for this fabric so far."""
        fabric = self.fabric
        step_seconds = self.step_seconds
        phases = self.phase_seconds()
        return {
            "schema": PROFILE_SCHEMA,
            "config": fabric.config.name,
            "seed": fabric.seed,
            "cycles": fabric.cycle,
            "backend": fabric.backend.name,
            "steps_profiled": self.steps,
            "cycles_jumped": self.cycles_jumped,
            "cycles_deferred": getattr(fabric.backend, "cycles_deferred", 0),
            "step_seconds": step_seconds,
            "phases": {
                name: {
                    "seconds": seconds,
                    "share": seconds / step_seconds if step_seconds else 0.0,
                }
                for name, seconds in phases.items()
            },
            "throughput": self.throughput(),
            "step_histograms_ns": {
                name: hist.to_dict()
                for name, hist in self.step_histograms.items()
            },
        }

    def ascii_summary(self) -> str:
        """Human-readable phase breakdown for terminals and artifacts."""
        fabric = self.fabric
        step_seconds = self.step_seconds
        throughput = self.throughput()
        lines = [
            f"perf: {fabric.config.name} seed={fabric.seed} "
            f"steps={self.steps} step_wall={step_seconds:.3f}s "
            f"({throughput['steps_per_sec']:,.0f} steps/s, "
            f"{throughput['flits_per_sec']:,.0f} flits/s)",
        ]
        phases = self.phase_seconds()
        if step_seconds:
            lines.append(
                bar_chart(
                    list(phases),
                    [seconds / step_seconds for seconds in phases.values()],
                    title="step time by phase:",
                )
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _folded_stacks(self) -> list[str]:
        """Collapsed caller;callee lines from the cProfile capture.

        cProfile records caller→callee edges (not full stacks), so the
        folded output is two frames deep — enough for flamegraph.pl or
        speedscope to show where time pools and from where it is
        reached.  Weights are edge-attributed total microseconds.
        """
        if self._cprofile is None:
            return []
        import pstats

        def label(func: tuple[str, int, str]) -> str:
            filename, lineno, name = func
            base = os.path.basename(filename) if filename else "~"
            return f"{base}:{lineno}:{name}".replace(" ", "_")

        lines: list[str] = []
        stats = pstats.Stats(self._cprofile)
        for func, (_cc, _nc, tottime, _ct, callers) in stats.stats.items():
            if not callers:
                micros = int(round(tottime * 1e6))
                if micros:
                    lines.append(f"{label(func)} {micros}")
                continue
            for caller, (_ecc, _enc, edge_tot, _ect) in callers.items():
                micros = int(round(edge_tot * 1e6))
                if micros:
                    lines.append(f"{label(caller)};{label(func)} {micros}")
        return sorted(lines)

    def flush(self) -> dict[str, str]:
        """Write the profile artifacts; return their paths.

        Files are named by :meth:`FabricLayer._artifact_stem`.
        """
        stem = self._artifact_stem()
        paths = {"profile": f"{stem}.perf.json"}
        with open(paths["profile"], "w", encoding="utf-8") as handle:
            json.dump(self.profile(), handle, separators=(",", ":"))
        if self._cprofile is not None:
            paths["pstats"] = f"{stem}.pstats"
            self._cprofile.dump_stats(paths["pstats"])
            paths["folded"] = f"{stem}.folded.txt"
            with open(paths["folded"], "w", encoding="utf-8") as handle:
                handle.write("\n".join(self._folded_stacks()) + "\n")
        return paths
