"""The phase profiler: where does the simulator's wall-clock go?

``PhaseProfiler`` observes one :class:`~repro.noc.multinoc.MultiNocFabric`
by *shadowing* instance methods, the exact contract of
:class:`repro.telemetry.hub.TelemetryHub` and
:class:`repro.analysis.invariants.InvariantChecker`:

* ``fabric.step`` — replaced by a phase-bracketed mirror of the step
  loop that times link delivery, the congestion monitor, NI
  packetization, the router pipeline (each subnet's
  ``step_routers``), and the gating controller with
  ``time.perf_counter_ns``;
* ``fabric.report`` — autoflushes a ``*.perf.json`` profile artifact
  next to the report when the profiler was attached via the
  environment;
* ``monitor.regional.update`` — timed separately so the RCS OR-network
  cost is split out of the monitor phase.

Because shadowing only touches *instances*, a fabric without a
profiler executes the original unhooked class methods: profiling-off
runs take the identical code path as a build without this package.
Profiling *on* has a deliberate observer cost (two clock reads per
phase) — it buys a per-phase breakdown;
use the throughput meters (:mod:`repro.perf.meters`) when only
aggregate rates are needed.

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

from repro.noc.layers import BY_NAME, ShadowSet
from repro.util import env
from repro.util.ascii_plot import bar_chart
from repro.util.histogram import BoundedHistogram

if TYPE_CHECKING:
    import cProfile

    from repro.noc.multinoc import FabricReport, MultiNocFabric

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_DIR",
    "STEP_PHASES",
    "PhaseProfiler",
    "cprofile_enabled",
]

#: Schema tag stamped into every ``*.perf.json`` artifact.
PROFILE_SCHEMA = "repro.perf.profile/1"

#: Default artifact directory (override with ``REPRO_PERF_DIR``).
DEFAULT_DIR = BY_NAME["perf"].default_dir

#: Slices of one ``MultiNocFabric.step`` call, in execution order;
#: ``step_other`` is the residual (cycle bookkeeping, timer overhead).
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

class PhaseProfiler:
    """Per-phase wall-clock accounting for one fabric instance."""

    def __init__(
        self,
        fabric: "MultiNocFabric",
        out_dir: str | None = None,
        capture_cprofile: bool = False,
    ) -> None:
        self.fabric = fabric
        self.out_dir = out_dir
        self.attached = False
        self.steps = 0
        # Nanosecond accumulators for the top-level step slices.
        self._ns_link = 0
        self._ns_monitor = 0
        self._ns_regional = 0
        self._ns_ni = 0
        self._ns_router = 0
        self._ns_gating = 0
        self._ns_step = 0
        self.step_histograms = {
            name: BoundedHistogram() for name in _HISTOGRAM_PHASES
        }
        self._flits_at_attach = self._flits_routed_now()
        self._flush_count = 0
        self._saved = ShadowSet("perf")
        self._cprofile: "cProfile.Profile | None" = None
        if capture_cprofile:
            import cProfile as _cprofile

            self._cprofile = _cprofile.Profile()

    # ------------------------------------------------------------------
    # Construction from the environment
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, fabric: "MultiNocFabric") -> "PhaseProfiler":
        """Build a profiler configured by ``REPRO_PERF_*`` variables."""
        out_dir = BY_NAME["perf"].out_dir()
        return cls(
            fabric,
            out_dir=out_dir,
            capture_cprofile=cprofile_enabled(),
        )

    # ------------------------------------------------------------------
    # Attach / detach (per-instance shadowing)
    # ------------------------------------------------------------------
    def attach(self) -> "PhaseProfiler":
        """Install the step/report/regional probes; returns ``self``."""
        if self.attached:
            return self
        fabric = self.fabric
        install = self._saved.install
        install(fabric, "step", self._profiled_step)
        self._orig_report: Callable[[], "FabricReport"] = install(
            fabric, "report", self._profiled_report
        )
        self._orig_regional_update = install(
            fabric.monitor.regional, "update", self._timed_regional_update
        )
        self.attached = True
        return self

    def detach(self) -> None:
        """Remove every probe, restoring the pre-attach attributes."""
        if not self.attached:
            return
        self._saved.restore()
        self.attached = False

    # ------------------------------------------------------------------
    # Shadowed methods
    # ------------------------------------------------------------------
    def _profiled_step(self) -> bool:
        """Phase-bracketed mirror of :meth:`MultiNocFabric.step`.

        Identical call order, guards (idle NIs and empty subnets are
        skipped), state mutation and return value as the plain step
        (the equivalence test in ``tests/test_perf_profiler.py`` holds
        this to byte-identical fabric reports); the only additions are
        clock reads at the phase boundaries.
        """
        fabric = self.fabric
        prof = self._cprofile
        if prof is not None:
            prof.enable()
        t_begin = perf_counter_ns()
        cycle = fabric.cycle
        subnets = fabric.subnets
        for network in subnets:
            network.deliver_arrivals(cycle)
        t1 = perf_counter_ns()
        fabric.monitor.update(cycle, subnets, fabric.nis)
        t2 = perf_counter_ns()
        busy = False
        for ni in fabric.nis:
            if ni.queue or ni._active_slots or ni._ir_rate > 1e-9:
                ni.step(cycle)
                busy = True
        t3 = perf_counter_ns()
        for network in subnets:
            if network.flits_in_network:
                network.step_routers(cycle)
                busy = True
        t4 = perf_counter_ns()
        fabric.gating.step(cycle)
        t5 = perf_counter_ns()
        fabric.cycle = cycle + 1
        if prof is not None:
            prof.disable()
        self._ns_link += t1 - t_begin
        self._ns_monitor += t2 - t1
        self._ns_ni += t3 - t2
        self._ns_router += t4 - t3
        self._ns_gating += t5 - t4
        self._ns_step += t5 - t_begin
        self.steps += 1
        hists = self.step_histograms
        hists["link_delivery"].record(t1 - t_begin)
        hists["monitor"].record(t2 - t1)
        hists["ni_packetization"].record(t3 - t2)
        hists["router_pipeline"].record(t4 - t3)
        hists["gating"].record(t5 - t4)
        hists["step"].record(t5 - t_begin)
        return busy

    def _profiled_report(self) -> "FabricReport":
        report = self._orig_report()
        if self.out_dir is not None:
            self.flush()
        return report

    def _timed_regional_update(
        self, cycle: int, lcs: list[list[bool]]
    ) -> None:
        t0 = perf_counter_ns()
        self._orig_regional_update(cycle, lcs)
        self._ns_regional += perf_counter_ns() - t0

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
        is the unbracketed residual (loop glue, clock overhead), and
        every value is clamped non-negative, so the sum never exceeds
        the whole-step measurement.
        """
        link = self._ns_link
        regional = min(self._ns_regional, self._ns_monitor)
        monitor_lcs = self._ns_monitor - regional
        ni = self._ns_ni
        router = self._ns_router
        gating = self._ns_gating
        bracketed = link + self._ns_monitor + ni + router + gating
        other = max(0, self._ns_step - bracketed)
        values = {
            "link_delivery": link,
            "monitor_lcs": monitor_lcs,
            "regional_update": regional,
            "ni_packetization": ni,
            "router_pipeline": router,
            "gating": gating,
            "step_other": other,
        }
        return {name: values[name] / 1e9 for name in STEP_PHASES}

    @property
    def step_seconds(self) -> float:
        """Wall-clock spent inside profiled fabric steps."""
        return self._ns_step / 1e9

    def throughput(self) -> dict[str, float]:
        """Simulated cycles/sec and flits-routed/sec while profiled."""
        seconds = self.step_seconds
        flits = self._flits_routed_now() - self._flits_at_attach
        return {
            "cycles_per_sec": self.steps / seconds if seconds else 0.0,
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
            "steps_profiled": self.steps,
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
            f"({throughput['cycles_per_sec']:,.0f} cycles/s, "
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

        Files are named ``{config}-s{seed}-p{pid}-r{n}`` so parallel
        sweep workers and repeated flushes never collide (the same
        convention — and the same process-wide
        :func:`repro.obs.artifacts.next_flush_ref` counter — as
        telemetry artifacts; per-instance counters would overwrite
        when one process profiles two same-config fabrics).
        """
        from repro.obs.artifacts import next_flush_ref

        out_dir = self.out_dir if self.out_dir is not None else DEFAULT_DIR
        os.makedirs(out_dir, exist_ok=True)
        fabric = self.fabric
        prefix = (
            f"{fabric.config.name}-s{fabric.seed}-p{os.getpid()}"
        )
        stem = f"{prefix}-r{next_flush_ref(prefix)}"
        self._flush_count += 1
        paths = {"profile": os.path.join(out_dir, f"{stem}.perf.json")}
        with open(paths["profile"], "w", encoding="utf-8") as handle:
            json.dump(self.profile(), handle, separators=(",", ":"))
        if self._cprofile is not None:
            paths["pstats"] = os.path.join(out_dir, f"{stem}.pstats")
            self._cprofile.dump_stats(paths["pstats"])
            paths["folded"] = os.path.join(
                out_dir, f"{stem}.folded.txt"
            )
            with open(paths["folded"], "w", encoding="utf-8") as handle:
                handle.write("\n".join(self._folded_stacks()) + "\n")
        return paths
