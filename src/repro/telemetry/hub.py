"""The telemetry hub: zero-overhead probes over a Multi-NoC fabric.

``TelemetryHub`` observes one :class:`~repro.noc.multinoc.MultiNocFabric`
by *shadowing* a handful of methods with per-instance attributes (the
same contract as :class:`repro.analysis.invariants.InvariantChecker`):

* ``fabric.step`` — drives the periodic time-series sampler and the
  per-cycle LCS toggle diff;
* ``fabric.report`` — autoflushes telemetry artifacts next to the
  report when the hub was attached via the environment;
* ``gating._sleep`` / ``_begin_wakeup`` / ``_wake_complete`` /
  ``request_wakeup`` — record every power transition with its exact
  cycle (O(1) per transition, no per-cycle scans);
* ``monitor.regional.update`` — diffs the latched RCS bits at update
  boundaries for toggle events and duty-cycle integration;
* each ``network.eject_sink`` — records packet lifetimes at tail
  ejection.

Because shadowing only touches *instances*, a fabric without a hub
executes the original unhooked class methods: telemetry-off runs take
the identical code path as a build without this package.  Enable with
``REPRO_TELEMETRY=1`` (see :mod:`repro.noc.layers`); tune with
``REPRO_TELEMETRY_PERIOD`` (sampling period, default 64 cycles) and
``REPRO_TELEMETRY_DIR`` (output directory, default
``results/telemetry``).  The packet trace keeps at most
:data:`DEFAULT_MAX_PACKETS` records per fabric.

Accounting convention (matches :class:`repro.core.gating.GatingStats`,
which counts each router's state at the *entry* of every controller
step, before transitions): a sleep period entered at step ``c0`` and
left at step ``c1`` contributes exactly ``c1 - c0`` sleep cycles; a
period still open after ``N`` executed steps contributes
``N - 1 - c0``.  The hub derives its per-subnet totals purely from
transition events under this convention, so they reconcile exactly
with the controller's own counters — the acceptance test for the
probes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Callable

from repro.noc.layers import FabricLayer
from repro.noc.router import PowerState, Router
from repro.telemetry.samplers import TimeSeriesSampler
from repro.telemetry.trace import build_chrome_trace
from repro.util import env
from repro.util.ascii_plot import bar_chart
from repro.util.histogram import BoundedHistogram

if TYPE_CHECKING:
    from repro.core.gating import GatingStats
    from repro.noc.flit import Packet
    from repro.noc.multinoc import MultiNocFabric

__all__ = ["TelemetryHub"]

#: Defaults for the environment knobs.
DEFAULT_PERIOD = 64
DEFAULT_MAX_PACKETS = 20_000


class TelemetryHub(FabricLayer):
    """Probes, samplers, and trace export for one fabric instance."""

    name = "telemetry"

    def __init__(
        self,
        fabric: "MultiNocFabric",
        period: int = DEFAULT_PERIOD,
        out_dir: str | None = None,
        max_packets: int = DEFAULT_MAX_PACKETS,
    ) -> None:
        super().__init__(fabric, out_dir)
        self.max_packets = max_packets
        self.sampler = TimeSeriesSampler(fabric, period)
        num_subnets = fabric.config.num_subnets
        # --- power transitions ------------------------------------------
        # Open intervals keyed by id(router); totals per subnet follow
        # the GatingStats entry-count convention (module docstring).
        self._sleep_start: dict[int, int] = {}
        self._wake_start: dict[int, tuple[int, int]] = {}
        self._pending_request: dict[int, int] = {}
        self._closed_sleep = [0] * num_subnets
        self._closed_wakeup = [0] * num_subnets
        self.sleep_periods = [0] * num_subnets
        self.wake_requests = [0] * num_subnets
        #: Closed (subnet, node, state, start, end) power intervals.
        self.power_intervals: list[tuple[int, int, str, int, int]] = []
        self.wakeup_latency = BoundedHistogram()
        # --- congestion status ------------------------------------------
        self.lcs_raised = [0] * num_subnets
        self.lcs_cleared = [0] * num_subnets
        self._prev_lcs = [list(row) for row in fabric.monitor.lcs]
        regional = fabric.monitor.regional
        self._prev_rcs = [
            [
                regional.rcs_region(subnet, region)
                for region in range(regional.num_regions)
            ]
            for subnet in range(num_subnets)
        ]
        #: (cycle, subnet, region, asserted) RCS latch toggles.
        self.rcs_events: list[tuple[int, int, int, bool]] = []
        self._rcs_on_since: dict[tuple[int, int], int] = {}
        self._closed_rcs_cycles = [0] * num_subnets
        # --- packets ----------------------------------------------------
        self.packet_records: list[dict[str, int]] = []
        self.packets_seen = 0
        self.truncated_packets = 0
        self.unfinished_packets = 0
        self.ejected_per_subnet = [0] * num_subnets
        self.latency = BoundedHistogram()

    # ------------------------------------------------------------------
    # Construction from the environment
    # ------------------------------------------------------------------
    @classmethod
    def from_env(
        cls, fabric: "MultiNocFabric", spec: str, out_dir: str | None
    ) -> "TelemetryHub":
        """Build a hub writing to ``out_dir``, sampling every
        ``REPRO_TELEMETRY_PERIOD`` cycles."""
        period = env.integer("REPRO_TELEMETRY_PERIOD", DEFAULT_PERIOD)
        return cls(fabric, period=period, out_dir=out_dir)

    # ------------------------------------------------------------------
    # Attach / detach (per-instance shadowing)
    # ------------------------------------------------------------------
    def _install_probes(self, install: Any) -> None:
        """Install the gating, RCS and packet probes."""
        fabric = self.fabric
        gating = fabric.gating
        self._orig_sleep = install(gating, "_sleep", self._tap_sleep)
        self._orig_begin_wakeup = install(
            gating, "_begin_wakeup", self._tap_begin_wakeup
        )
        self._orig_wake_complete = install(
            gating, "_wake_complete", self._tap_wake_complete
        )
        self._orig_request_wakeup = install(
            gating, "request_wakeup", self._tap_request_wakeup
        )
        self._orig_regional_update = install(
            fabric.monitor.regional, "update", self._tap_regional_update
        )
        for network in fabric.subnets:
            install(
                network,
                "eject_sink",
                self._make_packet_tap(network.eject_sink),
            )

    # ------------------------------------------------------------------
    # Shadowed fabric methods
    # ------------------------------------------------------------------
    def _step(self) -> bool:
        fabric = self.fabric
        cycle = fabric.cycle
        if cycle % self.sampler.period == 0:
            # Pre-step sample: a consistent post-gating snapshot of the
            # previous cycle (gating.step runs last inside step()).
            self.sampler.sample(cycle)
        busy: bool = self._orig_step()
        # LCS toggle diff: monitor.update ran inside the step, so the
        # latched rows are the post-step truth for this cycle.
        prev = self._prev_lcs
        for subnet, row in enumerate(fabric.monitor.lcs):
            prev_row = prev[subnet]
            if row == prev_row:
                continue
            raised = cleared = 0
            for current, old in zip(row, prev_row):
                if current and not old:
                    raised += 1
                elif old and not current:
                    cleared += 1
            self.lcs_raised[subnet] += raised
            self.lcs_cleared[subnet] += cleared
            prev[subnet] = list(row)
        return busy

    def next_observe_cycle(self, cycle: int) -> int:
        """The next sample cycle: a quiescent step between samples
        changes no LCS bit, so only the sample must be seen."""
        return -(-cycle // self.sampler.period) * self.sampler.period

    # ------------------------------------------------------------------
    # Gating transition probes
    # ------------------------------------------------------------------
    def _tap_sleep(self, router: Router, cycle: int) -> None:
        self._orig_sleep(router, cycle)
        self._sleep_start[id(router)] = cycle
        self.sleep_periods[router.subnet] += 1

    def _tap_begin_wakeup(
        self, router: Router, cycle: int, stats: "GatingStats"
    ) -> None:
        self._orig_begin_wakeup(router, cycle, stats)
        key = id(router)
        start = self._sleep_start.pop(key, None)
        if start is not None:
            self._closed_sleep[router.subnet] += cycle - start
            self.power_intervals.append(
                (router.subnet, router.node, "sleep", start, cycle)
            )
        # A wake with no recorded request was RCS-triggered: latency is
        # measured from the wakeup begin itself.
        request = self._pending_request.pop(key, cycle)
        self._wake_start[key] = (cycle, request)

    def _tap_wake_complete(self, router: Router, cycle: int) -> None:
        self._orig_wake_complete(router, cycle)
        key = id(router)
        record = self._wake_start.pop(key, None)
        if record is not None:
            begin, request = record
            self._closed_wakeup[router.subnet] += cycle - begin
            self.power_intervals.append(
                (router.subnet, router.node, "wakeup", begin, cycle)
            )
            self.wakeup_latency.record(cycle - request)

    def _tap_request_wakeup(self, router: Router) -> None:
        if router.power_state == PowerState.SLEEP:
            key = id(router)
            if key not in self._pending_request:
                # fabric.cycle is the in-progress step's cycle: step()
                # publishes cycle+1 only after all sub-steps ran.
                self._pending_request[key] = self.fabric.cycle
                self.wake_requests[router.subnet] += 1
        self._orig_request_wakeup(router)

    # ------------------------------------------------------------------
    # RCS latch probe
    # ------------------------------------------------------------------
    def _tap_regional_update(
        self, cycle: int, lcs: list[list[bool]]
    ) -> None:
        regional = self.fabric.monitor.regional
        if cycle % regional.update_period:
            self._orig_regional_update(cycle, lcs)
            return
        self._orig_regional_update(cycle, lcs)
        prev = self._prev_rcs
        for subnet in range(len(prev)):
            prev_row = prev[subnet]
            for region in range(regional.num_regions):
                bit = regional.rcs_region(subnet, region)
                if bit == prev_row[region]:
                    continue
                prev_row[region] = bit
                self.rcs_events.append((cycle, subnet, region, bit))
                key = (subnet, region)
                if bit:
                    self._rcs_on_since[key] = cycle
                else:
                    on_since = self._rcs_on_since.pop(key, cycle)
                    self._closed_rcs_cycles[subnet] += cycle - on_since

    # ------------------------------------------------------------------
    # Packet lifetime probe
    # ------------------------------------------------------------------
    def _make_packet_tap(
        self, orig: "Callable[[Packet, int], None] | None"
    ) -> "Callable[[Packet, int], None]":
        def tap(packet: "Packet", cycle: int) -> None:
            if orig is not None:
                orig(packet, cycle)
            self._record_packet(packet)

        return tap

    def _record_packet(self, packet: "Packet") -> None:
        # A sentinel -1 timestamp marks a packet that never finished
        # (e.g. drained at run end before its tail was injected); its
        # negative pseudo-latency must not reach the histogram.
        if packet.injected_cycle < 0 or packet.received_cycle < 0:
            self.unfinished_packets += 1
            return
        self.packets_seen += 1
        self.latency.record(packet.latency)
        if 0 <= packet.subnet < len(self.ejected_per_subnet):
            self.ejected_per_subnet[packet.subnet] += 1
        if len(self.packet_records) >= self.max_packets:
            self.truncated_packets += 1
            return
        # Hub-relative ids (ejection order): global packet ids depend on
        # what else the worker process simulated, so the trace would
        # differ between runs of a parallel sweep.
        self.packet_records.append(
            {
                "id": len(self.packet_records),
                "src": packet.src,
                "dst": packet.dst,
                "subnet": packet.subnet,
                "created": packet.created_cycle,
                "injected": packet.injected_cycle,
                "received": packet.received_cycle,
                "hops": packet.hops,
                "flits": packet.num_flits,
                "message_class": packet.message_class,
            }
        )

    # ------------------------------------------------------------------
    # Derived totals (non-destructive; callable mid-run)
    # ------------------------------------------------------------------
    def sleep_cycles_by_subnet(self) -> list[int]:
        """Per-subnet sleep cycles derived purely from transitions.

        Reconciles exactly with ``GatingStats.sleep_cycles`` (see the
        module docstring for the entry-count convention).
        """
        final = self.fabric.cycle
        totals = list(self._closed_sleep)
        for key, start in self._sleep_start.items():
            router = self._router_of(key)
            if router is not None:
                totals[router.subnet] += max(0, final - 1 - start)
        return totals

    def wakeup_cycles_by_subnet(self) -> list[int]:
        """Per-subnet wakeup cycles derived purely from transitions."""
        final = self.fabric.cycle
        totals = list(self._closed_wakeup)
        for key, (begin, _request) in self._wake_start.items():
            router = self._router_of(key)
            if router is not None:
                totals[router.subnet] += max(0, final - 1 - begin)
        return totals

    def _router_of(self, key: int) -> Router | None:
        return self.fabric.gating._router_by_id.get(key)

    def rcs_duty_by_subnet(self) -> list[float]:
        """Fraction of region-cycles each subnet's RCS latch was set."""
        final = self.fabric.cycle
        regional = self.fabric.monitor.regional
        totals = list(self._closed_rcs_cycles)
        for (subnet, _region), on_since in self._rcs_on_since.items():
            totals[subnet] += max(0, final - on_since)
        denominator = regional.num_regions * final
        if not denominator:
            return [0.0] * len(totals)
        return [total / denominator for total in totals]

    def _open_power_intervals(
        self, final: int
    ) -> list[tuple[int, int, str, int, int]]:
        extra: list[tuple[int, int, str, int, int]] = []
        for key, start in self._sleep_start.items():
            router = self._router_of(key)
            if router is not None:
                extra.append(
                    (router.subnet, router.node, "sleep", start, final)
                )
        for key, (begin, _request) in self._wake_start.items():
            router = self._router_of(key)
            if router is not None:
                extra.append(
                    (router.subnet, router.node, "wakeup", begin, final)
                )
        return extra

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-safe aggregate summary of everything the hub saw."""
        fabric = self.fabric
        injected = [0] * fabric.config.num_subnets
        for ni in fabric.nis:
            for subnet, count in enumerate(ni.injected_per_subnet):
                injected[subnet] += count
        engine = getattr(fabric, "faults", None)
        faults = (
            {
                **engine.outcome_counts(),
                "injected_by_subnet": list(engine.injected_by_subnet),
                "dropped_flits": sum(engine.dropped_flits),
                "watchdog_trips": engine.watchdog_trips,
                "forced_wakes": engine.forced_wakes,
                "event_digest": engine.event_digest(),
            }
            if engine is not None
            else None
        )
        return {
            "faults": faults,
            "config": fabric.config.name,
            "seed": fabric.seed,
            "cycles": fabric.cycle,
            "sampling_period": self.sampler.period,
            "sleep_cycles_by_subnet": self.sleep_cycles_by_subnet(),
            "wakeup_cycles_by_subnet": self.wakeup_cycles_by_subnet(),
            "sleep_periods_by_subnet": list(self.sleep_periods),
            "wake_requests_by_subnet": list(self.wake_requests),
            "rcs_duty_by_subnet": self.rcs_duty_by_subnet(),
            "rcs_toggles": len(self.rcs_events),
            "lcs_raised_by_subnet": list(self.lcs_raised),
            "lcs_cleared_by_subnet": list(self.lcs_cleared),
            "injected_per_subnet": injected,
            "ejected_per_subnet": list(self.ejected_per_subnet),
            "packets_seen": self.packets_seen,
            "packet_records": len(self.packet_records),
            "truncated_packets": self.truncated_packets,
            "unfinished_packets": self.unfinished_packets,
            "latency": self.latency.to_dict(),
            "wakeup_latency": self.wakeup_latency.to_dict(),
        }

    def time_series_doc(self) -> dict:
        """Full time-series document (sampler columns + summary)."""
        return {
            "schema": "repro.telemetry.timeseries/1",
            "summary": self.summary(),
            "series": self.sampler.to_dict(),
        }

    def chrome_trace_doc(self) -> dict:
        """Perfetto-loadable trace-event document for this run."""
        fabric = self.fabric
        final = fabric.cycle
        intervals = list(self.power_intervals)
        intervals.extend(self._open_power_intervals(final))
        engine = getattr(fabric, "faults", None)
        return build_chrome_trace(
            config_name=fabric.config.name,
            cycles=final,
            num_subnets=fabric.config.num_subnets,
            num_nodes=fabric.mesh.num_nodes,
            power_intervals=intervals,
            packets=self.packet_records,
            rcs_events=self.rcs_events,
            truncated_packets=self.truncated_packets,
            fault_events=(
                engine.fault_instants if engine is not None else ()
            ),
            recovery_events=(
                engine.recovery_instants if engine is not None else ()
            ),
        )

    def ascii_summary(self) -> str:
        """Human-readable terminal summary (sparklines + heatmaps)."""
        fabric = self.fabric
        final = fabric.cycle
        lines = [
            f"telemetry: {fabric.config.name} seed={fabric.seed} "
            f"cycles={final}",
            self.sampler.ascii_render(),
        ]
        sleep = self.sleep_cycles_by_subnet()
        routers = fabric.mesh.num_nodes
        if final and any(sleep):
            fractions = [
                total / (routers * final) for total in sleep
            ]
            lines.append(
                bar_chart(
                    [f"subnet{idx}" for idx in range(len(sleep))],
                    fractions,
                    title="sleep fraction by subnet:",
                )
            )
        if self.latency.count:
            p50, p95, p99 = self.latency.percentiles(0.50, 0.95, 0.99)
            lines.append(
                f"packet latency: n={self.latency.count} "
                f"mean={self.latency.mean:.1f} "
                f"p50={p50:.0f} p95={p95:.0f} p99={p99:.0f} "
                f"max={self.latency.max_value}"
            )
        if self.wakeup_latency.count:
            p50, p95, p99 = self.wakeup_latency.percentiles(
                0.50, 0.95, 0.99
            )
            lines.append(
                f"wakeup latency: n={self.wakeup_latency.count} "
                f"mean={self.wakeup_latency.mean:.1f} "
                f"p50={p50:.0f} p95={p95:.0f} p99={p99:.0f}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def flush(self) -> dict[str, str]:
        """Write the three telemetry artifacts; return their paths.

        Files are named by :meth:`FabricLayer._artifact_stem`.
        """
        stem = self._artifact_stem()
        paths = {
            "timeseries": f"{stem}.timeseries.json",
            "trace": f"{stem}.trace.json",
            "summary": f"{stem}.summary.txt",
        }
        with open(paths["timeseries"], "w", encoding="utf-8") as handle:
            json.dump(
                self.time_series_doc(), handle, separators=(",", ":")
            )
        with open(paths["trace"], "w", encoding="utf-8") as handle:
            json.dump(
                self.chrome_trace_doc(), handle, separators=(",", ":")
            )
        with open(paths["summary"], "w", encoding="utf-8") as handle:
            handle.write(self.ascii_summary() + "\n")
        return paths
