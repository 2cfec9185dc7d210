"""Traffic trace recording and replay.

The paper's methodology is trace-driven: instruction traces feed a
cycle-level backend.  This module provides the network-level analogue —
any traffic source can be recorded into a :class:`TrafficTrace` and
replayed cycle-accurately later (or on a different fabric
configuration), which makes experiments repeatable independent of the
generator that produced them and enables apples-to-apples comparisons
of designs under the *identical* packet sequence.

Traces serialize to a simple text format (one packet per line) so they
can be stored alongside experiment results.  Version 1 files start
with a ``#catnap-trace v1`` header; each line carries five mandatory
integer fields (``cycle src dst size_bits message_class``) and an
optional sixth (``tenant``).  Malformed input fails loudly with the
offending line number.  For traces of millions of packets use the
chunked binary format in :mod:`repro.workloads.stream`, which replays
under bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.noc.backend import NEVER
from repro.noc.flit import Packet
from repro.noc.multinoc import MultiNocFabric

__all__ = [
    "TRACE_TEXT_VERSION",
    "TraceRecord",
    "TrafficTrace",
    "RecordingSource",
    "TraceSource",
]

#: Version written by :meth:`TrafficTrace.save` (``#catnap-trace v1``).
TRACE_TEXT_VERSION = 1

_HEADER_PREFIX = "#catnap-trace"


@dataclass(frozen=True)
class TraceRecord:
    """One recorded packet injection."""

    cycle: int
    src: int
    dst: int
    size_bits: int
    message_class: int
    #: Tenant tag for multi-tenant serving traffic (-1 = untagged).
    tenant: int = -1

    def validate(self) -> None:
        """Raise :class:`ValueError` on any out-of-range field."""
        if self.cycle < 0:
            raise ValueError(f"cycle must be >= 0, got {self.cycle}")
        if self.src < 0 or self.dst < 0:
            raise ValueError(
                f"src/dst must be >= 0, got {self.src}/{self.dst}"
            )
        if self.size_bits <= 0:
            raise ValueError(
                f"size_bits must be positive, got {self.size_bits}"
            )
        if self.message_class < 0:
            raise ValueError(
                f"message_class must be >= 0, got {self.message_class}"
            )
        if self.tenant < -1:
            raise ValueError(f"tenant must be >= -1, got {self.tenant}")


class TrafficTrace:
    """An ordered collection of packet-injection records."""

    def __init__(self, records: list[TraceRecord] | None = None) -> None:
        self.records: list[TraceRecord] = list(records or [])

    def append(self, record: TraceRecord) -> None:
        """Add one record (records must be appended in cycle order)."""
        if self.records and record.cycle < self.records[-1].cycle:
            raise ValueError("trace records must be in cycle order")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration(self) -> int:
        """Cycle of the last recorded injection (0 when empty)."""
        return self.records[-1].cycle if self.records else 0

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace with a version header, one line per packet.

        Untagged records emit the classic five fields; records carrying
        a tenant tag append it as a sixth field, so files of untagged
        traffic stay byte-compatible with pre-versioned readers.
        """
        lines = [f"{_HEADER_PREFIX} v{TRACE_TEXT_VERSION}"]
        for r in self.records:
            line = f"{r.cycle} {r.src} {r.dst} {r.size_bits} {r.message_class}"
            if r.tenant >= 0:
                line += f" {r.tenant}"
            lines.append(line)
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "TrafficTrace":
        """Read a trace written by :meth:`save`.

        Accepts headerless (pre-version) files for backward
        compatibility.  Every malformed line — wrong field count,
        non-integer fields, out-of-range values, cycle-order
        violations, or an unsupported header version — raises
        :class:`ValueError` naming the offending line number.
        """
        trace = cls()
        for lineno, line in enumerate(
            Path(path).read_text().splitlines(), start=1
        ):
            line = line.strip()
            if line.startswith(_HEADER_PREFIX):
                version = line[len(_HEADER_PREFIX):].strip()
                if version != f"v{TRACE_TEXT_VERSION}":
                    raise ValueError(
                        f"unsupported trace version {version!r} on "
                        f"line {lineno} (expected "
                        f"'v{TRACE_TEXT_VERSION}')"
                    )
                continue
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (5, 6):
                raise ValueError(
                    f"malformed trace line {lineno}: expected 5 or 6 "
                    f"fields, got {len(parts)}: {line!r}"
                )
            try:
                fields = [int(p) for p in parts]
            except ValueError:
                raise ValueError(
                    f"malformed trace line {lineno}: non-integer "
                    f"field in {line!r}"
                ) from None
            record = TraceRecord(*fields)
            try:
                record.validate()
                trace.append(record)
            except ValueError as exc:
                raise ValueError(
                    f"malformed trace line {lineno}: {exc}"
                ) from None
        return trace


class RecordingSource:
    """Wraps any traffic source and records what it offers.

    The wrapped source must expose ``step(cycle)`` and offer packets
    through the fabric passed here; recording hooks the fabric's
    ``offer`` just for the duration of each step.  Records go to
    ``sink``, anything with ``append(record)``: a fresh in-memory
    :class:`TrafficTrace` by default, or a
    :class:`repro.workloads.stream.StreamingTraceWriter` for recordings
    of any length under bounded memory.  ``trace`` is the sink.
    """

    def __init__(self, fabric: MultiNocFabric, inner, sink=None) -> None:
        self.fabric = fabric
        self.inner = inner
        self.trace = TrafficTrace() if sink is None else sink

    def next_offer_cycle(self, cycle: int) -> int:
        """Delegate the skip horizon to the wrapped source."""
        probe = getattr(self.inner, "next_offer_cycle", None)
        return probe(cycle) if probe is not None else cycle

    def step(self, cycle: int) -> None:
        """Run the inner source for one cycle, recording its packets."""
        original_offer = self.fabric.offer

        def recording_offer(packet: Packet) -> None:
            self.trace.append(
                TraceRecord(
                    cycle=cycle,
                    src=packet.src,
                    dst=packet.dst,
                    size_bits=packet.size_bits,
                    message_class=packet.message_class,
                    tenant=packet.tenant,
                )
            )
            original_offer(packet)

        self.fabric.offer = recording_offer  # type: ignore[method-assign]
        try:
            self.inner.step(cycle)
        finally:
            self.fabric.offer = original_offer  # type: ignore[method-assign]


class TraceSource:
    """Replays trace records into a fabric cycle-accurately.

    ``records`` is any cycle-ordered iterable of :class:`TraceRecord`:
    a :class:`TrafficTrace`, or a
    :class:`repro.workloads.stream.StreamingTraceReader`.  The source
    holds exactly one pending record; everything else stays inside the
    iterator, so a streaming replay's memory is bounded by one
    decompressed chunk plus whatever is in flight in the fabric.
    """

    def __init__(self, fabric: MultiNocFabric, records) -> None:
        self.fabric = fabric
        self._iter = iter(records)
        self._pending = next(self._iter, None)
        self.packets_generated = 0

    @property
    def exhausted(self) -> bool:
        """True once every record has been replayed."""
        return self._pending is None

    def next_offer_cycle(self, cycle: int) -> int:
        """Earliest cycle >= ``cycle`` with a pending record.

        Between records (and after the last one) :meth:`step` returns
        without side effects, so the skip backend may jump those spans
        byte-identically.
        """
        if self._pending is None:
            return NEVER
        return max(cycle, self._pending.cycle)

    def step(self, cycle: int) -> None:
        """Offer every record due at ``cycle``."""
        pending = self._pending
        while pending is not None and pending.cycle <= cycle:
            self.fabric.offer(
                Packet(
                    src=pending.src,
                    dst=pending.dst,
                    size_bits=pending.size_bits,
                    message_class=pending.message_class,
                    tenant=pending.tenant,
                )
            )
            self.packets_generated += 1
            pending = next(self._iter, None)
        self._pending = pending
