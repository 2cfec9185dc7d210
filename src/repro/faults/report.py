"""Resilience metrics emitted by one fault-injected run.

A :class:`FaultReport` is the engine's end-of-run snapshot: how many
scheduled faults actually armed, how they resolved (masked by
architectural slack, repaired by a recovery mechanism, or effective),
how many tripped the deadlock watchdog, and what fraction of offered
packets arrived undamaged.  The ``event_digest`` is a SHA-256 over the
canonical event log — two runs of the same schedule must produce equal
digests regardless of worker count (the campaign driver asserts this).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

__all__ = ["FaultReport"]


@dataclass(frozen=True)
class FaultReport:
    """Outcome accounting for one fault-injection run."""

    #: Scheduled events that armed inside the simulated window.
    injected: int
    #: Armed events that never perturbed architectural state.
    masked: int
    #: Armed events whose perturbation a recovery mechanism repaired.
    recovered: int
    #: Armed events whose perturbation reached architectural state.
    effective: int
    #: Deadlock-watchdog trips attributed to injected faults.
    fatal: int
    #: Packets sources attempted to send during the run.
    packets_offered: int
    #: Packets that reached their destination NI (damaged or not).
    packets_received: int
    #: Received packets that lost or corrupted at least one flit.
    damaged_received: int
    #: (received − damaged) / offered; 1.0 when nothing was offered.
    survival_rate: float
    #: Flits deliberately removed in flight.
    dropped_flits: int
    #: Credits still missing from upstream counters at end of run.
    lost_credits: int
    #: Routers force-woken by the wakeup-timeout watchdog.
    forced_wakes: int
    #: Total absolute credit correction applied by credit-resync.
    credits_resynced: int
    #: RCS bits corrected by the refresh heartbeat.
    rcs_scrubbed: int
    #: SHA-256 of the canonical event log (determinism witness).
    event_digest: str

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON artifacts and sweep rows."""
        return asdict(self)
