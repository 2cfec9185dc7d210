"""Declarative fault specifications and deterministic schedules.

A fault campaign is described by a :class:`FaultSpec` — either built
directly or parsed from the ``REPRO_FAULTS`` environment grammar — and
compiled into a :class:`FaultEvent` schedule by :func:`compile_schedule`.
The compiler draws every stochastic choice (cycle, class, target) from a
:class:`repro.util.rng.DeterministicRng` substream of the spec's seed, so
the schedule — and therefore the engine's event log — is byte-identical
for a given ``(spec, config, mesh)`` triple, across runs and across
serial vs. parallel sweeps.

Spec grammar (semicolon-separated ``key=value`` pairs)::

    REPRO_FAULTS="rate=0.002;classes=drop-wakeup,lost-credit;window=64;
                  start=0;end=20000;seed=7;recover=all"

``rate``
    Per-cycle probability of arming one fault event (default 0.001).
``classes``
    Comma-separated subset of :data:`FAULT_CLASSES` (default: all).
``window``
    Active duration in cycles of windowed fault classes (default 64).
``start`` / ``end``
    Cycle range the compiler draws events in (default 0 / 20000).
``seed``
    Schedule seed (default 1); independent of the fabric seed.
``max``
    Hard cap on scheduled events (default unlimited).
``recover``
    Countermeasures to enable: ``none`` (default), ``all``, or a
    comma list of :data:`RECOVERY_NAMES`
    (see :mod:`repro.faults.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.util.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.noc.config import NocConfig
    from repro.noc.topology import ConcentratedMesh

__all__ = [
    "FAULT_CLASSES",
    "WINDOWED_CLASSES",
    "BLOCKING_CLASSES",
    "RECOVERY_NAMES",
    "FaultSpec",
    "FaultEvent",
    "parse_fault_spec",
    "compile_schedule",
]

#: Every fault class the engine can inject (ISSUE 5 tentpole list).
FAULT_CLASSES = (
    "drop-wakeup",    # look-ahead wakeup requests are swallowed
    "lost-credit",    # one upstream credit disappears (one-shot)
    "drop-flit",      # one link flit vanishes in flight
    "corrupt-flit",   # one link flit is delivered with damaged payload
    "stuck-rcs-0",    # a regional congestion bit is stuck at 0
    "stuck-rcs-1",    # a regional congestion bit is stuck at 1
    "stuck-lcs-0",    # a local congestion bit is stuck at 0
    "stuck-lcs-1",    # a local congestion bit is stuck at 1
    "stuck-asleep",   # a router's wakeup transition is suppressed
    "stuck-awake",    # a router's sleep transition is suppressed
)

#: Classes whose events stay active for ``window`` cycles (the rest are
#: one-shots applied at their scheduled cycle).
WINDOWED_CLASSES = frozenset(
    name for name in FAULT_CLASSES if name != "lost-credit"
)

#: Classes that can block forward progress indefinitely — the invariant
#: checker downgrades deadlock-watchdog trips to *expected* only when
#: one of these actually took effect (see docs/faults.md).
BLOCKING_CLASSES = frozenset(
    ("drop-wakeup", "lost-credit", "drop-flit", "stuck-asleep")
)

#: Recovery mechanism names accepted by ``recover=`` (implemented in
#: :mod:`repro.faults.recovery`).
RECOVERY_NAMES = ("wakeup-timeout", "credit-resync", "rcs-refresh")

#: Default horizon for schedules parsed from the environment; events
#: past the simulated length simply never arm.
DEFAULT_END = 20_000


@dataclass(frozen=True)
class FaultSpec:
    """One campaign's declarative fault description."""

    rate: float = 0.001
    classes: tuple[str, ...] = FAULT_CLASSES
    window: int = 64
    start: int = 0
    end: int = DEFAULT_END
    seed: int = 1
    max_events: int | None = None
    recover: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        if self.window < 1:
            raise ValueError("fault window must be >= 1")
        if self.start < 0 or self.end < self.start:
            raise ValueError("need 0 <= start <= end")
        unknown = [c for c in self.classes if c not in FAULT_CLASSES]
        if unknown:
            raise ValueError(
                f"unknown fault class(es) {unknown}; "
                f"choose from {list(FAULT_CLASSES)}"
            )
        if not self.classes:
            raise ValueError("at least one fault class is required")
        bad = [r for r in self.recover if r not in RECOVERY_NAMES]
        if bad:
            raise ValueError(
                f"unknown recovery {bad}; "
                f"choose from {list(RECOVERY_NAMES)}"
            )

    def to_string(self) -> str:
        """Round-trippable ``key=value;...`` form (the env grammar)."""
        parts = [
            f"rate={self.rate:g}",
            "classes=" + ",".join(self.classes),
            f"window={self.window}",
            f"start={self.start}",
            f"end={self.end}",
            f"seed={self.seed}",
        ]
        if self.max_events is not None:
            parts.append(f"max={self.max_events}")
        if self.recover:
            parts.append("recover=" + ",".join(self.recover))
        return ";".join(parts)


@dataclass
class FaultEvent:
    """One scheduled fault occurrence.

    Target fields default to ``-1`` ("unused for this class"); tests may
    set ``subnet`` / ``node`` to ``-1`` deliberately as a wildcard
    matching every subnet / node.  ``duration`` is 0 for one-shots.
    """

    seq: int
    cycle: int
    fault: str
    subnet: int = -1
    node: int = -1
    region: int = -1
    port: int = -1
    vc: int = -1
    duration: int = 0
    #: Filled in by the engine while the event is live.
    hits: int = field(default=0, compare=False)
    recovered: bool = field(default=False, compare=False)
    resolved: str = field(default="", compare=False)

    def key(self) -> dict[str, int | str]:
        """JSON-safe identity (engine bookkeeping excluded)."""
        return {
            "seq": self.seq,
            "cycle": self.cycle,
            "fault": self.fault,
            "subnet": self.subnet,
            "node": self.node,
            "region": self.region,
            "port": self.port,
            "vc": self.vc,
            "duration": self.duration,
        }


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the ``REPRO_FAULTS`` grammar into a :class:`FaultSpec`.

    ``"1"`` is accepted as "all defaults" so ``REPRO_FAULTS=1`` works
    like the other ``REPRO_*`` switches.
    """
    text = text.strip()
    if text in ("", "1"):
        return FaultSpec()
    fields: dict[str, object] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad fault spec fragment {part!r}: expected key=value"
            )
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "rate":
            fields["rate"] = float(value)
        elif key == "classes":
            fields["classes"] = tuple(
                item.strip() for item in value.split(",") if item.strip()
            )
        elif key == "window":
            fields["window"] = int(value)
        elif key == "start":
            fields["start"] = int(value)
        elif key == "end":
            fields["end"] = int(value)
        elif key == "seed":
            fields["seed"] = int(value)
        elif key == "max":
            fields["max_events"] = int(value)
        elif key == "recover":
            if value == "none":
                fields["recover"] = ()
            elif value == "all":
                fields["recover"] = RECOVERY_NAMES
            else:
                fields["recover"] = tuple(
                    item.strip()
                    for item in value.split(",")
                    if item.strip()
                )
        else:
            raise ValueError(
                f"unknown fault spec key {key!r}; known keys: rate, "
                "classes, window, start, end, seed, max, recover"
            )
    return FaultSpec(**fields)  # type: ignore[arg-type]


def compile_schedule(
    spec: FaultSpec, config: NocConfig, mesh: ConcentratedMesh
) -> list[FaultEvent]:
    """Compile ``spec`` into a sorted, deterministic event schedule.

    Parameters
    ----------
    spec:
        The :class:`FaultSpec` to compile.
    config:
        The fabric's :class:`repro.noc.config.NocConfig` (target ranges
        for subnets / VCs).
    mesh:
        The fabric's :class:`repro.noc.topology.ConcentratedMesh`
        (valid nodes, neighbour ports, congestion regions).

    Every draw comes from one ``DeterministicRng(spec.seed, "faults")``
    stream consumed in a fixed order, so two compilations of the same
    inputs are identical element-wise.
    """
    rng = DeterministicRng(spec.seed, "faults")
    num_subnets = config.num_subnets
    num_nodes = mesh.num_nodes
    vcs = config.vcs_per_port
    # Regions mirror RegionalCongestionNetwork's division (capped by
    # mesh dimensions; divisions=2 is the paper's quadrants).
    divisions = config.congestion.rcs_divisions
    num_regions = min(divisions, mesh.cols) * min(divisions, mesh.rows)
    neighbour_ports = [
        sorted(mesh.neighbors(node)) for node in range(num_nodes)
    ]
    events: list[FaultEvent] = []
    seq = 0
    for cycle in range(spec.start, spec.end):
        if rng.random() >= spec.rate:
            continue
        fault = spec.classes[rng.randrange(len(spec.classes))]
        subnet = rng.randrange(num_subnets)
        event = FaultEvent(seq=seq, cycle=cycle, fault=fault, subnet=subnet)
        if fault in ("drop-wakeup", "stuck-asleep", "stuck-awake"):
            event.node = rng.randrange(num_nodes)
            event.duration = spec.window
        elif fault == "lost-credit":
            node = rng.randrange(num_nodes)
            ports = neighbour_ports[node]
            event.node = node
            event.port = ports[rng.randrange(len(ports))]
            event.vc = rng.randrange(vcs)
        elif fault in ("drop-flit", "corrupt-flit"):
            event.duration = spec.window
        elif fault in ("stuck-rcs-0", "stuck-rcs-1"):
            event.region = rng.randrange(num_regions)
            event.duration = spec.window
        else:  # stuck-lcs-0 / stuck-lcs-1
            event.node = rng.randrange(num_nodes)
            event.duration = spec.window
        events.append(event)
        seq += 1
        if spec.max_events is not None and seq >= spec.max_events:
            break
    return events
