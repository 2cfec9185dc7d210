"""Simulation kernels behind the :class:`FabricBackend` interface.

A backend owns the *time loop* of a :class:`~repro.noc.multinoc.
MultiNocFabric`: given a span of cycles (and optionally a traffic
source), it advances the fabric to the end of the span.  Two backends
ship:

``dense``
    The reference kernel: call ``source.step`` and ``fabric.step`` once
    per simulated cycle.  This is exactly the loop the fabric has always
    run; it is the semantic definition every other backend is measured
    against.

``skip``
    An energy-proportional kernel for an energy-proportionality paper:
    idle spans cost no Python work.  Visited cycles run the fabric's
    own cycle body, :meth:`MultiNocFabric.step` (which skips idle NIs
    and empty subnets and charges sleeping routers O(1)), and fully
    quiescent spans are skipped in one jump to the next event horizon
    — the earliest pending injection, observer deadline or requested
    span end — with the power-gating state machine advanced in closed
    form by the controller.  The kernel has no copy of any phase: it
    owns only the time loop.

Equivalence is a hard contract, not an aspiration: for any workload,
``skip`` must leave the fabric in a byte-identical state to ``dense``
(same ``FabricReport``, same RNG positions, same counters).  The
figure-table tests and ``tests/test_backend.py`` enforce this.

Backends also respect the per-instance shadowing contract (see
``docs/architecture.md``).  One rule composes the skip kernel with the
layers of the :mod:`repro.noc.layers` registry: the kernel runs the
shadowed ``fabric.step`` on the cycles it visits, jumps no further
than the earliest ``next_observe_cycle`` of the layers in the chain
(a telemetry sample, an energy-window close, a fault arm), and reports
each jump to every layer's ``note_steps``.  Only a wrapper that no
registered layer installed makes the kernel defer to dense stepping
through the shadowed step, because nothing tells it what that wrapper
observes.

Backend selection: ``MultiNocFabric(config, backend="skip")``, else
the run policy's backend (:class:`~repro.noc.layers.RunOptions`: the
experiments CLI's ``--backend`` flag, or ``REPRO_BACKEND`` read when
the fabric is built).  Unset means ``dense``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.noc.layers import DEFAULT_BACKEND, NEVER, shadow_chain

if TYPE_CHECKING:
    from repro.noc.multinoc import MultiNocFabric

__all__ = [
    "FabricBackend",
    "DenseBackend",
    "SkipBackend",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NEVER",
    "backend_names",
    "make_backend",
]


class FabricBackend:
    """Time-loop strategy for one fabric instance.

    Subclasses must satisfy the invariants documented in
    ``docs/architecture.md``: byte-identical fabric state at every span
    boundary, dense deference to unregistered ``step`` shadows, and
    ``source.step(cycle)`` called for every cycle at which the source
    may act.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def __init__(self, fabric: "MultiNocFabric") -> None:
        self.fabric = fabric

    def run(self, cycles: int, source=None) -> None:
        """Advance the fabric by ``cycles``, stepping ``source`` too."""
        raise NotImplementedError


class DenseBackend(FabricBackend):
    """The reference per-cycle kernel: ``fabric.step`` every cycle."""

    name = "dense"

    def run(self, cycles: int, source=None) -> None:
        # ``fabric.step`` is looked up per iteration on purpose: the
        # shadowing contract lets observers attach or detach between
        # cycles, and the dense kernel must honour the current shadow.
        fabric = self.fabric
        if source is None:
            for _ in range(cycles):
                fabric.step()
        else:
            source_step = source.step
            for _ in range(cycles):
                source_step(fabric.cycle)
                fabric.step()


class SkipBackend(FabricBackend):
    """Idle-aware kernel: the fabric's cycle body on visited cycles,
    quiescence jumps in between.

    The kernel caches nothing across spans, so external callers may
    drive ``fabric.step`` or change fabric state between spans.
    """

    name = "skip"

    def __init__(self, fabric: "MultiNocFabric") -> None:
        super().__init__(fabric)
        #: Cycles visited (one ``fabric.step`` each), cycles covered by
        #: quiescence jumps, and cycles stepped densely through an
        #: unregistered shadow.  Each grows once per span.
        self.cycles_visited = 0
        self.cycles_jumped = 0
        self.cycles_deferred = 0

    # ------------------------------------------------------------------
    # Shadowing-contract composition
    # ------------------------------------------------------------------
    def _shadow_mode(self) -> tuple[bool, tuple[object, ...]]:
        """``(defer, observers)`` for how ``fabric.step`` is shadowed.

        The kernel runs when every binding in the ``step`` shadow chain
        belongs to a registered layer; ``observers`` are those layers,
        top first, which bound each jump and hear of it.  An
        unregistered binding may observe every cycle: ``defer`` is True
        and the kernel steps densely through the shadow chain.
        """
        chain = shadow_chain(self.fabric, "step")
        if any(layer is None for layer, _ in chain):
            return True, ()
        return False, tuple(binding.__self__ for _, binding in chain)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, cycles: int, source=None) -> None:
        if cycles <= 0:
            return
        fabric = self.fabric
        defer, observers = self._shadow_mode()
        if defer:
            # An unregistered wrapper is attached; dense semantics
            # through the shadow chain is the only faithful execution.
            DenseBackend.run(self, cycles, source)
            self.cycles_deferred += cycles
            return
        end = fabric.cycle + cycles
        while fabric.cycle < end:
            if not self._kernel_span(end, source):
                self._jump(end, source, observers)

    # ------------------------------------------------------------------
    # Busy cycles
    # ------------------------------------------------------------------
    def _kernel_span(self, end: int, source) -> bool:
        """Run visited cycles until ``end`` or quiescence.

        Each visited cycle is ``fabric.step``, looked up once per span:
        the fabric's own cycle body under whatever layers are attached.
        Returns True when the span reached ``end``; False when the
        fabric went fully quiescent first (the caller may then jump).
        """
        fabric = self.fabric
        step = fabric.step
        quiescent = fabric.quiescent
        source_step = source.step if source is not None else None
        quiet_source = self._source_quiet_probe(source)
        start = cycle = fabric.cycle
        while cycle < end:
            if source_step is not None:
                source_step(cycle)
            busy = step()
            cycle = fabric.cycle
            if (
                cycle < end
                and not busy
                and quiet_source(cycle)
                and quiescent()
            ):
                self.cycles_visited += cycle - start
                return False
        self.cycles_visited += cycle - start
        return True

    # ------------------------------------------------------------------
    # Quiescence
    # ------------------------------------------------------------------
    def _source_quiet_probe(self, source) -> Callable[[int], bool]:
        """Predicate: at ``cycle`` the source offers nothing and can
        report its next active cycle (else it is never quiet)."""
        if source is None:
            return lambda cycle: True
        next_offer = getattr(source, "next_offer_cycle", None)
        if next_offer is None:
            return lambda cycle: False
        return lambda cycle: next_offer(cycle) > cycle

    def _jump(self, end: int, source, observers) -> None:
        """Advance the clock over a quiescent span in one step.

        Only power-gating bookkeeping evolves during quiescence, and
        the controller advances it in closed form
        (:meth:`~repro.core.gating.PowerGatingController.advance`);
        every other per-cycle phase is a proven no-op.  The jump stops
        at the first cycle the source may act in or an observer must
        see stepped.
        """
        fabric = self.fabric
        start = fabric.cycle
        horizon = end
        if source is not None:
            horizon = min(horizon, source.next_offer_cycle(start))
        for observer in observers:
            horizon = min(horizon, observer.next_observe_cycle(start))
        if horizon <= start:
            # The source or an observer acts now; nothing to skip —
            # run one kernel cycle and let the caller re-evaluate.
            self._kernel_span(start + 1, source)
            return
        span = horizon - start
        fabric.gating.advance(start, horizon)
        fabric.cycle = horizon
        self.cycles_jumped += span
        for observer in observers:
            observer.note_steps(span, horizon - 1)


#: Registry of selectable backends, keyed by CLI/env name.
BACKENDS: dict[str, type[FabricBackend]] = {
    DenseBackend.name: DenseBackend,
    SkipBackend.name: SkipBackend,
}


def backend_names() -> tuple[str, ...]:
    """Valid backend names, sorted (for CLI help and errors)."""
    return tuple(sorted(BACKENDS))


def make_backend(name: str, fabric: "MultiNocFabric") -> FabricBackend:
    """Instantiate the backend called ``name`` for ``fabric``.

    Raises ``ValueError`` with the valid names for anything unknown, so
    callers (the CLI validates earlier; library users hit this) get an
    actionable message instead of an AttributeError mid-simulation.
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown fabric backend {name!r}; "
            f"choose from {', '.join(backend_names())}"
        ) from None
    return cls(fabric)

