"""In-memory spans for the benchmark's traced runs, and their arithmetic.

A span is one call into a simulator layer: a name, the span that was
open when the call started (its parent), and the call's start and end
on the host's monotonic clock, in nanoseconds.  :class:`SpanRecorder`
records them by shadowing public methods on individual instances: an
instance attribute hides the class method, so the simulator's source
is untouched and :meth:`SpanRecorder.detach` restores the plain
methods.  Spans are kept in typed arrays (about 24 bytes each) and
summarised only when the run has finished.

Self time follows the usual definition: a span's duration minus the
part of its interval that its direct children cover.  Wrapper
bookkeeping for a child runs inside the parent's interval, so tracing
overhead lands in the parent's self time; the benchmark reports the
total overhead separately as ``trace.overhead_frac``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Sequence

__all__ = [
    "NO_PARENT",
    "LayerTotals",
    "SpanRecorder",
    "covered_times",
    "summarize",
    "partition_error",
]

#: Parent index of a span opened while no other span was open.
NO_PARENT = -1


@dataclass(frozen=True)
class LayerTotals:
    """Aggregate of every span sharing one name."""

    count: int
    total_ns: int
    self_ns: int


def covered_times(
    parent: Sequence[int], start: Sequence[int], end: Sequence[int]
) -> dict[int, int]:
    """Time each parent span's interval is covered by its direct children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so no nanosecond is covered twice.
    """
    children: dict[int, array] = {}
    for index, owner in enumerate(parent):
        if owner != NO_PARENT:
            kids = children.get(owner)
            if kids is None:
                kids = children[owner] = array("i")
            kids.append(index)
    covered: dict[int, int] = {}
    for owner, kids in children.items():
        low, high = start[owner], end[owner]
        total = 0
        run_start = run_end = None
        for kid in sorted(kids, key=start.__getitem__):
            begin, stop = max(start[kid], low), min(end[kid], high)
            if stop <= begin:
                continue
            if run_end is None or begin > run_end:
                if run_end is not None:
                    total += run_end - run_start
                run_start, run_end = begin, stop
            elif stop > run_end:
                run_end = stop
        if run_end is not None:
            total += run_end - run_start
        covered[owner] = total
    return covered


def summarize(
    labels: Sequence[str],
    name: Sequence[int],
    parent: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
) -> dict[str, LayerTotals]:
    """Count, total duration and total self time per span name."""
    count = [0] * len(labels)
    total = [0] * len(labels)
    for index, label in enumerate(name):
        count[label] += 1
        total[label] += end[index] - start[index]
    self_total = list(total)
    for owner, covered in covered_times(parent, start, end).items():
        self_total[name[owner]] -= covered
    return {
        labels[i]: LayerTotals(count[i], total[i], self_total[i])
        for i in range(len(labels))
    }


def partition_error(
    labels: Sequence[str],
    name: Sequence[int],
    parent: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
    parent_label: str,
) -> int:
    """How far children plus self time miss the parents' total, in ns.

    For every span named ``parent_label``, the durations of its direct
    children plus its own self time must add up to its duration.  The
    result is zero exactly when those children neither overlap each
    other nor stick out of their parent: the condition under which the
    per-phase times can be read as a split of the parent's time.
    """
    target = labels.index(parent_label)
    error = 0
    for index, owner in enumerate(parent):
        if owner != NO_PARENT and name[owner] == target:
            error += end[index] - start[index]
    for owner, covered in covered_times(parent, start, end).items():
        if name[owner] == target:
            error -= covered
    return error


class SpanRecorder:
    """Records one span per call of each wrapped instance method."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = NO_PARENT
        self._shadowed: list[tuple[object, str]] = []

    def _label(self, label: str) -> int:
        index = self._label_ids.get(label)
        if index is None:
            index = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return index

    def wrap(self, obj: object, method: str, label: str) -> None:
        """Record a ``label`` span around every call of ``obj.method``."""
        inner = getattr(obj, method)
        label_id = self._label(label)
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        recorder = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(label_id)
            parents.append(recorder._open)
            starts.append(0)
            ends.append(0)
            recorder._open = index
            begin = perf_counter_ns()
            try:
                return inner(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                starts[index] = begin
                recorder._open = parents[index]

        self._shadow(obj, method, traced)

    def hook(
        self,
        obj: object,
        method: str,
        before: Callable[..., None] | None = None,
        after: Callable[[object], None] | None = None,
    ) -> None:
        """Call ``before(*args)`` and ``after(result)`` around the method.

        Hooks are untimed; they let the benchmark reach objects the
        simulator creates inside a call (a traffic source handed to the
        time loop, a report returned at the end).
        """
        inner = getattr(obj, method)

        def hooked(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = inner(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._shadow(obj, method, hooked)

    def _shadow(self, obj: object, method: str, function) -> None:
        setattr(obj, method, function)
        self._shadowed.append((obj, method))

    def detach(self) -> None:
        """Remove every shadow, restoring the plain class methods."""
        for obj, method in reversed(self._shadowed):
            vars(obj).pop(method, None)
        self._shadowed.clear()

    def summary(self) -> dict[str, LayerTotals]:
        """Per-name totals of everything recorded so far."""
        return summarize(
            self.labels, self.name, self.parent, self.start, self.end
        )

    def partition_error(self, parent_label: str) -> int:
        """:func:`partition_error` over the recorded spans."""
        if parent_label not in self._label_ids:
            return 0
        return partition_error(
            self.labels,
            self.name,
            self.parent,
            self.start,
            self.end,
            parent_label,
        )
