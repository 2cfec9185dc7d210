"""The ``--workload`` / ``REPRO_WORKLOADS`` spec grammar.

A workload spec is ``kind`` optionally followed by ``:key=value``
pairs separated by ``;``::

    llm:batch=8;seq=64;mcs=4
    tenants:rates=0.06,0.03,0.01;pattern=uniform
    diurnal:base=0.08;cycles_per_hour=2000
    trace:results/workloads/run.ctr

Parsing is strict — an unknown kind or key, a malformed value, or an
out-of-range number raises :class:`ValueError` — so the experiments
CLI can validate ``--workload`` at argument-parse time and forked
sweep workers never see a bad spec.  :meth:`WorkloadSpec.to_text`
produces a canonical form (sorted keys, defaults filled in), which is
what drivers put in ``PointSpec.workload`` so textually different
spellings of different measurements never collide in the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.config import SYNTHETIC_PACKET_BITS

__all__ = [
    "DEFAULT_TENANT_MIX",
    "WorkloadSpec",
    "parse_workload_spec",
    "make_workload_source",
]

#: Default serving mix of the ``ext_serving`` driver (and of
#: ``REPRO_WORKLOADS`` when unset): three tenants at 6%/3%/1% load.
DEFAULT_TENANT_MIX = "tenants:rates=0.06,0.03,0.01"

# Per-kind parameter tables: name -> (parser, default).  ``None``
# defaults are computed downstream (e.g. llm prefill_cycles).
def _float_list(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part != "")
    if not values:
        raise ValueError("expected a comma-separated list of numbers")
    return values


def _shape(text: str) -> tuple[float, ...]:
    values = _float_list(text)
    if len(values) != 24:
        raise ValueError(
            f"shape must list 24 hourly multipliers, got {len(values)}"
        )
    return values


_PARAMS: dict[str, dict[str, tuple]] = {
    "llm": {
        "batch": (int, 8),
        "seq": (int, 64),
        "mcs": (int, 4),
        "prefill_rate": (float, 0.35),
        "decode_rate": (float, 0.06),
        "prefill_bits": (int, SYNTHETIC_PACKET_BITS),
        "decode_bits": (int, 128),
        "token_cycles": (int, 4),
        "prefill_cycles": (int, None),
        "gap": (int, 64),
        "scale": (float, 1.0),
    },
    "tenants": {
        "rates": (_float_list, (0.06, 0.03, 0.01)),
        "pattern": (str, "uniform"),
        "bits": (int, SYNTHETIC_PACKET_BITS),
        "scale": (float, 1.0),
    },
    "diurnal": {
        "base": (float, 0.08),
        "pattern": (str, "uniform"),
        "cycles_per_hour": (int, 2000),
        "shape": (_shape, None),
        "bits": (int, SYNTHETIC_PACKET_BITS),
        "scale": (float, 1.0),
    },
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(entry) for entry in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class WorkloadSpec:
    """One parsed workload description.

    ``params`` holds every non-``None`` parameter (defaults included)
    as a sorted tuple of pairs, so equal specs compare and hash equal.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        """Parameter lookup by name."""
        for name, value in self.params:
            if name == key:
                return value
        return default

    def to_text(self) -> str:
        """Canonical spec text (round-trips through the parser)."""
        if self.kind == "trace":
            return f"trace:{self.get('path')}"
        if not self.params:
            return self.kind
        body = ";".join(
            f"{name}={_format_value(value)}"
            for name, value in self.params
        )
        return f"{self.kind}:{body}"

    def scaled(self, multiplier: float) -> "WorkloadSpec":
        """Copy with the ``scale`` parameter multiplied.

        The diurnal-curve hook of the ``ext_serving`` driver: the same
        base mix replayed at each hour's load multiplier.  Trace
        workloads replay fixed packet sequences and cannot be scaled.
        """
        if self.kind == "trace":
            raise ValueError("trace workloads cannot be scaled")
        if multiplier < 0.0:
            raise ValueError(f"scale multiplier must be >= 0: {multiplier}")
        scale = float(self.get("scale", 1.0)) * multiplier
        params = tuple(
            (name, scale if name == "scale" else value)
            for name, value in self.params
        )
        return WorkloadSpec(self.kind, params)


def parse_workload_spec(text: str) -> WorkloadSpec:
    """Parse and validate one workload spec string."""
    text = text.strip()
    if not text:
        raise ValueError("empty workload spec")
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind == "trace":
        path = body.strip()
        if not path:
            raise ValueError("trace workload needs a path: trace:PATH")
        return WorkloadSpec("trace", (("path", path),))
    if kind not in _PARAMS:
        raise ValueError(
            f"unknown workload kind {kind!r}; choose from "
            f"{sorted(_PARAMS)} or trace:PATH"
        )
    table = _PARAMS[kind]
    values = {name: default for name, (_, default) in table.items()}
    if body.strip():
        for item in body.split(";"):
            item = item.strip()
            if not item:
                continue
            name, sep, raw = item.partition("=")
            name = name.strip()
            if not sep or not raw.strip():
                raise ValueError(
                    f"malformed workload parameter {item!r} "
                    f"(expected key=value)"
                )
            if name not in table:
                raise ValueError(
                    f"unknown {kind} parameter {name!r}; choose from "
                    f"{sorted(table)}"
                )
            parser = table[name][0]
            try:
                values[name] = parser(raw.strip())
            except ValueError as exc:
                raise ValueError(
                    f"bad value for {kind} parameter {name}: {exc}"
                ) from None
    params = tuple(
        (name, value)
        for name, value in sorted(values.items())
        if value is not None
    )
    return WorkloadSpec(kind, params)


def make_workload_source(
    fabric,
    spec: "WorkloadSpec | str",
    seed: int = 7,
    packet_bits: int = SYNTHETIC_PACKET_BITS,
):
    """Instantiate the traffic source a spec describes, on ``fabric``.

    ``packet_bits`` is only a fallback: specs carrying their own
    ``bits``/``*_bits`` parameters always win.  Trace workloads sniff
    the file magic and open either the streaming binary format or the
    text format of :mod:`repro.traffic.trace`.
    """
    from repro.workloads.sources import (
        DEFAULT_DIURNAL_SHAPE,
        DiurnalSource,
        LlmServingSource,
        MultiTenantSource,
    )

    if isinstance(spec, str):
        spec = parse_workload_spec(spec)
    if spec.kind == "llm":
        return LlmServingSource(
            fabric,
            batch=spec.get("batch"),
            seq=spec.get("seq"),
            mcs=spec.get("mcs"),
            prefill_rate=spec.get("prefill_rate"),
            decode_rate=spec.get("decode_rate"),
            prefill_bits=spec.get("prefill_bits"),
            decode_bits=spec.get("decode_bits"),
            token_cycles=spec.get("token_cycles"),
            prefill_cycles=spec.get("prefill_cycles"),
            gap=spec.get("gap"),
            scale=spec.get("scale"),
            seed=seed,
        )
    if spec.kind == "tenants":
        return MultiTenantSource(
            fabric,
            rates=spec.get("rates"),
            pattern=spec.get("pattern"),
            packet_bits=spec.get("bits", packet_bits),
            scale=spec.get("scale"),
            seed=seed,
        )
    if spec.kind == "diurnal":
        return DiurnalSource(
            fabric,
            pattern=spec.get("pattern"),
            base=spec.get("base"),
            cycles_per_hour=spec.get("cycles_per_hour"),
            shape=spec.get("shape", DEFAULT_DIURNAL_SHAPE),
            packet_bits=spec.get("bits", packet_bits),
            scale=spec.get("scale"),
            seed=seed,
        )
    if spec.kind == "trace":
        return open_trace_source(fabric, str(spec.get("path")))
    raise ValueError(f"unknown workload kind {spec.kind!r}")


def open_trace_source(fabric, path: str):
    """Trace replay source for either trace format, sniffed by magic."""
    from repro.traffic.trace import TraceSource, TrafficTrace
    from repro.workloads.stream import StreamingTraceReader, is_stream_trace

    if is_stream_trace(path):
        return TraceSource(fabric, StreamingTraceReader(path))
    return TraceSource(fabric, TrafficTrace.load(path))
