"""Attribution layer: per-packet latency phases, per-subnet energy.

``repro.explain`` decomposes *where* every cycle of packet latency and
every joule of network energy went, under the same per-instance
shadowing contract as :mod:`repro.telemetry` — an unattached fabric
runs the plain class bytecode.  Enable with ``REPRO_EXPLAIN=1`` (or
``--explain`` on the experiments CLI); see ``docs/explain.md``.
"""

from repro.explain.hub import ExplainHub, parse_explain_spec

__all__ = [
    "ExplainHub",
    "parse_explain_spec",
]
