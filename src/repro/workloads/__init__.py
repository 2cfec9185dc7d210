"""Serving-shaped workloads and streaming trace replay.

Three layers (see ``docs/workloads.md``):

- :mod:`repro.workloads.stream` — a chunked, zlib-compressed binary
  trace format whose reader replays millions of packets through the NI
  injection queues under bounded memory.
- :mod:`repro.workloads.sources` — serving-shaped generators: an
  LLM-inference accelerator source (prefill/decode phases), a
  multi-tenant mix with per-tenant QoS tracking, and a diurnal load
  curve that exercises power gating through full sleep/wake seasons.
- :mod:`repro.workloads.spec` — the ``kind:key=value;...`` workload
  grammar plumbed through ``PointSpec.workload`` / ``--workload`` /
  ``REPRO_WORKLOADS``.

``python -m repro.workloads`` records, inspects, generates, and
replays streaming traces (:mod:`repro.workloads.cli`).
"""

from repro.workloads.sources import (
    DEFAULT_DIURNAL_SHAPE,
    DiurnalSource,
    LlmServingSource,
    MultiTenantSource,
)
from repro.workloads.spec import (
    WorkloadSpec,
    make_workload_source,
    parse_workload_spec,
)
from repro.workloads.stream import (
    StreamingTraceReader,
    StreamingTraceWriter,
    trace_info,
)

__all__ = [
    "DEFAULT_DIURNAL_SHAPE",
    "DiurnalSource",
    "LlmServingSource",
    "MultiTenantSource",
    "WorkloadSpec",
    "make_workload_source",
    "parse_workload_spec",
    "StreamingTraceReader",
    "StreamingTraceWriter",
    "trace_info",
]
