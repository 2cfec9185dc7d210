"""Simulator self-profiling, throughput metrics, bench regression.

``repro.perf`` makes the *simulator itself* observable, the way
``repro.telemetry`` makes the simulated network observable:

* :mod:`repro.perf.profiler` — a zero-overhead-when-detached phase
  profiler (``REPRO_PERF=1`` / ``--perf``) that times link delivery,
  the router pipeline, gating controller, congestion monitor, and NI
  packetization per step, with an optional cProfile capture
  (``REPRO_PERF_CPROFILE=1``) for flame graphs;
* :mod:`repro.perf.meters` — always-on simulated-work counters behind
  the cycles/sec and flits/sec figures in the CLI and sweep output;
* :mod:`repro.perf.bench` — machine-readable ``BENCH_*.json`` records
  and the ``python -m repro.perf compare`` regression gate.

See ``docs/perf.md`` for the environment knobs and workflows, and
``docs/telemetry.md`` for the NoC-level counterpart.
"""

from repro.perf.bench import (
    BENCH_SCHEMA,
    compare_bench_dirs,
    load_bench_dir,
    make_bench_record,
    validate_bench_record,
    write_bench_record,
)
from repro.perf.meters import WORK, WorkMeter, throughput_suffix
from repro.perf.profiler import (
    PROFILE_SCHEMA,
    PhaseProfiler,
    cprofile_enabled,
)

__all__ = [
    "BENCH_SCHEMA",
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "WORK",
    "WorkMeter",
    "compare_bench_dirs",
    "cprofile_enabled",
    "load_bench_dir",
    "make_bench_record",
    "throughput_suffix",
    "validate_bench_record",
    "write_bench_record",
]
