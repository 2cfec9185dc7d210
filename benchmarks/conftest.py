"""Benchmark-harness configuration.

Every benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index), asserts the *shape* the paper reports,
and writes the rendered table to ``benchmarks/out/<name>.txt``.  The
``.txt`` artifact carries a header comment recording the knobs that
shaped the run (``REPRO_BENCH_SCALE``, ``REPRO_JOBS``) and the elapsed
wall time, so a saved artifact is self-describing.

Next to each ``.txt`` the harness also writes a machine-readable
``BENCH_<name>.json`` record (wall time, simulated cycles/flits from
the :mod:`repro.perf.meters` work meter, scale, host fingerprint, git
SHA — schema in :mod:`repro.perf.bench`).  CI diffs these against the
committed ``benchmarks/baseline/`` set with
``python -m repro.perf compare`` as a soft regression gate; see
``docs/perf.md``.

Cycle counts are controlled by ``REPRO_BENCH_SCALE`` (default 0.35 —
quick but statistically meaningful).  Set it to 1.0 to reproduce the
EXPERIMENTS.md numbers exactly.

The on-disk sweep cache is disabled here so benchmarks always measure
real simulation time (a warm cache would report near-zero); sweeps
still parallelize across ``REPRO_JOBS`` workers, which is the shipped
execution path.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

os.environ.setdefault("REPRO_NO_CACHE", "1")

OUT_DIR = Path(__file__).parent / "out"

#: Result names saved by the currently running benchmark test (reset
#: around every test by :func:`_bench_records`).
_CURRENT_SAVED: list[str] = []
_TEST_STARTED = 0.0


def bench_scale(default: float = 0.35) -> float:
    """Scale factor for benchmark experiment runs."""
    from repro.util import env

    return env.floating("REPRO_BENCH_SCALE", default)


def _jobs() -> int:
    from repro.noc.layers import RunOptions

    return RunOptions.from_env().jobs


def save_result(result) -> str:
    """Persist an ExperimentResult table; return the rendered text.

    The on-disk artifact gets a provenance header comment; the returned
    text is the bare table, which the benchmarks assert on.
    """
    OUT_DIR.mkdir(exist_ok=True)
    table = result.to_table()
    elapsed = time.perf_counter() - _TEST_STARTED
    header = (
        f"# REPRO_BENCH_SCALE={bench_scale():g} REPRO_JOBS={_jobs()} "
        f"elapsed={elapsed:.2f}s\n"
    )
    (OUT_DIR / f"{result.name}.txt").write_text(header + table + "\n")
    _CURRENT_SAVED.append(result.name)
    return table


@pytest.fixture(autouse=True)
def _bench_records():
    """Write ``BENCH_<name>.json`` for every result a test saved.

    Wall time is the whole test's (the simulation dominates it); the
    simulated cycle/flit counts are the delta of the process-lifetime
    work meter across the test, which includes work shipped back from
    sweep pool workers.
    """
    global _TEST_STARTED
    from repro.perf.meters import WORK

    _CURRENT_SAVED.clear()
    cycles_before, flits_before = WORK.snapshot()
    _TEST_STARTED = time.perf_counter()
    yield
    elapsed = time.perf_counter() - _TEST_STARTED
    if not _CURRENT_SAVED:
        return
    from repro.perf.bench import make_bench_record, write_bench_record

    cycles_after, flits_after = WORK.snapshot()
    for name in _CURRENT_SAVED:
        record = make_bench_record(
            name=name,
            wall_seconds=max(elapsed, 1e-9),
            scale=bench_scale(),
            jobs=_jobs(),
            sim_cycles=cycles_after - cycles_before,
            sim_flits=flits_after - flits_before,
            repo_dir=str(Path(__file__).resolve().parent.parent),
        )
        write_bench_record(str(OUT_DIR), record)


@pytest.fixture(scope="session")
def fig08_result():
    """Figure 8 runs once per session; Figure 9 reuses it."""
    from repro.experiments.fig08_applications import run_fig08

    return run_fig08(scale=bench_scale())
