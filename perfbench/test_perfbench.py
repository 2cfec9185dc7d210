"""Tests of the benchmark itself: span arithmetic and what it prints.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from spans import NO_PARENT, SpanRecorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic ---------------------------------------------------


def _self_ns(parent, start, end):
    """Each span's self time, through summarize with one label per span."""
    labels = [str(index) for index in range(len(parent))]
    summary = spans.summarize(labels, range(len(parent)), parent, start, end)
    return [summary[label].self_ns for label in labels]


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,30] > a1 [12,20]; root > b [40,70]
    parent = [NO_PARENT, 0, 1, 0]
    start = [0, 10, 12, 40]
    end = [100, 30, 20, 70]
    assert _self_ns(parent, start, end) == [50, 12, 8, 30]


def test_overlapping_children_are_covered_once():
    parent = [NO_PARENT, 0, 0]
    start = [0, 10, 30]
    end = [100, 50, 60]
    assert _self_ns(parent, start, end)[0] == 50


def test_children_are_clipped_to_their_parent():
    parent = [NO_PARENT, 0]
    start = [0, 90]
    end = [100, 120]
    assert _self_ns(parent, start, end)[0] == 90


def test_summarize_groups_by_name():
    labels = ["step", "ni"]
    name = [0, 1, 1, 0, 1]
    parent = [NO_PARENT, 0, 0, NO_PARENT, 3]
    start = [0, 5, 20, 100, 110]
    end = [50, 15, 30, 160, 140]
    summary = spans.summarize(labels, name, parent, start, end)
    assert summary["step"] == spans.LayerTotals(2, 110, 60)
    assert summary["ni"] == spans.LayerTotals(3, 50, 50)


@pytest.mark.parametrize(
    "children, error",
    [
        ([(10, 20), (30, 60)], 0),  # disjoint and inside: a partition
        ([(10, 40), (30, 60)], 10),  # overlap counted twice by the sum
        ([(10, 20), (90, 130)], 30),  # child sticks out of its parent
    ],
)
def test_partition_error(children, error):
    labels = ["fabric.step", "phase"]
    name = [0] + [1] * len(children)
    parent = [NO_PARENT] + [0] * len(children)
    start = [0] + [begin for begin, _ in children]
    end = [100] + [stop for _, stop in children]
    assert (
        spans.partition_error(labels, name, parent, start, end, "fabric.step")
        == error
    )


class _Layer:
    def __init__(self, inner=None):
        self.inner = inner
        self.calls = 0

    def step(self, cycle):
        self.calls += 1
        if self.inner is not None:
            self.inner.step(cycle)
        return cycle


def test_recorder_links_parents_and_detaches():
    leaf = _Layer()
    top = _Layer(leaf)
    recorder = SpanRecorder()
    recorder.wrap(top, "step", "top")
    recorder.wrap(leaf, "step", "leaf")
    seen = []
    recorder.hook(top, "step", after=seen.append)
    for cycle in range(3):
        assert top.step(cycle) == cycle
    assert seen == [0, 1, 2]
    assert list(recorder.parent) == [NO_PARENT, 0, NO_PARENT, 2, NO_PARENT, 4]
    summary = recorder.summary()
    assert summary["top"].count == summary["leaf"].count == 3
    assert recorder.partition_error("top") == 0
    recorder.detach()
    assert "step" not in vars(top) and "step" not in vars(leaf)
    assert top.step(9) == 9 and top.calls == 4


# -- the digest gate ---------------------------------------------------


def _gated(pinned, *ops):
    bench = run.Bench(workload=None, pinned=pinned)
    bench.ops = [
        {"kernel": kernel, "digest": digest, "error": error}
        for kernel, digest, error in ops
    ]
    bench.gate()
    return [op["failed"] for op in bench.ops], bench.counts()


def test_gate_passes_equal_digests():
    failed, counts = _gated(
        None, ("dense", "a", None), ("skip", "a", None), ("dense", "a", None)
    )
    assert failed == [False, False, False]
    assert counts == {
        "dense": {"attempted": 2, "failed": 0},
        "skip": {"attempted": 1, "failed": 0},
    }


def test_gate_fails_raised_mismatched_and_unpinned_operations():
    assert _gated(
        None, ("dense", "a", None), ("skip", "b", None)
    )[0] == [True, True]
    assert _gated(
        None, ("dense", "a", None), ("skip", None, "ValueError: x")
    )[0] == [False, True]
    assert _gated(
        "z", ("dense", "a", None), ("skip", "a", None)
    )[0] == [True, True]


# -- the declared and printed metrics ----------------------------------


def _declared(section):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def test_declared_metrics_match_benchmark_json():
    assert run.END_TO_END == _declared("end_to_end")
    assert run.PER_LAYER == _declared("per_layer")


def test_workloads_match_benchmark_json():
    import suite

    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(
        suite.WORKLOADS
    )
    assert BENCHMARK["paths"] == [HERE.name]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_result_matches_benchmark_json(trace, declared):
    done = _run(
        "--workload", "uniform-busy", "--seed", "7",
        "--seconds", "1", "--trace", trace,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(declared)
    assert set(record["kernels"]) == set(run.KERNELS)
    assert len(record["calibration_s"]) == 2
    if trace == "1":
        assert all(record["checks"].values()), record["checks"]


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("_work", "__pycache__"),
    )
    done = _run(
        "--workload", "uniform-busy", "--seed", "1",
        "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
