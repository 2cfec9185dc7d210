"""Whole-program contract checks: SIM101–SIM105 mutation tests.

Each test builds a *clean* miniature ``repro`` package (plus fixture
docs) in ``tmp_path``, plants exactly one contract violation, and
asserts the checker reports it — and, symmetrically, that the clean
tree and the real repository report nothing.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

from repro.analysis.cli import main as analysis_main
from repro.analysis.contracts import (
    CONTRACT_RULES,
    check_tree,
    default_docs_dir,
)
from repro.analysis.lint import LINT_RULES, Baseline, default_target

# ----------------------------------------------------------------------
# The clean fixture tree
# ----------------------------------------------------------------------

_BASE_FILES: dict[str, str] = {
    "repro/__init__.py": "",
    "repro/util/__init__.py": "",
    "repro/util/env.py": """
        import os
        from dataclasses import dataclass


        @dataclass(frozen=True)
        class EnvVar:
            name: str
            kind: str
            default: str
            doc_page: str
            description: str


        REGISTRY: dict[str, EnvVar] = {}


        def _register(var: EnvVar) -> None:
            REGISTRY[var.name] = var


        _register(EnvVar("REPRO_BACKEND", "text", "dense", "index.md", "kernel"))


        def text(name: str, default: str = "") -> str:
            return os.environ.get(name, "") or default


        def flag(name: str) -> bool:
            return os.environ.get(name, "") not in ("", "0")
    """,
    "repro/noc/__init__.py": "",
    "repro/noc/router.py": """
        class Router:
            __slots__ = ("node", "credits")

            def __init__(self, node: int) -> None:
                self.node = node
                self.credits = 0
    """,
    "repro/noc/multinoc.py": """
        from repro.noc.backend import make_backend


        class FabricReport:
            def __init__(self, cycles: int, latency: float) -> None:
                self.cycles = cycles
                self.latency = latency


        class MultiNocFabric:
            def __init__(self, config) -> None:
                self.config = config
                self.cycle = 0
                self.stats = {}
                self.backend = make_backend("dense", self)

            def step(self) -> None:
                self.cycle += 1

            def run(self, cycles: int) -> None:
                self.backend.run(cycles)

            def report(self) -> FabricReport:
                return FabricReport(self.cycle, self._latency())

            def _latency(self) -> float:
                return 1.0
    """,
    "repro/noc/backend.py": """
        from repro.noc.multinoc import MultiNocFabric
        from repro.util import env


        class FabricBackend:
            name = "abstract"

            def __init__(self, fabric: MultiNocFabric) -> None:
                self.fabric = fabric

            def run(self, cycles: int) -> None:
                raise NotImplementedError


        class DenseBackend(FabricBackend):
            name = "dense"

            def run(self, cycles: int) -> None:
                fabric = self.fabric
                for _ in range(cycles):
                    fabric.step()


        def make_backend(name: str, fabric: MultiNocFabric):
            return DenseBackend(fabric)


        def backend_from_env() -> str:
            return env.text("REPRO_BACKEND", "dense")
    """,
    "repro/noc/layers.py": """
        from typing import Any


        class ShadowSet:
            def __init__(self, layer: str) -> None:
                self.layer = layer
                self._records: list = []

            def install(self, obj: Any, name: str, value: Any) -> Any:
                displaced = getattr(obj, name)
                had = name in vars(obj)
                self._records.append((obj, name, had, vars(obj).get(name)))
                setattr(obj, name, value)
                return displaced

            def restore(self) -> None:
                for obj, name, had, previous in reversed(self._records):
                    if had:
                        setattr(obj, name, previous)
                    else:
                        delattr(obj, name)
                self._records.clear()
    """,
    "repro/perf/__init__.py": "",
    "repro/perf/profiler.py": """
        from repro.noc.layers import ShadowSet
        from repro.noc.multinoc import MultiNocFabric


        class PhaseProfiler:
            def __init__(self, fabric: MultiNocFabric) -> None:
                self.fabric = fabric
                self._saved = ShadowSet("perf")

            def attach(self) -> "PhaseProfiler":
                self._saved.install(self.fabric, "step", self._profiled_step)
                return self

            def detach(self) -> None:
                self._saved.restore()

            def _profiled_step(self) -> None:
                pass
    """,
    "repro/telemetry/__init__.py": "",
    "repro/telemetry/hub.py": """
        from repro.noc.layers import ShadowSet
        from repro.noc.multinoc import MultiNocFabric


        class TelemetryHub:
            def __init__(self, fabric: MultiNocFabric) -> None:
                self.fabric = fabric
                self._saved = ShadowSet("telemetry")
                self.attached = False

            def attach(self) -> "TelemetryHub":
                install = self._saved.install
                self._orig_step = install(
                    self.fabric, "step", self._telemetry_step
                )
                self.attached = True
                return self

            def detach(self) -> None:
                self._saved.restore()
                self.attached = False

            def _telemetry_step(self) -> None:
                self._orig_step()
    """,
    "repro/analysis/__init__.py": "",
    "repro/analysis/invariants.py": """
        from repro.noc.layers import ShadowSet
        from repro.noc.multinoc import MultiNocFabric


        class InvariantChecker:
            def __init__(self, fabric: MultiNocFabric) -> None:
                self.fabric = fabric
                self._saved = ShadowSet("checker")

            def attach(self) -> "InvariantChecker":
                fabric = self.fabric
                self._orig_step = self._saved.install(
                    fabric, "step", self._checked_step
                )
                return self

            def detach(self) -> None:
                self._saved.restore()

            def _checked_step(self) -> None:
                self._orig_step()
    """,
    "repro/experiments/__init__.py": "",
    "repro/experiments/runner.py": """
        class PointSpec:
            def __init__(self, kind: str) -> None:
                self.kind = kind

            def key(self) -> dict:
                return {"kind": self.kind}
    """,
    "docs/architecture.md": """
        # Architecture

        <!-- backend-seams:begin -->

        | Seam     | Use            |
        | -------- | -------------- |
        | `step`   | per-cycle step |
        | `cycle`  | clock          |
        | `config` | parameters     |
        | `stats`  | counters       |

        <!-- backend-seams:end -->
    """,
    "docs/index.md": """
        # Index

        | Variable        | Effect             |
        | --------------- | ------------------ |
        | `REPRO_BACKEND` | selects the kernel |
    """,
}


def write_tree(
    tmp_path: Path, overrides: dict[str, str] | None = None
) -> tuple[Path, Path]:
    """Materialize the fixture tree; return (package root, docs dir)."""
    files = dict(_BASE_FILES)
    if overrides:
        files.update(overrides)
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content).lstrip("\n"))
    return tmp_path / "repro", tmp_path / "docs"


def src(rel: str) -> str:
    """Dedented source of a base fixture file, safe for string surgery."""
    return textwrap.dedent(_BASE_FILES[rel]).lstrip("\n")


def rules_of(
    tmp_path: Path, overrides: dict[str, str] | None = None
) -> list[str]:
    root, docs = write_tree(tmp_path, overrides)
    return [v.rule for v in check_tree(root, docs)]


# ----------------------------------------------------------------------
# Catalogue and clean trees
# ----------------------------------------------------------------------


def test_contract_rule_catalogue():
    assert sorted(CONTRACT_RULES) == [
        "SIM101", "SIM102", "SIM103", "SIM104", "SIM105",
    ]
    # The shared catalogue resolves severities and hints for both tools.
    for code, rule in CONTRACT_RULES.items():
        assert LINT_RULES[code] is rule
        assert rule.severity == "error"
        assert rule.hint


def test_clean_fixture_tree_passes(tmp_path):
    assert rules_of(tmp_path) == []


def test_real_repository_is_clean():
    violations = check_tree(default_target(), default_docs_dir())
    details = "\n".join(v.render(show_hint=False) for v in violations)
    assert not violations, f"contract violations in src/repro:\n{details}"


# ----------------------------------------------------------------------
# SIM101 — shadowing discipline
# ----------------------------------------------------------------------


def test_sim101_detects_unrestored_direct_shadow(tmp_path):
    checker = src("repro/analysis/invariants.py").replace(
        """        self._orig_step = self._saved.install(
            fabric, "step", self._checked_step
        )""",
        """        self._orig_step = fabric.step
        fabric.step = self._checked_step""",
    )
    assert "fabric.step = self._checked_step" in checker
    assert rules_of(
        tmp_path, {"repro/analysis/invariants.py": checker}
    ) == ["SIM101"]


def test_sim101_detects_detach_that_skips_the_unwind(tmp_path):
    profiler = src("repro/perf/profiler.py").replace(
        "        self._saved.restore()",
        '        delattr(self.fabric, "step")',
    )
    assert 'delattr(self.fabric, "step")' in profiler
    assert rules_of(
        tmp_path, {"repro/perf/profiler.py": profiler}
    ) == ["SIM101"]


def test_sim101_detects_deleting_a_shadow_in_detach(tmp_path):
    checker = src("repro/analysis/invariants.py").replace(
        "        self._saved.restore()",
        "        del self.fabric.step",
    )
    assert "del self.fabric.step" in checker
    assert rules_of(
        tmp_path, {"repro/analysis/invariants.py": checker}
    ) == ["SIM101"]


def test_sim101_detects_setattr_outside_shadowset(tmp_path):
    helper = """
        from typing import Any


        class HandRolled:
            def _shadow(self, obj: Any, name: str, value: Any) -> None:
                setattr(obj, name, value)

            def _own(self, name: str, value: Any) -> None:
                setattr(self, name, value)
    """
    assert rules_of(tmp_path, {"repro/noc/hand.py": helper}) == ["SIM101"]


def test_sim101_covers_the_install_hook(tmp_path):
    # A layer's ``_install_probes`` hook runs inside attach, so a direct
    # write there is the same violation as one in attach itself.
    hook = src("repro/analysis/invariants.py").replace(
        "    def _checked_step(self) -> None:",
        "    def _install_probes(self, install) -> None:\n"
        "        self.fabric.policy = None\n\n"
        "    def _checked_step(self) -> None:",
    )
    assert "self.fabric.policy = None" in hook
    assert rules_of(
        tmp_path, {"repro/analysis/invariants.py": hook}
    ) == ["SIM101"]


def test_sim101_accepts_shadowset_use(tmp_path):
    # The fixture hubs install through ShadowSet, whose own setattr /
    # delattr calls are the sanctioned ones.
    assert "setattr(obj, name, value)" in src("repro/noc/layers.py")
    assert "self._saved.install" in src("repro/telemetry/hub.py")
    assert rules_of(tmp_path) == []


# ----------------------------------------------------------------------
# SIM102 — backend conformance
# ----------------------------------------------------------------------

_LAZY_BACKEND = """
    from repro.noc.backend import FabricBackend


    class LazyBackend(FabricBackend):
        %s
"""


def test_sim102_detects_missing_run_override(tmp_path):
    planted = _LAZY_BACKEND % 'name = "lazy"'
    assert "SIM102" in rules_of(
        tmp_path, {"repro/noc/lazy.py": planted}
    )


def test_sim102_detects_missing_registry_name(tmp_path):
    planted = _LAZY_BACKEND % (
        "def run(self, cycles: int) -> None:\n            pass"
    )
    assert "SIM102" in rules_of(
        tmp_path, {"repro/noc/lazy.py": planted}
    )


def test_sim102_detects_undocumented_seam_access(tmp_path):
    planted = src("repro/noc/backend.py").replace(
        "fabric.step()",
        "fabric.step()\n            fabric.monitor.poke()",
    )
    violations = [
        v
        for v in check_tree(*write_tree(
            tmp_path, {"repro/noc/backend.py": planted}
        ))
        if v.rule == "SIM102"
    ]
    assert violations and "monitor" in violations[0].message


def test_sim102_keeps_backends_off_component_state(tmp_path):
    # The real seam table lists ``quiescent`` instead of the components
    # it reads, and the fabric owns ``drain``, so a backend reaching
    # for the monitor or the NIs again fails.
    for index, seam in enumerate(("monitor.lcs", "nis")):
        root = tmp_path / str(index) / "repro"
        shutil.copytree(default_target(), root)
        backend = root / "noc" / "backend.py"
        text = backend.read_text()
        anchor = "        quiescent = fabric.quiescent\n"
        assert anchor in text
        backend.write_text(text.replace(
            anchor, anchor + f"        planted = fabric.{seam}\n"
        ))
        violations = [
            v
            for v in check_tree(root, default_docs_dir())
            if v.rule == "SIM102"
        ]
        name = "fabric." + seam.split(".")[0]
        assert len(violations) == 1 and name in violations[0].message


def test_sim102_detects_documented_seam_that_vanished(tmp_path):
    docs = _BASE_FILES["docs/architecture.md"].replace(
        "| `stats`  | counters       |",
        "| `stats`  | counters       |\n| `bogus`  | gone           |",
    )
    violations = [
        v
        for v in check_tree(*write_tree(
            tmp_path, {"docs/architecture.md": docs}
        ))
        if v.rule == "SIM102"
    ]
    assert violations and "bogus" in violations[0].message
    assert violations[0].path == "docs/architecture.md"


def test_sim102_detects_missing_seam_block(tmp_path):
    assert "SIM102" in rules_of(
        tmp_path, {"docs/architecture.md": "# Architecture\n"}
    )


# ----------------------------------------------------------------------
# SIM103 — determinism taint reachable from the report / cache key
# ----------------------------------------------------------------------


def test_sim103_detects_set_iteration_reaching_report(tmp_path):
    planted = src("repro/noc/multinoc.py").replace(
        "return 1.0",
        "return float(sum(x for x in {1, 2, 3}))",
    )
    assert "SIM103" in rules_of(
        tmp_path, {"repro/noc/multinoc.py": planted}
    )


def test_sim103_detects_randomness_reaching_report(tmp_path):
    planted = src("repro/noc/multinoc.py").replace(
        "return 1.0",
        "import random\n        return random.random()",
    )
    assert "SIM103" in rules_of(
        tmp_path, {"repro/noc/multinoc.py": planted}
    )


def test_sim103_detects_wall_clock_reaching_cache_key(tmp_path):
    planted = src("repro/experiments/runner.py").replace(
        'return {"kind": self.kind}',
        'import time\n        return {"kind": self.kind, "t": time.time()}',
    )
    assert "SIM103" in rules_of(
        tmp_path, {"repro/experiments/runner.py": planted}
    )


def test_sim103_ignores_unreachable_nondeterminism(tmp_path):
    scratch = """
        def shuffle_debug(items) -> list:
            return [x for x in set(items)]
    """
    assert rules_of(tmp_path, {"repro/scratch.py": scratch}) == []


def test_sim103_allows_sorted_set_iteration(tmp_path):
    planted = src("repro/noc/multinoc.py").replace(
        "return 1.0",
        "return float(sum(x for x in sorted({1, 2, 3})))",
    )
    assert rules_of(
        tmp_path, {"repro/noc/multinoc.py": planted}
    ) == []


# ----------------------------------------------------------------------
# SIM104 — environment-variable registry
# ----------------------------------------------------------------------


def test_sim104_detects_unregistered_env_read(tmp_path):
    planted = src("repro/noc/backend.py").replace(
        'env.text("REPRO_BACKEND", "dense")',
        'env.text("REPRO_SECRET", "dense")',
    )
    violations = [
        v
        for v in check_tree(*write_tree(
            tmp_path, {"repro/noc/backend.py": planted}
        ))
        if v.rule == "SIM104"
    ]
    assert violations and "REPRO_SECRET" in violations[0].message


def test_sim104_detects_direct_environ_read(tmp_path):
    planted = src("repro/noc/backend.py").replace(
        'env.text("REPRO_BACKEND", "dense")',
        'os.environ.get("REPRO_BACKEND", "dense")',
    ).replace(
        "from repro.util import env",
        "import os\n\nfrom repro.util import env",
    )
    assert "SIM104" in rules_of(
        tmp_path, {"repro/noc/backend.py": planted}
    )


def test_sim104_forbids_environ_writes(tmp_path):
    planted = src("repro/noc/backend.py") + textwrap.dedent(
        """

        import os


        def export_backend() -> None:
            os.environ["REPRO_BACKEND"] = "skip"
        """
    )
    assert rules_of(
        tmp_path, {"repro/noc/backend.py": planted}
    ) == ["SIM104"]


def test_sim104_forbids_environ_mutators_of_any_name(tmp_path):
    for index, statement in enumerate((
        'os.environ.setdefault("REPRO_JOBS", "1")',
        'os.environ.pop("REPRO_NO_CACHE", None)',
        'del os.environ["HOME"]',
        'os.environ.update(PATH="/bin")',
    )):
        planted = src("repro/noc/backend.py") + (
            f"\n\nimport os\n\n\ndef mutate() -> None:\n    {statement}\n"
        )
        assert rules_of(
            tmp_path / str(index),
            {"repro/noc/backend.py": planted},
        ) == ["SIM104"], statement


def test_sim104_detects_registry_missing_from_docs(tmp_path):
    planted = src("repro/util/env.py").replace(
        '_register(EnvVar("REPRO_BACKEND", "text", "dense", "index.md", "kernel"))',
        '_register(EnvVar("REPRO_BACKEND", "text", "dense", "index.md", "kernel"))\n'
        '_register(EnvVar("REPRO_EXTRA", "flag", "", "index.md", "extra"))',
    )
    violations = [
        v
        for v in check_tree(*write_tree(
            tmp_path, {"repro/util/env.py": planted}
        ))
        if v.rule == "SIM104"
    ]
    assert violations and "REPRO_EXTRA" in violations[0].message
    assert violations[0].path == "repro/util/env.py"


def test_sim104_detects_docs_entry_missing_from_registry(tmp_path):
    docs = _BASE_FILES["docs/index.md"] + (
        "| `REPRO_GHOST`   | undocumented knob  |\n"
    )
    violations = [
        v
        for v in check_tree(*write_tree(tmp_path, {"docs/index.md": docs}))
        if v.rule == "SIM104"
    ]
    assert violations and "REPRO_GHOST" in violations[0].message
    assert violations[0].path == "docs/index.md"


# ----------------------------------------------------------------------
# SIM105 — __slots__ hot-path attribute discipline
# ----------------------------------------------------------------------

_POKE = """
    from repro.noc.router import Router


    def poke(router: Router) -> None:
        router.%s = 1
"""


def test_sim105_detects_dynamic_attribute_from_outside(tmp_path):
    assert "SIM105" in rules_of(
        tmp_path, {"repro/perf/poke.py": _POKE % "scratch"}
    )


def test_sim105_allows_declared_slot_writes(tmp_path):
    assert rules_of(
        tmp_path, {"repro/perf/poke.py": _POKE % "credits"}
    ) == []


def test_sim105_allows_evolution_in_the_defining_module(tmp_path):
    planted = src("repro/noc/router.py") + textwrap.dedent(
        """

        def retire(router: Router) -> None:
            router.credits = 0
        """
    )
    assert rules_of(
        tmp_path, {"repro/noc/router.py": planted}
    ) == []


# ----------------------------------------------------------------------
# CLI and baseline integration
# ----------------------------------------------------------------------


def test_contracts_cli_default_run_is_green(capsys):
    assert analysis_main(["contracts"]) == 0
    capsys.readouterr()


def test_contracts_cli_reports_and_writes_artifact(tmp_path, capsys):
    root, docs = write_tree(
        tmp_path, {"repro/perf/poke.py": _POKE % "scratch"}
    )
    report = tmp_path / "out" / "contracts.json"
    code = analysis_main(
        [
            "contracts", str(root),
            "--docs", str(docs),
            "--no-baseline",
            "--output", str(report),
        ]
    )
    assert code == 1
    assert "SIM105" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload[0]["rule"] == "SIM105"
    assert payload[0]["hint"]


def test_contracts_cli_baseline_round_trip(tmp_path, capsys):
    root, docs = write_tree(
        tmp_path, {"repro/perf/poke.py": _POKE % "scratch"}
    )
    baseline = tmp_path / "baseline.json"
    argv = ["contracts", str(root), "--docs", str(docs)]
    assert analysis_main(
        argv + ["--write-baseline", str(baseline)]
    ) == 0
    assert analysis_main(argv + ["--baseline", str(baseline)]) == 0
    # A second planted violation still fails against that baseline.
    (root / "telemetry" / "poke2.py").write_text(
        textwrap.dedent(_POKE % "scratch2").lstrip("\n")
    )
    assert analysis_main(argv + ["--baseline", str(baseline)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# Baseline fingerprints: rename stability and deleted files
# ----------------------------------------------------------------------


def test_baseline_survives_file_rename(tmp_path):
    root, docs = write_tree(
        tmp_path, {"repro/perf/poke.py": _POKE % "scratch"}
    )
    baseline = Baseline.from_violations(check_tree(root, docs))
    assert baseline.entries

    (root / "perf" / "poke.py").rename(root / "perf" / "renamed.py")
    shifted = check_tree(root, docs)
    assert shifted  # still found, in the renamed file
    assert baseline.filter_new(shifted) == []


def test_baseline_ignores_entries_for_deleted_files(tmp_path):
    root, docs = write_tree(
        tmp_path,
        {
            "repro/perf/poke.py": _POKE % "scratch",
            "repro/telemetry/poke2.py": _POKE % "scratch2",
        },
    )
    baseline = Baseline.from_violations(check_tree(root, docs))
    assert len(baseline.entries) == 2

    (root / "telemetry" / "poke2.py").unlink()
    remaining = check_tree(root, docs)
    assert [v.rule for v in remaining] == ["SIM105"]
    assert baseline.filter_new(remaining) == []
