"""Whole-program architectural contract checks (rules SIM101–SIM105).

The SIM001–SIM006 lint (:mod:`repro.analysis.lint`) inspects one file
at a time.  The rules here need the whole package: they verify the
*architectural contracts* that ``docs/architecture.md`` documents and
that no single-file pass can see —

``SIM101``
    Shadowing discipline.  :class:`repro.noc.layers.ShadowSet` is the
    only code that installs or restores instance attributes on other
    objects: ``setattr``/``delattr`` on anything but ``self`` outside
    ``ShadowSet``, and any attribute assignment or ``del`` on a
    non-``self`` object inside ``attach``, ``detach`` or a layer's
    ``_install_probes`` hook, are violations.  Attach order needs no check: it is the order of the
    :data:`~repro.noc.layers.LAYERS` registry by construction.
``SIM102``
    Backend conformance.  Every :class:`~repro.noc.backend.
    FabricBackend` subclass must override ``run`` and declare a
    ``name`` registry key, and may touch fabric state only through the
    seams listed in ``docs/architecture.md`` (between the
    ``backend-seams`` markers).  A documented seam that no longer
    exists on the fabric class is doc drift and also fails.
``SIM103``
    Interprocedural determinism taint.  Unseeded randomness,
    set/frozenset-ordered iteration, and wall-clock reads are
    forbidden in any function reachable (through the resolved call
    graph) from :class:`~repro.noc.multinoc.FabricReport` construction
    or from the sweep-cache key (``PointSpec.key``/``digest``) — the
    cross-module version of SIM001/SIM002/SIM003, covering modules the
    per-file lint does not scope.
``SIM104``
    Environment-variable registry.  Every ``REPRO_*`` *read* must go
    through :mod:`repro.util.env` (the one module allowed to touch
    ``os.environ`` for these names), every name passed to an ``env``
    helper must be registered there, and the registry must agree with
    the ``docs/index.md`` table in both directions.  Writes are
    forbidden: any ``os.environ`` store, ``del`` or mutating call
    (``setdefault``, ``pop``, ``update``, ...) fails, whatever the
    name — run policy reaches workers as data
    (:class:`repro.noc.layers.RunOptions`).
``SIM105``
    Hot-path attribute discipline.  ``__slots__`` classes in
    ``repro.noc`` / ``repro.core`` may not gain attributes outside
    their declared surface from other modules — a write to an
    undeclared attribute from outside the defining module is flagged.
    (Shadowing seams use ``setattr`` on non-slotted objects and are
    unaffected.)

All findings are reported as :class:`repro.analysis.lint.Violation`
records, so the baseline mechanism, severities, and fix-hints are
shared with the per-file lint; ``python -m repro.analysis contracts``
is the entry point.  See ``docs/analysis.md`` for the JSON schema and
the workflow for adding a new environment variable.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint import LINT_RULES, Rule, Violation
from repro.analysis.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Program,
)

__all__ = [
    "CONTRACT_RULES",
    "ContractConfig",
    "check_program",
    "check_tree",
    "default_docs_dir",
]

CONTRACT_RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "SIM101",
            "instance attribute installed or restored outside ShadowSet",
            "error",
            "install shadows with self._saved.install(obj, name, value) "
            "(a repro.noc.layers.ShadowSet) and restore them with "
            "self._saved.restore() in detach()",
        ),
        Rule(
            "SIM102",
            "fabric backend breaks the FabricBackend contract",
            "error",
            "override run() and the `name` registry key, and reach "
            "fabric state only through the seams docs/architecture.md "
            "lists (update the seam table if a new seam is deliberate)",
        ),
        Rule(
            "SIM103",
            "nondeterminism reachable from FabricReport or the cache key",
            "error",
            "route randomness through repro.util.rng, wrap set "
            "iteration in sorted(...), and keep wall-clock reads out "
            "of any code the report or sweep-cache key can reach",
        ),
        Rule(
            "SIM104",
            "REPRO_* environment variable outside the central registry",
            "error",
            "read the variable through repro.util.env helpers, "
            "register it there with _register(EnvVar(...)), and add it "
            "to the docs/index.md table; never write os.environ (pass "
            "policy as data, e.g. repro.noc.layers.RunOptions)",
        ),
        Rule(
            "SIM105",
            "dynamic attribute added to a __slots__ hot-path class",
            "error",
            "declare the attribute in the class's __slots__ (in its "
            "own module) instead of growing instances from outside",
        ),
    )
}

# One shared catalogue: Violation.severity / .hint resolve through
# LINT_RULES, and `python -m repro.analysis rules` prints everything.
LINT_RULES.update(CONTRACT_RULES)

#: The one class allowed to install and restore instance attributes.
SHADOW_SET = "ShadowSet"
#: Methods that install or restore a layer's shadows
#: (:class:`repro.noc.layers.FabricLayer` and its install hook).
SHADOW_METHODS = ("attach", "detach", "_install_probes")

#: Markers bounding the machine-read seam list in docs/architecture.md.
SEAM_BEGIN = "<!-- backend-seams:begin -->"
SEAM_END = "<!-- backend-seams:end -->"

_ENV_TOKEN = re.compile(r"REPRO_[A-Z0-9_]+")
#: A seam table row: the backticked name in the row's first column.
_SEAM_ROW = re.compile(
    r"^\|\s*`([A-Za-z_][A-Za-z0-9_]*)`", re.MULTILINE
)

#: Wall-clock call targets (time.perf_counter is monotonic: allowed).
_WALLCLOCK_REFS = {"time.time", "time.time_ns", "time.clock"}
_WALLCLOCK_SUFFIXES = (
    ".datetime.now",
    ".datetime.utcnow",
    ".datetime.today",
    ".date.today",
)


@dataclass
class ContractConfig:
    """Where a program's contract anchors live.

    Defaults fit the real tree; tests point ``docs_dir`` at fixture
    docs to exercise the doc-drift checks hermetically.
    """

    docs_dir: Path | None = None
    fabric_class: str = "MultiNocFabric"
    report_class: str = "FabricReport"
    backend_base: str = "FabricBackend"
    #: Qualname suffixes of cache-key functions (SIM103 sinks).
    cache_key_suffixes: tuple[str, ...] = (
        "PointSpec.key",
        "PointSpec.digest",
    )
    #: Subpackages whose ``__slots__`` classes are hot-path (SIM105).
    slots_packages: tuple[str, ...] = ("noc", "core")
    env_prefix: str = "REPRO_"
    env_doc_page: str = "index.md"
    architecture_page: str = "architecture.md"


def default_docs_dir() -> Path:
    """``docs/`` at the repository root (may not exist)."""
    return Path(__file__).resolve().parents[3] / "docs"


def check_tree(
    root: Path | str, docs_dir: Path | str | None = None
) -> list[Violation]:
    """Load the package at ``root`` and run every contract rule."""
    config = ContractConfig(
        docs_dir=Path(docs_dir) if docs_dir is not None else None
    )
    return check_program(Program.load(root), config)


def check_program(
    program: Program, config: ContractConfig
) -> list[Violation]:
    """Run SIM101–SIM105 over a loaded :class:`Program`."""
    violations: list[Violation] = []
    violations += check_shadowing(program)
    violations += check_backends(program, config)
    violations += check_report_taint(program, config)
    violations += check_env_registry(program, config)
    violations += check_slots_discipline(program, config)
    return sorted(
        violations, key=lambda v: (v.path, v.line, v.col, v.rule)
    )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _violation(
    rule: str, mod: ModuleInfo, node: ast.AST, message: str, scope: str
) -> Violation:
    line = getattr(node, "lineno", 0)
    snippet = ""
    if 1 <= line <= len(mod.source_lines):
        snippet = mod.source_lines[line - 1].strip()
    return Violation(
        rule=rule,
        path=mod.relpath,
        line=line,
        col=getattr(node, "col_offset", 0),
        message=message,
        scope=scope,
        snippet=snippet,
    )


def _doc_violation(
    rule: str, page: Path, rel: str, line: int, snippet: str, message: str
) -> Violation:
    return Violation(
        rule=rule,
        path=rel,
        line=line,
        col=0,
        message=message,
        scope="<docs>",
        snippet=snippet.strip(),
    )


def _scope_of(fn: FunctionInfo) -> str:
    return fn.qualname[len(fn.module) + 1 :]


def _all_functions(mod: ModuleInfo) -> list[FunctionInfo]:
    out = list(mod.functions.values())
    for cls in mod.classes.values():
        out.extend(cls.methods.values())
    return out


# ----------------------------------------------------------------------
# SIM101 — shadowing discipline
# ----------------------------------------------------------------------
def check_shadowing(program: Program) -> list[Violation]:
    violations: list[Violation] = []
    for mod in program.modules.values():
        for fn in _all_functions(mod):
            scope = _scope_of(fn)
            cls, _, method = scope.rpartition(".")
            if cls == SHADOW_SET:
                continue
            for node in ast.walk(fn.node):
                message = _shadow_write(node, scope, method)
                if message is not None:
                    violations.append(
                        _violation("SIM101", mod, node, message, scope)
                    )
    return violations


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _shadow_write(node: ast.AST, scope: str, method: str) -> str | None:
    """Why ``node`` installs or restores a foreign attribute, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("setattr", "delattr")
        and node.args
        and not _is_self(node.args[0])
    ):
        return (
            f"{scope} calls {node.func.id}() on another object; "
            f"install and restore shadows through {SHADOW_SET}"
        )
    if method not in SHADOW_METHODS:
        return None
    targets: list[ast.expr] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    for target in targets:
        if isinstance(target, ast.Attribute) and not _is_self(target.value):
            return (
                f"{scope} writes {ast.unparse(target)} directly; "
                f"install and restore shadows through {SHADOW_SET}"
            )
    return None


# ----------------------------------------------------------------------
# SIM102 — backend conformance
# ----------------------------------------------------------------------
def check_backends(
    program: Program, config: ContractConfig
) -> list[Violation]:
    bases = [
        cls
        for cls in program.classes.values()
        if cls.name == config.backend_base
    ]
    if not bases:
        return []
    violations: list[Violation] = []
    subclasses = program.subclasses_of(config.backend_base)
    for sub in subclasses:
        mod = program.modules[sub.module]
        run_owner = None
        for ancestor in program.iter_mro(sub.qualname):
            if "run" in ancestor.methods:
                run_owner = ancestor
                break
        if run_owner is None or run_owner.name == config.backend_base:
            violations.append(
                _violation(
                    "SIM102",
                    mod,
                    sub.node,
                    f"{sub.name} does not implement run(), the "
                    "abstract time-loop entry point",
                    sub.name,
                )
            )
        has_name = any(
            "name" in ancestor.class_attrs
            for ancestor in program.iter_mro(sub.qualname)
            if ancestor.name != config.backend_base
        )
        if not has_name:
            violations.append(
                _violation(
                    "SIM102",
                    mod,
                    sub.node,
                    f"{sub.name} does not declare a `name` registry "
                    "key distinct from the abstract base",
                    sub.name,
                )
            )

    seams, seam_violations = _documented_seams(program, config)
    violations += seam_violations
    if seams is None:
        return violations
    for cls in [*bases, *subclasses]:
        mod = program.modules[cls.module]
        for method in cls.methods.values():
            for access in method.attr_accesses:
                receiver = access.receiver_type
                if receiver is None or not receiver.endswith(
                    f".{config.fabric_class}"
                ):
                    continue
                if access.attr not in seams:
                    violations.append(
                        _violation(
                            "SIM102",
                            mod,
                            access.node,
                            f"backend {cls.name} touches fabric."
                            f"{access.attr}, which is not a seam "
                            "docs/architecture.md lists",
                            _scope_of(method),
                        )
                    )
    return violations


def _documented_seams(
    program: Program, config: ContractConfig
) -> tuple[set[str] | None, list[Violation]]:
    """Seam names between the markers in architecture.md, plus drift.

    Returns ``(None, [violation])`` when the docs (or the marker
    block) are missing — the access check cannot run without a list,
    and the missing list is itself the finding.
    """
    if config.docs_dir is None:
        return None, []
    page = Path(config.docs_dir) / config.architecture_page
    rel = f"docs/{config.architecture_page}"
    if not page.is_file():
        return None, [
            _doc_violation(
                "SIM102",
                page,
                rel,
                0,
                "",
                f"{rel} is missing, so the backend seam list cannot "
                "be verified",
            )
        ]
    text = page.read_text()
    begin = text.find(SEAM_BEGIN)
    end = text.find(SEAM_END)
    if begin < 0 or end < 0 or end < begin:
        return None, [
            _doc_violation(
                "SIM102",
                page,
                rel,
                1,
                SEAM_BEGIN,
                f"{rel} has no {SEAM_BEGIN} ... {SEAM_END} block "
                "listing the fabric seams backends may touch",
            )
        ]
    block = text[begin:end]
    seams = set(_SEAM_ROW.findall(block))
    violations: list[Violation] = []
    fabric = next(
        (
            cls
            for cls in program.classes.values()
            if cls.name == config.fabric_class
        ),
        None,
    )
    if fabric is not None:
        surface = _class_surface(program, fabric)
        block_start_line = text[:begin].count("\n") + 1
        for seam in sorted(seams - surface):
            offset = block[:block.find(f"`{seam}`")].count("\n")
            violations.append(
                _doc_violation(
                    "SIM102",
                    page,
                    rel,
                    block_start_line + offset,
                    f"`{seam}`",
                    f"documented backend seam `{seam}` does not exist "
                    f"on {config.fabric_class} (doc drift)",
                )
            )
    return seams, violations


def _class_surface(program: Program, cls: ClassInfo) -> set[str]:
    """Every name an instance legitimately exposes."""
    surface: set[str] = set()
    for ancestor in program.iter_mro(cls.qualname):
        surface.update(ancestor.methods)
        surface.update(ancestor.own_attrs)
        surface.update(ancestor.class_attrs)
        if ancestor.slots:
            surface.update(ancestor.slots)
    return surface


# ----------------------------------------------------------------------
# SIM103 — interprocedural determinism taint
# ----------------------------------------------------------------------
def check_report_taint(
    program: Program, config: ContractConfig
) -> list[Violation]:
    entries: set[str] = set()
    ctor_suffix = f".{config.report_class}.__init__"
    key_suffixes = tuple(f".{s}" for s in config.cache_key_suffixes)
    for fn in program.functions.values():
        if any(call.ref.endswith(ctor_suffix) for call in fn.calls):
            entries.add(fn.qualname)
        if fn.qualname.endswith(key_suffixes):
            entries.add(fn.qualname)
    if not entries:
        return []
    closure = program.transitive_callees(entries)
    rng_module = f"{program.package}.util.rng"
    violations: list[Violation] = []
    for qualname in sorted(closure):
        fn = program.functions[qualname]
        if fn.module == rng_module:
            continue  # the one module allowed to own randomness
        mod = program.modules[fn.module]
        scope = _scope_of(fn)
        for call in fn.calls:
            ref = call.ref
            if ref.startswith("random.") or "numpy.random" in ref:
                violations.append(
                    _violation(
                        "SIM103",
                        mod,
                        call.node,
                        f"unseeded randomness ({ref}) in {qualname}, "
                        "which is reachable from FabricReport or the "
                        "sweep-cache key",
                        scope,
                    )
                )
            elif ref in _WALLCLOCK_REFS or ref.endswith(
                _WALLCLOCK_SUFFIXES
            ):
                violations.append(
                    _violation(
                        "SIM103",
                        mod,
                        call.node,
                        f"wall-clock read ({ref}) in {qualname}, "
                        "which is reachable from FabricReport or the "
                        "sweep-cache key",
                        scope,
                    )
                )
        for node in _set_iterations(fn.node):
            violations.append(
                _violation(
                    "SIM103",
                    mod,
                    node,
                    f"set iteration order leaks from {qualname} into "
                    "state reachable from FabricReport or the "
                    "sweep-cache key",
                    scope,
                )
            )
    return violations


def _set_iterations(
    fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.expr]:
    """Iterations whose order observes set hashing, in one function."""
    set_names: set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    set_names.add(target.id)

    def order_dependent(expr: ast.expr) -> bool:
        if _is_set_expr(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in set_names
        if isinstance(expr, ast.Call) and isinstance(
            expr.func, ast.Name
        ):
            if expr.func.id == "sorted":
                return False
            if expr.func.id in ("list", "tuple", "iter") and expr.args:
                return order_dependent(expr.args[0])
        return False

    flagged: list[ast.expr] = []
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if order_dependent(node.iter):
                flagged.append(node.iter)
        elif isinstance(node, ast.comprehension):
            if order_dependent(node.iter):
                flagged.append(node.iter)
    return flagged


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


# ----------------------------------------------------------------------
# SIM104 — environment-variable registry
# ----------------------------------------------------------------------
def check_env_registry(
    program: Program, config: ContractConfig
) -> list[Violation]:
    env_module = f"{program.package}.util.env"
    prefix = config.env_prefix
    registry = _registered_env_names(program, env_module)
    violations: list[Violation] = []

    env_helpers = {"raw", "text", "flag", "integer", "floating"}
    for mod in program.modules.values():
        for node in ast.walk(mod.tree):
            if _environ_write(node):
                violations.append(
                    _violation(
                        "SIM104",
                        mod,
                        node,
                        "os.environ write; pass run policy as data "
                        "instead of through the process environment",
                        "<module>",
                    )
                )
                continue
            name = _environ_read(node)
            if (
                name is not None
                and name.startswith(prefix)
                and mod.module != env_module
            ):
                violations.append(
                    _violation(
                        "SIM104",
                        mod,
                        node,
                        f"direct os.environ read of {name} outside "
                        f"{env_module}; use the registry helpers",
                        "<module>",
                    )
                )
                continue
            helper_name = _env_helper_arg(mod, node, env_module, env_helpers)
            if (
                helper_name is not None
                and helper_name.startswith(prefix)
                and registry is not None
                and helper_name not in registry
            ):
                violations.append(
                    _violation(
                        "SIM104",
                        mod,
                        node,
                        f"{helper_name} is read through {env_module} "
                        "but never registered there",
                        "<module>",
                    )
                )

    if registry is not None and config.docs_dir is not None:
        violations += _env_doc_drift(program, config, registry)
    return violations


def _registered_env_names(
    program: Program, env_module: str
) -> dict[str, int] | None:
    """Registered names → registration line, or None without the module."""
    mod = program.modules.get(env_module)
    if mod is None:
        return None
    names: dict[str, int] = {}
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "EnvVar"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names[node.args[0].value] = node.lineno
    return names


def _environ_read(node: ast.AST) -> str | None:
    """The literal variable name an ``os.environ`` read node reads."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and (
            (ast.unparse(func.value) == "os.environ" and func.attr == "get")
            or (ast.unparse(func.value) == "os" and func.attr == "getenv")
        ):
            if node.args and isinstance(node.args[0], ast.Constant):
                return str(node.args[0].value)
    elif isinstance(node, ast.Subscript):
        if (
            ast.unparse(node.value) == "os.environ"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.ctx, ast.Load)
        ):
            return str(node.slice.value)
    return None


def _environ_write(node: ast.AST) -> bool:
    """True for an ``os.environ`` store or ``del`` (any key), or a call
    of one of its mutating methods."""
    if isinstance(node, ast.Call):
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and ast.unparse(func.value) == "os.environ"
            and func.attr
            in ("setdefault", "pop", "popitem", "update", "clear")
        )
    return (
        isinstance(node, ast.Subscript)
        and ast.unparse(node.value) == "os.environ"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    )


def _env_helper_arg(
    mod: ModuleInfo,
    node: ast.AST,
    env_module: str,
    helpers: set[str],
) -> str | None:
    """Literal name passed to an ``env`` helper call, if this is one."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in helpers
        and isinstance(node.func.value, ast.Name)
    ):
        return None
    root = node.func.value.id
    if mod.imports.get(root) != env_module and not (
        mod.module == env_module and root == "env"
    ):
        return None
    if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
        node.args[0].value, str
    ):
        return node.args[0].value
    return None


def _env_doc_drift(
    program: Program,
    config: ContractConfig,
    registry: dict[str, int],
) -> list[Violation]:
    page = Path(config.docs_dir) / config.env_doc_page
    rel = f"docs/{config.env_doc_page}"
    env_module = f"{program.package}.util.env"
    if not page.is_file():
        return [
            _doc_violation(
                "SIM104",
                page,
                rel,
                0,
                "",
                f"{rel} is missing, so the environment-variable table "
                "cannot be cross-checked against the registry",
            )
        ]
    lines = page.read_text().splitlines()
    documented: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        for token in _ENV_TOKEN.findall(line):
            documented.setdefault(token, lineno)
    violations: list[Violation] = []
    mod = program.modules[env_module]
    for name in sorted(set(registry) - set(documented)):
        line = registry[name]
        snippet = (
            mod.source_lines[line - 1].strip()
            if 1 <= line <= len(mod.source_lines)
            else ""
        )
        violations.append(
            Violation(
                rule="SIM104",
                path=mod.relpath,
                line=line,
                col=0,
                message=f"{name} is registered in {env_module} but "
                f"absent from {rel} (doc drift)",
                scope="<module>",
                snippet=snippet,
            )
        )
    for name in sorted(set(documented) - set(registry)):
        lineno = documented[name]
        violations.append(
            _doc_violation(
                "SIM104",
                page,
                rel,
                lineno,
                lines[lineno - 1],
                f"{name} appears in {rel} but is not registered in "
                f"{env_module} (doc drift)",
            )
        )
    return violations


# ----------------------------------------------------------------------
# SIM105 — hot-path attribute discipline
# ----------------------------------------------------------------------
def check_slots_discipline(
    program: Program, config: ContractConfig
) -> list[Violation]:
    guarded: dict[str, tuple[ClassInfo, set[str]]] = {}
    prefixes = tuple(
        f"{program.package}.{sub}." for sub in config.slots_packages
    )
    for cls in program.classes.values():
        if not cls.module.startswith(prefixes):
            continue
        mro = list(program.iter_mro(cls.qualname))
        if any(ancestor.slots is None for ancestor in mro):
            continue  # some base carries a __dict__: dynamic attrs legal
        allowed: set[str] = set()
        for ancestor in mro:
            allowed.update(ancestor.slots or ())
            allowed.update(ancestor.methods)
            allowed.update(ancestor.class_attrs)
        guarded[cls.qualname] = (cls, allowed)
    if not guarded:
        return []
    violations: list[Violation] = []
    for mod in program.modules.values():
        for fn in _all_functions(mod):
            for access in fn.attr_accesses:
                if not access.is_write or access.receiver_type is None:
                    continue
                entry = guarded.get(access.receiver_type)
                if entry is None:
                    continue
                cls, allowed = entry
                if cls.module == mod.module:
                    continue  # the class's own module may evolve it
                if access.attr in allowed:
                    continue
                violations.append(
                    _violation(
                        "SIM105",
                        mod,
                        access.node,
                        f"write to undeclared attribute "
                        f"{cls.name}.{access.attr} from outside "
                        f"{cls.module} (a __slots__ hot-path class)",
                        _scope_of(fn),
                    )
                )
    return violations
