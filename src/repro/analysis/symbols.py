"""Whole-program symbol table for the contract checker.

:mod:`repro.analysis.lint` looks at one file at a time; the SIM100
contract rules (:mod:`repro.analysis.contracts`) need to see the whole
package at once — which class defines which methods, who calls whom,
what type an attribute holds, which functions a report can reach.
This module parses every Python file under one package root into a
:class:`Program`:

* per module: the AST, an import map (local name → dotted target), and
  every class/function definition keyed by qualname;
* per class: base names, methods, declared ``__slots__``, and an
  *instance-attribute type map* inferred from ``self.x = ClassName(...)``
  assignments (including ``list``-of-constructor comprehensions);
* per function: parameter/local type bindings from annotations and
  constructor assignments, every call expression resolved to a
  best-effort dotted reference, and every attribute read/write with a
  resolved receiver type.

Resolution is deliberately *best effort* — this is a lint, not a type
checker.  Names that cannot be resolved stay as their source text and
rules treat them conservatively (call-graph edges are simply absent,
attribute receivers stay untyped).  The mutation tests in
``tests/test_analysis_contracts.py`` pin down the resolution power the
contract rules actually rely on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "AttributeAccess",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
]


@dataclass
class CallSite:
    """One call expression, with its best-effort resolved target.

    ``ref`` is a dotted reference such as
    ``repro.noc.stats.NetworkStats.average_packet_latency`` when
    resolution succeeded, or the literal source text (``hash``,
    ``handle.write``) when it did not.
    """

    ref: str
    node: ast.Call


@dataclass
class AttributeAccess:
    """One ``<receiver>.<attr>`` read or write inside a function.

    ``receiver_type`` is the resolved class qualname of the receiver
    (``repro.noc.router.Router``) or ``None`` when unknown;
    ``receiver_text`` is the unparsed receiver expression.
    """

    attr: str
    receiver_type: str | None
    receiver_text: str
    is_write: bool
    node: ast.AST


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # "<module>.<Class>.<name>" or "<module>.<name>"
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner_class: str | None  # enclosing class qualname, or None
    calls: list[CallSite] = field(default_factory=list)
    attr_accesses: list[AttributeAccess] = field(default_factory=list)
    #: Local name → resolved class qualname (annotations, constructor
    #: assignments, loops over known lists).
    local_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class definition."""

    qualname: str  # "<module>.<name>"
    module: str
    name: str
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)  # resolved refs
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Declared ``__slots__`` names, or ``None`` when undeclared.
    slots: tuple[str, ...] | None = None
    #: Instance attribute → resolved class qualname; list-typed
    #: attributes are stored as ``("list", element qualname)`` under
    #: :attr:`attr_list_types`.
    attr_types: dict[str, str] = field(default_factory=dict)
    attr_list_types: dict[str, str] = field(default_factory=dict)
    #: Every instance attribute name ever assigned via ``self.x = ...``
    #: anywhere in the class body (slots discipline uses this).
    own_attrs: set[str] = field(default_factory=set)
    #: Class-level assignments: name → literal string value when the
    #: right-hand side is a string constant, else ``None``.
    class_attrs: dict[str, str | None] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module."""

    module: str  # dotted name, e.g. "repro.noc.router"
    path: Path
    relpath: str  # repository-style path for reports
    tree: ast.Module
    source_lines: list[str]
    #: Local name → dotted target ("env" → "repro.util.env",
    #: "PhaseProfiler" → "repro.perf.profiler.PhaseProfiler").
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)  # by name
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


class Program:
    """Every module under one package root, cross-indexed."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        #: Class qualname → info, plus a by-bare-name index (a name can
        #: be defined in several modules; all are kept).
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        #: Function qualname → info.
        self.functions: dict[str, FunctionInfo] = {}

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, root: Path | str) -> "Program":
        """Parse every ``.py`` file under ``root`` (a package dir).

        The package name is ``root``'s basename; module dotted names
        are derived from the path below ``root``'s parent, so loading
        ``src/repro`` yields modules named ``repro.*`` and loading a
        test fixture tree ``tmp/repro`` yields the same shape.
        """
        root = Path(root).resolve()
        program = cls(root.name)
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root.parent)
            dotted = ".".join(rel.parts)[: -len(".py")]
            if dotted.endswith(".__init__"):
                dotted = dotted[: -len(".__init__")]
            source = path.read_text()
            info = ModuleInfo(
                module=dotted,
                path=path,
                relpath="/".join(rel.parts),
                tree=ast.parse(source, filename=str(path)),
                source_lines=source.splitlines(),
            )
            program.modules[dotted] = info
        for info in program.modules.values():
            program._index_module(info)
        for info in program.modules.values():
            program._analyze_module(info)
        return program

    # ------------------------------------------------------------------
    # Pass 1: imports, definitions, slots, instance-attribute types
    # ------------------------------------------------------------------
    def _index_module(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:  # relative import
                    parts = mod.module.split(".")
                    anchor = parts[: len(parts) - node.level]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    local = alias.asname or alias.name
                    mod.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        for node in mod.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(mod, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    qualname=f"{mod.module}.{node.name}",
                    module=mod.module,
                    name=node.name,
                    node=node,
                    owner_class=None,
                )
                mod.functions[fn.qualname] = fn
                self.functions[fn.qualname] = fn

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        cls_info = ClassInfo(
            qualname=f"{mod.module}.{node.name}",
            module=mod.module,
            name=node.name,
            node=node,
            bases=[self._resolve_expr_ref(mod, base) for base in node.bases],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    qualname=f"{cls_info.qualname}.{stmt.name}",
                    module=mod.module,
                    name=stmt.name,
                    node=stmt,
                    owner_class=cls_info.qualname,
                )
                cls_info.methods[stmt.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__slots__":
                        cls_info.slots = _literal_str_tuple(stmt.value)
                    else:
                        value = stmt.value
                        cls_info.class_attrs[target.id] = (
                            value.value
                            if isinstance(value, ast.Constant)
                            and isinstance(value.value, str)
                            else None
                        )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                cls_info.class_attrs[stmt.target.id] = (
                    stmt.value.value
                    if isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                    else None
                )
        mod.classes[node.name] = cls_info
        self.classes[cls_info.qualname] = cls_info
        self.classes_by_name.setdefault(node.name, []).append(cls_info)

    # ------------------------------------------------------------------
    # Pass 2: per-function analysis (needs the full class index)
    # ------------------------------------------------------------------
    def _analyze_module(self, mod: ModuleInfo) -> None:
        for cls_info in mod.classes.values():
            # Instance-attribute types first: every method may bind
            # ``self.x``; constructor calls give the attribute a type.
            for method in cls_info.methods.values():
                self._collect_self_attrs(mod, cls_info, method)
        for cls_info in mod.classes.values():
            for method in cls_info.methods.values():
                self._analyze_function(mod, method, cls_info)
        for fn in mod.functions.values():
            self._analyze_function(mod, fn, None)

    def _collect_self_attrs(
        self, mod: ModuleInfo, cls_info: ClassInfo, fn: FunctionInfo
    ) -> None:
        self_name = _first_arg_name(fn.node)
        if self_name is None:
            return
        args = fn.node.args
        param_types: dict[str, str] = {}
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            ann = _annotation_name(arg.annotation)
            if ann is None:
                continue
            resolved = self._resolve_class_name(mod, ann)
            if resolved is not None:
                param_types[arg.arg] = resolved
        for node in ast.walk(fn.node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.target is not None:
                targets = [node.target]
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == self_name
                ):
                    continue
                cls_info.own_attrs.add(target.attr)
                if value is None:
                    continue
                direct = self._constructed_class(mod, value)
                if direct is None and isinstance(value, ast.Name):
                    direct = param_types.get(value.id)
                if direct is not None:
                    cls_info.attr_types.setdefault(target.attr, direct)
                element = self._constructed_list_element(mod, value)
                if element is not None:
                    cls_info.attr_list_types.setdefault(
                        target.attr, element
                    )

    def _analyze_function(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        cls_info: ClassInfo | None,
    ) -> None:
        self_name = _first_arg_name(fn.node) if cls_info else None
        # Parameter annotations bind local types.
        args = fn.node.args
        for arg in [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ]:
            ann = _annotation_name(arg.annotation)
            if ann is None:
                continue
            resolved = self._resolve_class_name(mod, ann)
            if resolved is not None:
                fn.local_types[arg.arg] = resolved
        # Walk the body: local bindings, calls, attribute accesses.
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    constructed = self._constructed_class(mod, node.value)
                    if constructed is not None:
                        fn.local_types[target.id] = constructed
                    else:
                        aliased = self._receiver_type(
                            mod, fn, cls_info, self_name, node.value
                        )
                        if aliased is not None:
                            fn.local_types[target.id] = aliased
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                ann = _annotation_name(node.annotation)
                resolved = (
                    self._resolve_class_name(mod, ann) if ann else None
                )
                if resolved is not None:
                    fn.local_types[node.target.id] = resolved
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    element = self._element_type(
                        mod, fn, cls_info, self_name, node.iter
                    )
                    if element is not None:
                        fn.local_types[node.target.id] = element
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                ref = self._resolve_call(
                    mod, fn, cls_info, self_name, node
                )
                fn.calls.append(CallSite(ref=ref, node=node))
            elif isinstance(node, ast.Attribute):
                receiver = self._receiver_type(
                    mod, fn, cls_info, self_name, node.value
                )
                fn.attr_accesses.append(
                    AttributeAccess(
                        attr=node.attr,
                        receiver_type=receiver,
                        receiver_text=ast.unparse(node.value),
                        is_write=isinstance(node.ctx, ast.Store),
                        node=node,
                    )
                )

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def _resolve_expr_ref(self, mod: ModuleInfo, node: ast.expr) -> str:
        """Dotted reference for an expression (imports applied)."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            head = cur.id
            target = mod.imports.get(head)
            if target is None and (
                head in mod.classes
                or f"{mod.module}.{head}" in self.functions
            ):
                target = f"{mod.module}.{head}"
            parts.append(target if target is not None else head)
            return ".".join(reversed(parts))
        return ast.unparse(node)

    def _resolve_class_name(
        self, mod: ModuleInfo, name: str
    ) -> str | None:
        """Class qualname for a (possibly dotted) annotation name."""
        name = name.strip().strip('"').strip("'")
        bare = name.split(".")[-1]
        if "." in name:
            head = name.split(".")[0]
            target = mod.imports.get(head)
            if target is not None:
                dotted = ".".join([target, *name.split(".")[1:]])
                if dotted in self.classes:
                    return dotted
        target = mod.imports.get(name)
        if target is not None and target in self.classes:
            return target
        if bare in mod.classes:
            return mod.classes[bare].qualname
        candidates = self.classes_by_name.get(bare, [])
        if len(candidates) == 1:
            return candidates[0].qualname
        return None

    def _constructed_class(
        self, mod: ModuleInfo, value: ast.expr
    ) -> str | None:
        """Class qualname when ``value`` is ``ClassName(...)``."""
        if not isinstance(value, ast.Call):
            return None
        ref = self._resolve_expr_ref(mod, value.func)
        if ref in self.classes:
            return ref
        bare = ref.split(".")[-1]
        candidates = self.classes_by_name.get(bare, [])
        if len(candidates) == 1 and ref == bare:
            return candidates[0].qualname
        return None

    def _constructed_list_element(
        self, mod: ModuleInfo, value: ast.expr
    ) -> str | None:
        """Element class for ``[ClassName(...) for ...]`` and friends."""
        if isinstance(value, ast.ListComp):
            return self._constructed_class(mod, value.elt)
        if isinstance(value, ast.List) and value.elts:
            first = self._constructed_class(mod, value.elts[0])
            if first is not None and all(
                self._constructed_class(mod, elt) == first
                for elt in value.elts
            ):
                return first
        return None

    def _receiver_type(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        cls_info: ClassInfo | None,
        self_name: str | None,
        node: ast.expr,
    ) -> str | None:
        """Resolved class qualname of an expression, or ``None``."""
        if isinstance(node, ast.Name):
            if cls_info is not None and node.id == self_name:
                return cls_info.qualname
            return fn.local_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._receiver_type(
                mod, fn, cls_info, self_name, node.value
            )
            if base is not None and base in self.classes:
                return self.attr_type_of(base, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            # container[i] — element type of a known list attribute.
            return self._element_type(
                mod, fn, cls_info, self_name, node.value
            )
        return None

    def _element_type(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        cls_info: ClassInfo | None,
        self_name: str | None,
        node: ast.expr,
    ) -> str | None:
        """Element class of an iterable expression, or ``None``."""
        if isinstance(node, ast.Attribute):
            base = self._receiver_type(
                mod, fn, cls_info, self_name, node.value
            )
            if base is not None and base in self.classes:
                for ancestor in self.iter_mro(base):
                    element = ancestor.attr_list_types.get(node.attr)
                    if element is not None:
                        return element
        return None

    def _resolve_call(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        cls_info: ClassInfo | None,
        self_name: str | None,
        node: ast.Call,
    ) -> str:
        """Best-effort dotted target of one call expression."""
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = self._receiver_type(
                mod, fn, cls_info, self_name, func.value
            )
            if receiver is not None:
                return f"{receiver}.{func.attr}"
        ref = self._resolve_expr_ref(mod, func)
        # A constructor call resolves to the class's __init__ so the
        # call graph enters the class.
        if ref in self.classes:
            return f"{ref}.__init__"
        return ref

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def iter_mro(self, qualname: str) -> Iterator[ClassInfo]:
        """The class and its known base classes, derivation order.

        Only bases defined inside the loaded program appear; external
        bases (``object``, stdlib ABCs) are silently skipped.
        """
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop(0)
            info = self.classes.get(current)
            if info is None or current in seen:
                continue
            seen.add(current)
            yield info
            stack.extend(info.bases)

    def attr_type_of(self, qualname: str, attr: str) -> str | None:
        """Inferred type of an instance attribute, bases included."""
        for info in self.iter_mro(qualname):
            found = info.attr_types.get(attr)
            if found is not None:
                return found
        return None

    def subclasses_of(self, base_name: str) -> list[ClassInfo]:
        """Classes whose (transitive) base resolves to ``base_name``.

        ``base_name`` may be a bare class name or a qualname suffix;
        matching is by dotted-suffix so fixture trees resolve too.
        """
        def matches(ref: str) -> bool:
            return ref == base_name or ref.endswith(f".{base_name}")

        roots = {
            info.qualname
            for info in self.classes.values()
            if matches(info.qualname)
        }
        found: dict[str, ClassInfo] = {}
        changed = True
        while changed:
            changed = False
            for info in self.classes.values():
                if info.qualname in found or info.qualname in roots:
                    continue
                for base in info.bases:
                    if (
                        matches(base)
                        or base in roots
                        or base in found
                    ):
                        found[info.qualname] = info
                        changed = True
                        break
        return [found[key] for key in sorted(found)]

    def transitive_callees(
        self, entry_points: set[str], max_functions: int = 10_000
    ) -> set[str]:
        """Function qualnames reachable from ``entry_points`` by calls.

        Only edges that resolve to a known function are followed;
        method calls additionally fall back to a unique-by-name match
        when the receiver type is unknown but exactly one class in the
        program defines that method.
        """
        by_method_name: dict[str, list[str]] = {}
        for qualname, info in self.functions.items():
            if info.owner_class is not None:
                by_method_name.setdefault(info.name, []).append(qualname)
        seen = set(entry_points) & set(self.functions)
        stack = list(seen)
        while stack and len(seen) < max_functions:
            current = stack.pop()
            for call in self.functions[current].calls:
                targets: list[str] = []
                if call.ref in self.functions:
                    targets = [call.ref]
                else:
                    bare = call.ref.split(".")[-1]
                    unique = by_method_name.get(bare, [])
                    if len(unique) == 1 and "." in call.ref:
                        targets = unique
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return seen


def _first_arg_name(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> str | None:
    args = node.args
    ordered = [*args.posonlyargs, *args.args]
    if not ordered:
        return None
    decorators = {
        getattr(dec, "id", None) for dec in node.decorator_list
    }
    if "staticmethod" in decorators:
        return None
    return ordered[0].arg


def _annotation_name(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, (ast.Name, ast.Attribute)):
        return ast.unparse(node)
    if isinstance(node, ast.Constant):
        return None
    # "Router | None" → Router; "Optional[Router]" → Router.
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_name(node.left)
        if left is not None and left != "None":
            return left
        return _annotation_name(node.right)
    if isinstance(node, ast.Subscript):
        head = _annotation_name(node.value)
        if head in ("Optional",):
            return _annotation_name(
                node.slice if not isinstance(node.slice, ast.Tuple)
                else node.slice.elts[0]
            )
    return None


def _literal_str_tuple(node: ast.expr) -> tuple[str, ...] | None:
    """``__slots__`` value as a tuple of names, when literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        names: list[str] = []
        for elt in node.elts:
            if isinstance(elt, ast.Constant) and isinstance(
                elt.value, str
            ):
                names.append(elt.value)
            else:
                return None
        return tuple(names)
    return None
