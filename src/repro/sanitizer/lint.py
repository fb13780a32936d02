"""Static directive lint: AST inspection of ``@task`` / ``@target`` use.

OmpSs dependence semantics are only sound if the clauses describe what
the kernel body really does; the runtime cannot tell a missing clause
from an independent access.  This linter inspects Python sources —
without importing them — and flags the directive mistakes that would
silently build a racy DAG:

* **SAN-L001** — a clause names a parameter that is not in the task
  function's signature (the runtime would raise at *call* time; the lint
  catches it before any run),
* **SAN-L003** — duplicate clause entries, or one parameter named by
  two different clauses,
* **SAN-L004** — an ``implements=`` version whose clause set disagrees
  with the main version's (all versions of a task must have the same
  dependence environment or the Table-I grouping is unsound).

Both directive spellings are understood::

    @target(device="cuda", implements=saxpy)
    @task(inputs=["a"], inouts=["b"])
    def saxpy_cuda(a, b): ...

    self.potrf = task(kernels.potrf_block, inouts=["A"], name="potrf_magma")
    target(device="smp", implements=self.potrf)(task(...))

Callable clause specs (lambdas computing region lists) cannot be checked
statically and are skipped.  A body writing a parameter declared
inputs-only (the retired SAN-L002) is reported by effect inference as
SAN-S001.  The lint runs inside the one static pass,
:func:`repro.sanitizer.static.check_static`, which applies the
``# san-ignore`` waivers.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.sanitizer.diagnostics import Diagnostic
from repro.sanitizer.waivers import Waiver, scan_waivers

CLAUSE_KINDS = ("inputs", "outputs", "inouts")


# ----------------------------------------------------------------------
# Data model
# ----------------------------------------------------------------------
@dataclass
class TaskDecl:
    """One ``task(...)`` declaration found in a source file."""

    file: str
    line: int
    version_name: str
    #: clause kind -> literal parameter names, or None when the clause
    #: is absent / not statically analysable (callable spec)
    clauses: dict[str, Optional[list[str]]]
    #: whether every *present* clause is a literal name list
    literal: bool
    #: unresolved implements reference: ("name", str) | ("var", key) | None
    implements_ref: Optional[tuple[str, str]]
    #: resolved parameter names of the task function (None = unknown)
    params: Optional[list[str]]
    #: the function body, when it was resolvable in the scanned sources
    func_node: "Optional[ast.FunctionDef | ast.Lambda]" = None
    #: trailing name of the function reference (``kernels.gemm_tile`` ->
    #: ``"gemm_tile"``); used to resolve call-form signatures
    func_ref_name: Optional[str] = None

    @property
    def is_main(self) -> bool:
        return self.implements_ref is None

    def declared_names(self, kind: str) -> list[str]:
        names = self.clauses.get(kind)
        return list(names) if names else []


@dataclass
class _Module:
    path: str
    tree: ast.Module
    lines: list[str]
    #: function name -> defs in this module (last one wins on lookup)
    functions: dict[str, list[ast.FunctionDef]] = field(default_factory=dict)
    #: variable key ("x" / "self.x") -> version names bound to it
    bindings: dict[str, list[str]] = field(default_factory=dict)
    #: variable key -> literal dict kwargs (for ``task(fn, **shared)``)
    dict_vars: dict[str, dict[str, ast.expr]] = field(default_factory=dict)
    decls: list[TaskDecl] = field(default_factory=list)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _callee_name(call: ast.Call) -> Optional[str]:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


def _is_task_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and _callee_name(node) == "task"


def _is_target_wrapper(node: ast.AST) -> bool:
    """``target(...)(task(...))``"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Call)
        and _callee_name(node.func) == "target"
        and len(node.args) == 1
        and _is_task_call(node.args[0])
    )


def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _str_const(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _name_list(node: ast.expr) -> Optional[list[str]]:
    """A literal ``["a", "b"]`` clause value, else None."""
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for el in node.elts:
            s = _str_const(el)
            if s is None:
                return None
            out.append(s)
        return out
    return None


def _func_params(fn: "ast.FunctionDef | ast.Lambda") -> list[str]:
    a = fn.args
    names = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return names


# ----------------------------------------------------------------------
# Per-module scan
# ----------------------------------------------------------------------
class _Scanner(ast.NodeVisitor):
    def __init__(self, mod: _Module) -> None:
        self.mod = mod
        self._consumed: set[int] = set()

    # -- function definitions ------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.mod.functions.setdefault(node.name, []).append(node)
        decl = self._decl_from_decorators(node)
        if decl is not None:
            self.mod.decls.append(decl)
            self.mod.bindings.setdefault(node.name, []).append(decl.version_name)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _decl_from_decorators(self, node: ast.FunctionDef) -> Optional[TaskDecl]:
        task_call: Optional[ast.Call] = None
        target_call: Optional[ast.Call] = None
        for dec in node.decorator_list:
            if _is_task_call(dec):
                task_call = dec
                self._consumed.add(id(dec))
            elif isinstance(dec, ast.Name) and dec.id == "task":
                task_call = ast.Call(func=dec, args=[], keywords=[])
            elif isinstance(dec, ast.Call) and _callee_name(dec) == "target":
                target_call = dec
        if task_call is None:
            return None
        kw = self._keywords(task_call)
        if target_call is not None:
            kw.update(self._keywords(target_call))
        return self._build_decl(
            task_call, kw,
            default_name=node.name, func=node, line=node.lineno,
        )

    # -- assignments ----------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        # shared-kwargs dicts: X = dict(inputs=[...], ...) / X = {...}
        as_dict = self._literal_dict(value)
        version = self._peek_version_name(value)
        for tgt in node.targets:
            key = _dotted(tgt)
            if key is None:
                continue
            if as_dict is not None:
                self.mod.dict_vars[key] = as_dict
            if version is not None:
                self.mod.bindings.setdefault(key, []).append(version)
        self.generic_visit(node)

    @staticmethod
    def _literal_dict(value: ast.expr) -> Optional[dict[str, ast.expr]]:
        if isinstance(value, ast.Call) and _callee_name(value) == "dict" and not value.args:
            out = {k.arg: k.value for k in value.keywords if k.arg is not None}
            return out if len(out) == len(value.keywords) else None
        if isinstance(value, ast.Dict):
            out = {}
            for k, v in zip(value.keys, value.values, strict=True):
                s = _str_const(k) if k is not None else None
                if s is None:
                    return None
                out[s] = v
            return out
        return None

    def _peek_version_name(self, value: ast.expr) -> Optional[str]:
        call = None
        if _is_task_call(value):
            call = value
        elif _is_target_wrapper(value):
            call = value.args[0]  # type: ignore[union-attr]
        if call is None:
            return None
        kw = self._keywords(call)
        name = _str_const(kw.get("name"))
        if name is not None:
            return name
        fn = call.args[0] if call.args else None
        return _dotted(fn).rsplit(".", 1)[-1] if fn is not None and _dotted(fn) else None

    # -- call-form declarations ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if _is_target_wrapper(node):
            inner = node.args[0]
            assert isinstance(inner, ast.Call)
            self._consumed.add(id(inner))
            kw = self._keywords(inner)
            kw.update(self._keywords(node.func))  # type: ignore[arg-type]
            self.mod.decls.append(self._call_decl(inner, kw))
        elif _is_task_call(node) and id(node) not in self._consumed:
            self.mod.decls.append(self._call_decl(node, self._keywords(node)))
        self.generic_visit(node)

    def _call_decl(self, call: ast.Call, kw: dict[str, ast.expr]) -> TaskDecl:
        fn_ref = call.args[0] if call.args else None
        func: "Optional[ast.FunctionDef | ast.Lambda]" = None
        ref_name: Optional[str] = None
        default_name = "<anonymous>"
        if isinstance(fn_ref, ast.Lambda):
            func = fn_ref
        elif fn_ref is not None:
            dotted = _dotted(fn_ref)
            if dotted is not None:
                ref_name = dotted.rsplit(".", 1)[-1]
                default_name = ref_name
        decl = self._build_decl(call, kw, default_name=default_name,
                                func=func, line=call.lineno)
        decl.func_ref_name = ref_name
        return decl

    # -- shared construction -------------------------------------------
    def _keywords(self, call: ast.Call) -> dict[str, ast.expr]:
        """Keyword arguments of a call, with ``**shared_dict`` expanded."""
        out: dict[str, ast.expr] = {}
        for k in call.keywords:
            if k.arg is not None:
                out[k.arg] = k.value
                continue
            key = _dotted(k.value)
            expansion = self.mod.dict_vars.get(key) if key else None
            if expansion:
                out.update(expansion)
        return out

    def _build_decl(
        self,
        call: ast.Call,
        kw: dict[str, ast.expr],
        *,
        default_name: str,
        func: "Optional[ast.FunctionDef | ast.Lambda]",
        line: int,
    ) -> TaskDecl:
        clauses: dict[str, Optional[list[str]]] = {}
        literal = True
        for kind in CLAUSE_KINDS:
            value = kw.get(kind)
            if value is None:
                clauses[kind] = None
            else:
                names = _name_list(value)
                clauses[kind] = names
                if names is None:
                    literal = False

        imp = kw.get("implements")
        implements_ref: Optional[tuple[str, str]] = None
        if imp is not None and not (
            isinstance(imp, ast.Constant) and imp.value is None
        ):
            s = _str_const(imp)
            if s is not None:
                implements_ref = ("name", s)
            else:
                key = _dotted(imp)
                implements_ref = ("var", key) if key else ("var", "<unknown>")

        version_name = _str_const(kw.get("name")) or default_name
        return TaskDecl(
            file=self.mod.path,
            line=line,
            version_name=version_name,
            clauses=clauses,
            literal=literal,
            implements_ref=implements_ref,
            params=_func_params(func) if func is not None else None,
            func_node=func,
        )


# ----------------------------------------------------------------------
# Lint driver
# ----------------------------------------------------------------------
def _iter_py_files(paths: Iterable[str]) -> list[str]:
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                files.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        elif p.endswith(".py"):
            files.append(p)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {p}")
    return files


class DirectiveLinter:
    """Parses a set of source files and indexes their task declarations."""

    def __init__(self, files: Sequence[str]) -> None:
        self.modules: list[_Module] = []
        for path in files:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            tree = ast.parse(source, filename=path)
            mod = _Module(path=path, tree=tree, lines=source.splitlines())
            _Scanner(mod).visit(tree)
            self.modules.append(mod)
        # cross-module function index (e.g. apps reference kernels.*)
        self._global_functions: dict[str, list[ast.FunctionDef]] = {}
        for mod in self.modules:
            for name, defs in mod.functions.items():
                self._global_functions.setdefault(name, []).extend(defs)
        self._resolve_functions()

    # ------------------------------------------------------------------
    def _resolve_functions(self) -> None:
        """Fill in params/body for call-form decls (``task(kernels.f, ...)``)."""
        for mod in self.modules:
            for decl in mod.decls:
                if decl.params is not None:
                    continue
                fn = self._lookup_function(mod, decl)
                if fn is not None:
                    decl.params = _func_params(fn)
                    decl.func_node = fn

    def _lookup_function(self, mod: _Module, decl: TaskDecl) -> Optional[ast.FunctionDef]:
        if decl.func_ref_name is None:
            return None
        candidates = mod.functions.get(decl.func_ref_name, [])
        if not candidates:
            candidates = self._global_functions.get(decl.func_ref_name, [])
        if not candidates:
            return None
        # ambiguous cross-module name: only usable if all defs agree on
        # the signature (the body check then uses the last definition)
        params = {tuple(_func_params(c)) for c in candidates}
        return candidates[-1] if len(params) == 1 else None


def collect_lint(linter: DirectiveLinter) -> list[Diagnostic]:
    """Raw (unwaived) SAN-L001/L003/L004 findings for a built linter."""
    diags: list[Diagnostic] = []
    all_decls = [(m, d) for m in linter.modules for d in m.decls]

    # -- L001 / L003 per declaration ------------------------------------
    for mod, decl in all_decls:
        diags.extend(_check_clause_names(mod, decl))
        diags.extend(_check_duplicates(mod, decl))

    # -- L004 across versions -------------------------------------------
    diags.extend(_check_implements_consistency(linter, all_decls))
    return diags


def collect_waivers(linter: DirectiveLinter) -> list[Waiver]:
    """Every ``# san-ignore`` comment in the linter's scanned modules."""
    out: list[Waiver] = []
    for mod in linter.modules:
        out.extend(scan_waivers(mod.path, mod.lines))
    return out


def _check_clause_names(mod: _Module, decl: TaskDecl) -> list[Diagnostic]:
    if decl.params is None:
        return []
    out = []
    params = set(decl.params)
    for kind in CLAUSE_KINDS:
        for name in decl.declared_names(kind):
            if name not in params:
                out.append(Diagnostic(
                    code="SAN-L001",
                    message=(
                        f"task {decl.version_name!r}: {kind} clause names "
                        f"{name!r}, which is not a parameter of the task "
                        f"function (signature: {', '.join(decl.params)})"
                    ),
                    file=mod.path, line=decl.line,
                ))
    return out


def _check_duplicates(mod: _Module, decl: TaskDecl) -> list[Diagnostic]:
    out = []
    seen: dict[str, str] = {}
    for kind in CLAUSE_KINDS:
        names = decl.declared_names(kind)
        for i, name in enumerate(names):
            if name in names[:i]:
                out.append(Diagnostic(
                    code="SAN-L003",
                    message=(
                        f"task {decl.version_name!r}: parameter {name!r} "
                        f"appears twice in the {kind} clause"
                    ),
                    file=mod.path, line=decl.line,
                ))
            elif name in seen and seen[name] != kind:
                out.append(Diagnostic(
                    code="SAN-L003",
                    message=(
                        f"task {decl.version_name!r}: parameter {name!r} is "
                        f"named by both {seen[name]} and {kind}; use a single "
                        "inout clause instead"
                    ),
                    file=mod.path, line=decl.line,
                ))
            seen.setdefault(name, kind)
    return out


def _clause_signature(decl: TaskDecl) -> Optional[frozenset]:
    """Position-based clause set for cross-version comparison.

    Falls back to names when the function signature is unknown; returns
    None when any present clause is non-literal.
    """
    if not decl.literal:
        return None
    entries = []
    index = {p: i for i, p in enumerate(decl.params)} if decl.params else None
    for kind in CLAUSE_KINDS:
        for name in decl.declared_names(kind):
            key: object = index[name] if index is not None and name in index else name
            entries.append((kind, key))
    return frozenset(entries)


def _check_implements_consistency(
    linter: DirectiveLinter, all_decls: list[tuple[_Module, TaskDecl]]
) -> list[Diagnostic]:
    mains: dict[str, list[TaskDecl]] = {}
    for _, decl in all_decls:
        if decl.is_main:
            mains.setdefault(decl.version_name, []).append(decl)

    out = []
    for mod, decl in all_decls:
        if decl.is_main:
            continue
        sig = _clause_signature(decl)
        if sig is None:
            continue
        kind, ref = decl.implements_ref  # type: ignore[misc]
        if kind == "name":
            main_names = [ref]
        else:
            main_names = mod.bindings.get(ref, [])
        candidates = [
            m
            for name in main_names
            for m in mains.get(name, [])
            if m is not decl
        ]
        comparable = [m for m in candidates if _clause_signature(m) is not None]
        if not comparable:
            continue
        if all(_clause_signature(m) != sig for m in comparable):
            main = comparable[0]
            out.append(Diagnostic(
                code="SAN-L004",
                message=(
                    f"version {decl.version_name!r} (implements "
                    f"{main.version_name!r}) declares clauses "
                    f"{_render_clauses(decl)} but the main version declares "
                    f"{_render_clauses(main)}; all versions of a task must "
                    "share one dependence environment"
                ),
                file=mod.path, line=decl.line,
            ))
    return out


def _render_clauses(decl: TaskDecl) -> str:
    parts = []
    for kind in CLAUSE_KINDS:
        names = decl.declared_names(kind)
        if names:
            parts.append(f"{kind}={names}")
    return "{" + ", ".join(parts) + "}"

