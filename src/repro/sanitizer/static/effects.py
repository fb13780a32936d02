"""AST effect inference: what a task body *really* does to each parameter.

The directive lint (SAN-L*) checks the declared clauses against the
function signature; this module checks them against the body: it
infers a per-parameter **footprint** — reads, writes and region slices —
from the body's AST:

* subscript and attribute stores (``C[i] = ...``, ``C[:] = ...``),
* in-place arithmetic (``C += A @ B`` mutates a NumPy array),
* calls into functions defined in the scanned sources (effects are
  computed recursively and propagated through the call's argument map —
  ``kernels.gemm_tile(A, B, C)`` writes ``C`` because the kernel does),
* aliasing through simple assignment chains (``x = C`` then
  ``x[:] = 0`` writes ``C``; slices of NumPy arrays are views, so
  ``row = C[0]; row[:] = 0`` also writes ``C``),
* NumPy-style pure calls (``np.*``, builtins) read their arguments;
  an ``out=`` keyword is a write,
* anything unresolvable (unknown callee, method call on a parameter)
  taints the parameter with *may-read*/*may-write* so the dead-clause
  and downgrade checks stay conservative.

The footprint is then diffed against the declared clauses:

* **SAN-S001** (error) — undeclared write: the body writes a parameter
  not declared ``output``/``inout`` (a direct store or in-place update,
  or through kernel calls and aliases; rebinding the name is no write),
* **SAN-S002** (warning) — dead clause: a declared dependence the body
  can never exercise,
* **SAN-S003** (info) — ``inout`` downgradable to ``input``/``output``,
* **SAN-S004** (error) — ``implements=`` versions disagree on inferred
  effects (one writes a parameter another provably does not touch),
* **SAN-S005** (warning) — a parameter declared output-only is read.

Soundness caveats (documented in DESIGN.md §14): inference is
flow-insensitive (a write anywhere in the body counts, even dead
branches), aliases are tracked only through simple assignment chains,
and any escape (unknown call, method call, ``**kwargs``) suppresses the
*absence*-based findings (S002/S003/S004) for the affected parameter
while never suppressing a definite write (S001).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.sanitizer.diagnostics import Diagnostic, Severity
from repro.sanitizer.lint import (
    CLAUSE_KINDS,
    DirectiveLinter,
    TaskDecl,
    _func_params,
)

#: methods assumed pure (reads only) when called on a parameter
_PURE_METHODS = frozenset({
    "mean", "sum", "min", "max", "std", "var", "all", "any", "copy",
    "item", "astype", "reshape", "transpose", "tolist", "trace", "dot",
    "conj", "flatten", "ravel", "nonzero", "argmax", "argmin", "round",
    "get", "keys", "values", "items", "count", "index", "diagonal",
})

#: builtins assumed pure when a parameter is an argument
_PURE_CALLABLES = frozenset({
    "len", "range", "enumerate", "zip", "sorted", "reversed", "min",
    "max", "abs", "sum", "float", "int", "bool", "str", "repr", "list",
    "tuple", "dict", "set", "frozenset", "iter", "next", "all", "any",
    "round", "divmod", "pow", "print", "isinstance", "issubclass",
    "hash", "id", "type", "map", "filter",
})

#: dotted-name prefixes of libraries whose functions read (never
#: mutate) their array arguments unless an ``out=`` keyword is given
_PURE_PREFIXES = ("np.", "numpy.", "math.", "scipy.")

#: numpy functions whose *first* argument is written
_NUMPY_WRITES_FIRST_ARG = frozenset({"copyto", "fill_diagonal", "put", "place"})


# ----------------------------------------------------------------------
# Footprints
# ----------------------------------------------------------------------
@dataclass
class ParamEffect:
    """Inferred footprint of one parameter."""

    #: slice repr ("" whole, "[:]", "[0]", "[...]", ".attr") ->
    #: (first line, evidence kind: load|call)
    reads: dict[str, tuple[int, str]] = field(default_factory=dict)
    #: slice repr -> (first line, evidence kind: store|aug|call|alias|del)
    writes: dict[str, tuple[int, str]] = field(default_factory=dict)
    may_read: bool = False
    may_write: bool = False

    def note_read(self, sl: str, line: int, kind: str = "load") -> None:
        self.reads.setdefault(sl, (line, kind))

    def note_write(self, sl: str, line: int, kind: str) -> None:
        self.writes.setdefault(sl, (line, kind))

    @property
    def is_read(self) -> bool:
        return bool(self.reads)

    @property
    def is_written(self) -> bool:
        return bool(self.writes)

    @property
    def has_direct_read(self) -> bool:
        """A load in the body itself (not propagated through a call).

        Call-propagated reads count as *uses* (for the dead-clause
        check) but are too weak an evidence for the stale-read warning:
        guard helpers like ``is_real(A, B, C)`` only inspect types.
        """
        return any(kind == "load" for _, kind in self.reads.values())

    def merge_callee(self, other: "ParamEffect", line: int) -> None:
        """Fold a callee parameter's footprint into this argument."""
        for sl in other.reads:
            self.note_read(sl, line, "call")
        for sl in other.writes:
            self.note_write(sl, line, "call")
        self.may_read = self.may_read or other.may_read
        self.may_write = self.may_write or other.may_write

    def render(self) -> str:
        parts = []
        if self.reads:
            parts.append("reads " + ",".join(_render_slices(self.reads)))
        if self.writes:
            parts.append("writes " + ",".join(_render_slices(self.writes)))
        if self.may_write:
            parts.append("may-write")
        elif self.may_read:
            parts.append("may-read")
        return " ".join(parts) if parts else "untouched"


def _render_slices(slices: Iterable[str]) -> list[str]:
    return sorted(s if s else "[*]" for s in slices)


@dataclass
class FunctionEffects:
    """Per-parameter footprints of one function definition."""

    params: list[str]
    vararg: Optional[str]
    effects: dict[str, ParamEffect]

    def effect(self, name: str) -> ParamEffect:
        return self.effects.setdefault(name, ParamEffect())


# ----------------------------------------------------------------------
# AST plumbing
# ----------------------------------------------------------------------
def _dotted(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _slice_repr(node: ast.expr) -> str:
    if isinstance(node, ast.Constant):
        return f"[{node.value!r}]"
    if isinstance(node, ast.Slice) and node.lower is None and node.upper is None \
            and node.step is None:
        return "[:]"
    return "[...]"


def _access_root(node: ast.expr) -> tuple[Optional[str], str]:
    """(root name, slice repr) of an access expression.

    ``C`` -> ("C", ""); ``C[0]`` -> ("C", "[0]"); ``C[0][1]`` ->
    ("C", "[...]"); ``C.real`` -> ("C", ".real").
    """
    sl = ""
    depth = 0
    while True:
        if isinstance(node, ast.Subscript):
            sl = _slice_repr(node.slice) if depth == 0 else "[...]"
            depth += 1
            node = node.value
        elif isinstance(node, ast.Attribute):
            sl = f".{node.attr}" if depth == 0 else "[...]"
            depth += 1
            node = node.value
        elif isinstance(node, ast.Starred):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        return node.id, sl
    return None, sl


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------
class EffectAnalyzer:
    """Computes (and memoizes) :class:`FunctionEffects` for the function
    definitions of a set of parsed modules."""

    def __init__(self, functions: dict[str, list[ast.FunctionDef]]) -> None:
        self._functions = functions
        self._memo: dict[int, FunctionEffects] = {}
        self._in_progress: set[int] = set()

    # -- function lookup ------------------------------------------------
    def lookup(self, name: str) -> Optional[ast.FunctionDef]:
        candidates = self._functions.get(name, [])
        if not candidates:
            return None
        sigs = {tuple(_func_params(c)) for c in candidates}
        return candidates[-1] if len(sigs) == 1 else None

    # -- entry point ----------------------------------------------------
    def effects_of(self, fn: "ast.FunctionDef | ast.Lambda") -> FunctionEffects:
        key = id(fn)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        a = fn.args
        params = [arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        vararg = a.vararg.arg if a.vararg else None
        names = params + ([vararg] if vararg else []) \
            + ([a.kwarg.arg] if a.kwarg else [])
        fe = FunctionEffects(
            params=params, vararg=vararg,
            effects={p: ParamEffect() for p in names},
        )
        if key in self._in_progress:  # recursion: stay conservative
            for p in fe.effects.values():
                p.may_read = p.may_write = True
            return fe
        self._in_progress.add(key)
        try:
            body = fn.body if isinstance(fn.body, list) else [ast.Expr(fn.body)]
            _BodyWalker(self, fe).walk(body)
            self._memo[key] = fe
        finally:
            self._in_progress.discard(key)
        return fe


class _BodyWalker:
    """One pass over a function body, in statement order.

    ``env`` maps local names to the parameter whose storage they alias
    (every parameter starts aliased to itself); rebinds to non-parameter
    values kill the alias.
    """

    def __init__(self, analyzer: EffectAnalyzer, fe: FunctionEffects) -> None:
        self.an = analyzer
        self.fe = fe
        self.env: dict[str, Optional[str]] = {p: p for p in fe.effects}

    # -- helpers --------------------------------------------------------
    def _param_of(self, name: Optional[str]) -> Optional[str]:
        if name is None:
            return None
        return self.env.get(name)

    def _resolve_access(self, node: ast.expr) -> tuple[Optional[str], str]:
        root, sl = _access_root(node)
        return self._param_of(root), sl

    # -- statements -----------------------------------------------------
    def walk(self, stmts: Sequence[ast.stmt]) -> None:
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: ast.stmt) -> None:
        if isinstance(s, ast.Assign):
            self.expr(s.value)
            for tgt in s.targets:
                self._assign_target(tgt, s.value, s.lineno)
        elif isinstance(s, ast.AugAssign):
            self.expr(s.value)
            param, sl = self._resolve_access(s.target)
            if param is not None:
                # in-place arithmetic both reads and mutates the target
                self.fe.effect(param).note_read(sl, s.lineno)
                self.fe.effect(param).note_write(sl, s.lineno, "aug")
        elif isinstance(s, ast.AnnAssign):
            if s.value is not None:
                self.expr(s.value)
                self._assign_target(s.target, s.value, s.lineno)
        elif isinstance(s, ast.Delete):
            for tgt in s.targets:
                if isinstance(tgt, (ast.Subscript, ast.Attribute)):
                    param, sl = self._resolve_access(tgt)
                    if param is not None:
                        self.fe.effect(param).note_write(sl, s.lineno, "del")
                elif isinstance(tgt, ast.Name):
                    self.env[tgt.id] = None
        elif isinstance(s, ast.Expr):
            self.expr(s.value)
        elif isinstance(s, ast.Return):
            if s.value is not None:
                self.expr(s.value)
        elif isinstance(s, (ast.If, ast.While)):
            self.expr(s.test)
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, ast.For):
            self.expr(s.iter)
            # iterating a parameter yields views/elements of its storage
            iter_param, _ = self._resolve_access(s.iter)
            self._bind_loop_target(s.target, iter_param)
            self.walk(s.body)
            self.walk(s.orelse)
        elif isinstance(s, ast.With):
            for item in s.items:
                self.expr(item.context_expr)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    param, _ = self._resolve_access(item.context_expr)
                    self.env[item.optional_vars.id] = param
            self.walk(s.body)
        elif isinstance(s, ast.Try):
            self.walk(s.body)
            for h in s.handlers:
                self.walk(h.body)
            self.walk(s.orelse)
            self.walk(s.finalbody)
        elif isinstance(s, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(s):
                if isinstance(child, ast.expr):
                    self.expr(child)
        elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested def capturing a parameter may do anything with it
            for node in ast.walk(s):
                if isinstance(node, ast.Name):
                    param = self._param_of(node.id)
                    if param is not None:
                        eff = self.fe.effect(param)
                        eff.may_read = eff.may_write = True
        else:
            for child in ast.iter_child_nodes(s):
                if isinstance(child, ast.expr):
                    self.expr(child)
                elif isinstance(child, ast.stmt):
                    self.stmt(child)

    def _bind_loop_target(self, tgt: ast.expr, iter_param: Optional[str]) -> None:
        if isinstance(tgt, ast.Name):
            self.env[tgt.id] = iter_param
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for el in tgt.elts:
                self._bind_loop_target(el, iter_param)

    def _assign_target(self, tgt: ast.expr, value: ast.expr, line: int) -> None:
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for el in tgt.elts:
                self._assign_target(el, value, line)
            return
        if isinstance(tgt, ast.Name):
            # rebind: the name now aliases whatever the value aliases
            param, _ = self._resolve_access(value)
            self.env[tgt.id] = param
            return
        param, sl = self._resolve_access(tgt)
        if param is not None:
            root, _ = _access_root(tgt)
            kind = "store" if root == param else "alias"
            self.fe.effect(param).note_write(sl, line, kind)
        # only the index expressions of a store target are reads — the
        # stored-into name itself is not (C[i] = x never reads C's data)
        node: ast.expr = tgt
        while isinstance(node, (ast.Subscript, ast.Attribute, ast.Starred)):
            if isinstance(node, ast.Subscript):
                self._note_plain_reads(node.slice)
            node = node.value

    # -- expressions ----------------------------------------------------
    def expr(self, e: Optional[ast.expr]) -> None:
        if e is None:
            return
        for node in ast.walk(e):
            if isinstance(node, ast.Call):
                self._call(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                param = self._param_of(node.id)
                if param is not None:
                    self.fe.effect(param).note_read("", node.lineno)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                param, sl = self._resolve_access(node)
                if param is not None:
                    self.fe.effect(param).note_read(sl, node.lineno)

    def _note_plain_reads(self, e: ast.expr) -> None:
        for node in ast.walk(e):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                param = self._param_of(node.id)
                if param is not None:
                    self.fe.effect(param).note_read("", node.lineno)

    def _call(self, call: ast.Call) -> None:
        """Propagate effects through one call site.

        The surrounding :meth:`expr` walk already records plain name
        reads inside the arguments; this adds writes and may-flags.
        """
        callee = _dotted(call.func)
        line = call.lineno

        # p.method(...): a method call on (an alias of) a parameter
        if isinstance(call.func, ast.Attribute):
            recv_param, _ = self._resolve_access(call.func.value)
            if recv_param is not None:
                eff = self.fe.effect(recv_param)
                eff.note_read("", line)
                if call.func.attr not in _PURE_METHODS:
                    eff.may_write = True
                return

        arg_params = [self._resolve_access(a) for a in call.args]
        kw_params = {
            k.arg: self._resolve_access(k.value)
            for k in call.keywords
            if k.arg is not None
        }
        # a parameter smuggled through **kwargs escapes unconditionally
        for k in call.keywords:
            if k.arg is None:
                param, _ = self._resolve_access(k.value)
                if param is not None:
                    eff = self.fe.effect(param)
                    eff.may_read = eff.may_write = True

        if callee is not None:
            tail = callee.rsplit(".", 1)[-1]
            # pure library calls: arguments are read, out= is written
            if callee in _PURE_CALLABLES or callee.startswith(_PURE_PREFIXES):
                if tail in _NUMPY_WRITES_FIRST_ARG and arg_params:
                    param, sl = arg_params[0]
                    if param is not None:
                        self.fe.effect(param).note_write(sl, line, "call")
                out = kw_params.get("out")
                if out is not None and out[0] is not None:
                    self.fe.effect(out[0]).note_write(out[1], line, "call")
                return
            fn = self.an.lookup(tail)
            if fn is not None:
                self._propagate(fn, call, arg_params, kw_params, line)
                return

        # unknown callee: every parameter argument escapes
        for param, _sl in (*arg_params, *kw_params.values()):
            if param is not None:
                eff = self.fe.effect(param)
                eff.may_read = eff.may_write = True

    def _propagate(
        self,
        fn: ast.FunctionDef,
        call: ast.Call,
        arg_params: list[tuple[Optional[str], str]],
        kw_params: dict[str, tuple[Optional[str], str]],
        line: int,
    ) -> None:
        callee = self.an.effects_of(fn)
        # positional arguments (a *args in the call defeats the mapping)
        if any(isinstance(a, ast.Starred) for a in call.args):
            for param, _sl in (*arg_params, *kw_params.values()):
                if param is not None:
                    eff = self.fe.effect(param)
                    eff.may_read = eff.may_write = True
            return
        for i, (param, _sl) in enumerate(arg_params):
            if param is None:
                continue
            if i < len(callee.params):
                target = callee.params[i]
            elif callee.vararg is not None:
                target = callee.vararg
            else:
                continue
            self.fe.effect(param).merge_callee(callee.effect(target), line)
        for name, (param, _sl) in kw_params.items():
            if param is not None and name in callee.effects:
                self.fe.effect(param).merge_callee(callee.effect(name), line)


# ----------------------------------------------------------------------
# Clause diffing
# ----------------------------------------------------------------------
def _declared_sets(decl: TaskDecl) -> tuple[set[str], set[str], set[str]]:
    ins = set(decl.declared_names("inputs"))
    outs = set(decl.declared_names("outputs"))
    inouts = set(decl.declared_names("inouts"))
    return ins, outs, inouts


def _is_empty_body(fn: "ast.FunctionDef | ast.Lambda") -> bool:
    """``pass``/docstring/``...`` bodies: the timing-only task idiom.

    Simulation-only task declarations legitimately carry clauses with an
    empty body (the dependences *are* the program); the absence-based
    checks (S002/S003/S005) stay silent for them.
    """
    body = fn.body if isinstance(fn.body, list) else [ast.Expr(fn.body)]
    for s in body:
        if isinstance(s, ast.Pass):
            continue
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant):
            continue  # docstring / Ellipsis
        return False
    return True


def check_decl_effects(analyzer: EffectAnalyzer, decl: TaskDecl) -> list[Diagnostic]:
    """Diff one declaration's inferred footprints against its clauses."""
    if decl.func_node is None or decl.params is None or not decl.literal:
        return []
    empty = _is_empty_body(decl.func_node)
    fe = analyzer.effects_of(decl.func_node)
    ins, outs, inouts = _declared_sets(decl)
    out: list[Diagnostic] = []
    for p in decl.params:
        eff = fe.effects.get(p, ParamEffect())
        writable = p in outs or p in inouts
        declared = p in ins or writable

        # -- SAN-S001: undeclared write --------------------------------
        if eff.is_written and not writable:
            line, kind = min(eff.writes.values())
            via = {
                "call": "through a kernel call",
                "alias": "through an alias",
                "store": "by a store",
                "aug": "by in-place arithmetic",
                "del": "by a deletion",
            }[kind]
            out.append(Diagnostic(
                code="SAN-S001",
                message=(
                    f"task {decl.version_name!r}: parameter {p!r} is "
                    f"written {via} (body line {line}) but is not "
                    "declared output/inout (inferred footprint: "
                    f"{eff.render()})"
                ),
                file=decl.file, line=decl.line,
            ))

        if empty:
            continue

        # -- SAN-S005: stale read of an output-only parameter ----------
        if eff.has_direct_read and p in outs and p not in ins \
                and p not in inouts:
            line = min(ln for ln, kind in eff.reads.values()
                       if kind == "load")
            out.append(Diagnostic(
                code="SAN-S005",
                message=(
                    f"task {decl.version_name!r}: parameter {p!r} is "
                    "declared output-only but the body reads it (body "
                    f"line {line}); the value read is stale — declare "
                    "inout"
                ),
                severity=Severity.WARNING,
                file=decl.file, line=decl.line,
            ))

        # -- SAN-S002: dead clauses ------------------------------------
        if declared and not eff.is_read and not eff.is_written \
                and not eff.may_read and not eff.may_write:
            kind = "inouts" if p in inouts else ("outputs" if p in outs
                                                 else "inputs")
            out.append(Diagnostic(
                code="SAN-S002",
                message=(
                    f"task {decl.version_name!r}: parameter {p!r} is "
                    f"declared in the {kind} clause but the body never "
                    "touches it; the dependence over-constrains the DAG"
                ),
                severity=Severity.WARNING,
                file=decl.file, line=decl.line,
            ))
        elif p in outs and p not in inouts and not eff.is_written \
                and not eff.may_write and (eff.is_read or eff.may_read):
            out.append(Diagnostic(
                code="SAN-S002",
                message=(
                    f"task {decl.version_name!r}: parameter {p!r} is "
                    "declared output but the body never writes it "
                    f"(inferred footprint: {eff.render()})"
                ),
                severity=Severity.WARNING,
                file=decl.file, line=decl.line,
            ))

        # -- SAN-S003: downgradable inout ------------------------------
        if p in inouts and (eff.is_read or eff.is_written):
            if eff.is_read and not eff.is_written and not eff.may_write:
                out.append(Diagnostic(
                    code="SAN-S003",
                    message=(
                        f"task {decl.version_name!r}: parameter {p!r} is "
                        "declared inout but the body only reads it; an "
                        "input clause would admit more parallelism"
                    ),
                    severity=Severity.INFO,
                    file=decl.file, line=decl.line,
                ))
            elif eff.is_written and not eff.is_read and not eff.may_read:
                out.append(Diagnostic(
                    code="SAN-S003",
                    message=(
                        f"task {decl.version_name!r}: parameter {p!r} is "
                        "declared inout but the body only writes it; an "
                        "output clause would break the serial chain"
                    ),
                    severity=Severity.INFO,
                    file=decl.file, line=decl.line,
                ))
    return out


def check_implements_effects(
    analyzer: EffectAnalyzer,
    decls: Sequence[TaskDecl],
    bindings: dict[str, list[str]],
) -> list[Diagnostic]:
    """SAN-S004: versions of one task must agree on inferred effects.

    Compared positionally (versions may rename parameters); a parameter
    one version definitely writes that another version provably never
    writes (no write, no may-write) makes the versions non-equivalent.
    """
    mains: dict[str, list[TaskDecl]] = {}
    for d in decls:
        if d.is_main:
            mains.setdefault(d.version_name, []).append(d)

    out: list[Diagnostic] = []
    for decl in decls:
        if decl.is_main or decl.func_node is None or decl.params is None:
            continue
        kind, ref = decl.implements_ref  # type: ignore[misc]
        main_names = [ref] if kind == "name" else bindings.get(ref, [])
        candidates = [
            m
            for name in main_names
            for m in mains.get(name, [])
            if m is not decl and m.func_node is not None
            and m.params is not None and len(m.params) == len(decl.params)
        ]
        if not candidates:
            continue
        main = candidates[0]
        if main.func_node is decl.func_node:
            continue  # same kernel function: trivially equivalent
        fe_v = analyzer.effects_of(decl.func_node)
        fe_m = analyzer.effects_of(main.func_node)
        assert main.params is not None and decl.params is not None
        for i, (pv, pm) in enumerate(zip(decl.params, main.params, strict=False)):
            ev = fe_v.effects.get(pv, ParamEffect())
            em = fe_m.effects.get(pm, ParamEffect())
            for a, b, an_, bn in ((ev, em, pv, pm), (em, ev, pm, pv)):
                if a.is_written and not b.is_written and not b.may_write:
                    writer = decl if a is ev else main
                    other = main if a is ev else decl
                    out.append(Diagnostic(
                        code="SAN-S004",
                        message=(
                            f"version {decl.version_name!r} (implements "
                            f"{main.version_name!r}): parameter #{i} is "
                            f"written by {writer.version_name!r} "
                            f"({an_!r}: {a.render()}) but provably "
                            f"untouched by {other.version_name!r} "
                            f"({bn!r}: {b.render()}); the versions are "
                            "not interchangeable"
                        ),
                        file=decl.file, line=decl.line,
                    ))
                    break
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyzer_for(linter: DirectiveLinter) -> EffectAnalyzer:
    return EffectAnalyzer(linter._global_functions)


def check_effects(linter: DirectiveLinter) -> list[Diagnostic]:
    """All SAN-S00x findings for a built :class:`DirectiveLinter`."""
    analyzer = analyzer_for(linter)
    decls = [d for m in linter.modules for d in m.decls]
    bindings: dict[str, list[str]] = {}
    for m in linter.modules:
        for key, names in m.bindings.items():
            bindings.setdefault(key, []).extend(names)
    out: list[Diagnostic] = []
    for decl in decls:
        out.extend(check_decl_effects(analyzer, decl))
    out.extend(check_implements_effects(analyzer, decls, bindings))
    return out


def check_effect_paths(paths: Iterable[str]) -> list[Diagnostic]:
    """Effect-inference findings for files/directories (no waiving)."""
    from repro.sanitizer.lint import _iter_py_files

    files = _iter_py_files(paths)
    if not files:
        return []
    return check_effects(DirectiveLinter(files))


def check_definitions(definitions: "dict | object") -> list[Diagnostic]:
    """Live-mode effect pre-flight over registered task definitions.

    Consumes :class:`~repro.runtime.task.TaskVersion` objects (their
    ``clauses`` snapshot plus the kernel callable's source, recovered via
    :mod:`inspect`) instead of scanning a source tree — this is what
    ``RunResult.validate(static=True)`` runs.  Versions with callable
    clause specs (``clauses is None``) or unrecoverable source (REPL,
    C extensions) are skipped silently: the pre-flight is best-effort.
    """
    import inspect

    defs = definitions.values() if hasattr(definitions, "values") \
        else list(definitions)  # type: ignore[arg-type]

    # one parse per distinct source file; a shared function index gives
    # the analyzer call-propagation across helper kernels
    trees: dict[str, ast.Module] = {}
    functions: dict[str, list[ast.FunctionDef]] = {}
    by_file: dict[str, dict[str, list[ast.FunctionDef]]] = {}
    located: list[tuple[object, str, ast.FunctionDef]] = []

    def _tree(path: str) -> Optional[ast.Module]:
        if path in trees:
            return trees[path]
        try:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
        except (OSError, SyntaxError):
            return None
        trees[path] = tree
        local = by_file.setdefault(path, {})
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append(node)
                local.setdefault(node.name, []).append(node)
        return tree

    for defn in defs:
        for version in defn.versions:  # type: ignore[attr-defined]
            if version.clauses is None or version.fn is None:
                continue
            fn = inspect.unwrap(version.fn)
            try:
                path = inspect.getsourcefile(fn)
            except TypeError:
                continue
            if path is None or _tree(path) is None:
                continue
            name = getattr(fn, "__name__", None)
            candidates = by_file.get(path, {}).get(name or "", [])
            if not candidates:
                continue
            # multiple same-named defs: pick the one nearest the code
            # object's first line (decorator offsets differ per version)
            first = getattr(getattr(fn, "__code__", None), "co_firstlineno", 0)
            node = min(candidates, key=lambda f: abs(f.lineno - first))
            located.append((version, path, node))

    if not located:
        return []
    analyzer = EffectAnalyzer(functions)
    out: list[Diagnostic] = []
    decls: list[TaskDecl] = []
    for version, path, node in located:
        decl = TaskDecl(
            file=path,
            line=node.lineno,
            version_name=version.name,  # type: ignore[attr-defined]
            clauses={k: list(version.clauses.get(k, ()))  # type: ignore[attr-defined]
                     for k in CLAUSE_KINDS},
            literal=True,
            implements_ref=(
                None if version.is_main  # type: ignore[attr-defined]
                else ("name", version.task_name)  # type: ignore[attr-defined]
            ),
            params=_func_params(node),
            func_node=node,
        )
        decls.append(decl)
        out.extend(check_decl_effects(analyzer, decl))
    out.extend(check_implements_effects(analyzer, decls, {}))
    return out
