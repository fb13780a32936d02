"""Scheduler/cluster contract lint: AST checks for runtime-integrity rules.

Schedulers and cluster plugins run inside the runtime's event loop with
full access to its internals; four contracts keep them honest, each the
static form of a bug class this repo has actually hit:

* **SAN-S010** — *never mutate the trace.*  The trace is the runtime's
  append-only record; policies may call ``trace.add`` and read events,
  but assigning trace attributes or mutating its event list rewrites
  history that the SAN-T invariant checks and the analysis layer rely
  on.
* **SAN-S011** — *never poke worker state.*  ``alive``, ``queue``,
  ``current``, ``busy_time``, ``tasks_run``, ``quarantined_until``
  are owned by the runtime's dispatch/finish paths; a scheduler
  writing them desynchronises the event loop.
  Schedulers observe workers and call ``rt.dispatch``.
* **SAN-S012** — *every ``task_ready`` path must hand the task off.*  A
  ready task the scheduler neither dispatches, pools, buffers, nor
  delegates is silently dropped: the run deadlocks at ``wait_all`` with
  no diagnostic.  Every control-flow path must pass the task to a call,
  store it into a container, or raise.
* **SAN-S013** — *labels and meta must use run-local ids.*  Raw
  ``t.uid`` values in trace labels or protocol metadata differ between
  otherwise-identical runs (uids are process-global), breaking
  byte-identical trace comparison — the PR 5 regression class.  Wrap
  them: ``self.rt._local_ids.get(t.uid, t.uid)``.

Scope: every class that defines a ``task_ready`` method (wherever it
lives — fixtures included), plus every module under a ``schedulers`` or
``cluster`` directory.  The runtime itself (``runtime/``) legitimately
owns worker state and is out of scope.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.sanitizer.diagnostics import Diagnostic

#: worker attributes owned by the runtime's dispatch/finish machinery
_WORKER_ATTRS = frozenset({
    "alive", "queue", "current", "busy_time", "tasks_run",
    "quarantined_until",
})

#: container mutators (for ``w.queue.append(...)`` style pokes and
#: ``trace.events.clear()`` style history rewrites)
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "pop", "popleft", "insert", "remove",
    "clear", "extend", "sort", "reverse", "update", "setdefault",
    "add", "discard",
})

#: the one trace method policies may call
_TRACE_ALLOWED = frozenset({"add"})

_SCOPED_DIRS = ("schedulers", "cluster")


def _dotted(node: ast.expr) -> Optional[str]:
    """Dotted path of an attribute chain, looking through subscripts
    (``self.rt.workers[0].alive`` → ``self.rt.workers.alive``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Subscript):
        return _dotted(node.value)
    return None


def _in_scoped_dir(path: str) -> bool:
    parts = os.path.normpath(path).split(os.sep)
    return any(p in _SCOPED_DIRS for p in parts[:-1])


@dataclass
class _Scope:
    """One unit the contract checks run over."""

    path: str
    name: str  # class or module name, for messages
    nodes: list[ast.stmt]
    task_ready: Optional[ast.FunctionDef] = None


def _collect_scopes(path: str, tree: ast.Module) -> list[_Scope]:
    scopes: list[_Scope] = []
    module_scoped = _in_scoped_dir(path)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            ready = next(
                (
                    s for s in node.body
                    if isinstance(s, ast.FunctionDef) and s.name == "task_ready"
                ),
                None,
            )
            if ready is not None or module_scoped:
                scopes.append(_Scope(path, node.name, node.body, ready))
        elif module_scoped:
            scopes.append(_Scope(path, os.path.basename(path), [node]))
    return scopes


# ----------------------------------------------------------------------
# SAN-S010 / SAN-S011 — trace mutation & worker pokes
# ----------------------------------------------------------------------
def _check_state_pokes(scope: _Scope) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for root in scope.nodes:
        for node in ast.walk(root):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for tgt in targets:
                    out.extend(_poke_target(scope, tgt, node.lineno))
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    out.extend(_poke_target(scope, tgt, node.lineno))
            elif isinstance(node, ast.Call):
                out.extend(_poke_call(scope, node))
    return out


def _poke_target(scope: _Scope, tgt: ast.expr, line: int) -> list[Diagnostic]:
    # unwrap a subscript store: trace.events[0] = ... / w.queue[0] = ...
    base = tgt.value if isinstance(tgt, ast.Subscript) else tgt
    dotted = _dotted(base)
    if dotted is None:
        return []
    parts = dotted.split(".")
    if "trace" in parts[:-1] or parts[-1] == "trace" and isinstance(
        tgt, ast.Subscript
    ):
        return [Diagnostic(
            code="SAN-S010",
            message=(
                f"{scope.name}: assignment to {dotted!r} mutates the "
                "runtime trace; the trace is append-only (use trace.add)"
            ),
            file=scope.path, line=line,
        )]
    if len(parts) >= 2 and parts[-1] in _WORKER_ATTRS and parts[-2] not in (
        "self",
    ):
        return [Diagnostic(
            code="SAN-S011",
            message=(
                f"{scope.name}: assignment to {dotted!r} pokes "
                "runtime-owned worker state; schedulers must observe "
                "workers and go through rt.dispatch"
            ),
            file=scope.path, line=line,
        )]
    return []


def _poke_call(scope: _Scope, call: ast.Call) -> list[Diagnostic]:
    if not isinstance(call.func, ast.Attribute):
        return []
    method = call.func.attr
    recv = _dotted(call.func.value)
    if recv is None:
        return []
    parts = recv.split(".")
    # trace.add(...) is the sanctioned append; anything else on the
    # trace object or its attributes (trace.events.clear()) rewrites it
    if "trace" in parts:
        direct = parts[-1] == "trace"
        if direct and method in _TRACE_ALLOWED:
            return []
        if method in _MUTATOR_METHODS:
            return [Diagnostic(
                code="SAN-S010",
                message=(
                    f"{scope.name}: call {recv}.{method}(...) mutates the "
                    "runtime trace; the trace is append-only (use "
                    "trace.add)"
                ),
                file=scope.path, line=call.lineno,
            )]
        return []
    if len(parts) >= 2 and parts[-1] in _WORKER_ATTRS \
            and parts[0] != "self" and method in _MUTATOR_METHODS:
        return [Diagnostic(
            code="SAN-S011",
            message=(
                f"{scope.name}: call {recv}.{method}(...) mutates "
                "runtime-owned worker state; schedulers must observe "
                "workers and go through rt.dispatch"
            ),
            file=scope.path, line=call.lineno,
        )]
    return []


# ----------------------------------------------------------------------
# SAN-S012 — task_ready must hand the task off on every path
# ----------------------------------------------------------------------
def _check_task_ready_paths(scope: _Scope) -> list[Diagnostic]:
    fn = scope.task_ready
    if fn is None:
        return []
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    # task_ready(self, t): the task is the first non-self parameter
    task_names = {n for n in names[1:2]}
    if not task_names:
        return []
    violations: list[int] = []
    falls, handled = _walk_block(fn.body, False, task_names, violations)
    if falls and not handled:
        violations.append(fn.body[-1].lineno if fn.body else fn.lineno)
    return [
        Diagnostic(
            code="SAN-S012",
            message=(
                f"{scope.name}.task_ready: a control-flow path returns "
                f"(line {line}) without dispatching, pooling, or "
                "delegating the ready task; the task is silently "
                "dropped and the run deadlocks at wait_all"
            ),
            file=scope.path, line=line,
        )
        for line in sorted(set(violations))
    ]


def _handles_task(stmt: ast.stmt, task_names: set[str]) -> bool:
    """Does this statement hand the task off somewhere?"""
    def is_task(e: ast.expr) -> bool:
        return isinstance(e, ast.Name) and e.id in task_names

    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            if any(is_task(a) for a in node.args) or any(
                is_task(k.value) for k in node.keywords
            ):
                return True
            if any(
                isinstance(a, ast.Starred) and is_task(a.value)
                for a in node.args
            ):
                return True
        elif isinstance(node, ast.Assign):
            if is_task(node.value) and any(
                isinstance(t, (ast.Subscript, ast.Attribute))
                for t in node.targets
            ):
                return True
    return False


def _walk_block(
    stmts: Sequence[ast.stmt],
    handled: bool,
    task_names: set[str],
    violations: list[int],
) -> tuple[bool, bool]:
    """Returns (falls_through, handled_at_fallthrough)."""
    compound = (ast.If, ast.For, ast.While, ast.Try, ast.With)
    for s in stmts:
        # compound statements are analysed per-branch below; judging
        # them whole would mark an `if` handled when only one arm is
        if not isinstance(s, compound) and _handles_task(s, task_names):
            handled = True
        # aliasing: x = t makes x a handle too
        if isinstance(s, ast.Assign) and isinstance(s.value, ast.Name) \
                and s.value.id in task_names:
            for tgt in s.targets:
                if isinstance(tgt, ast.Name):
                    task_names = task_names | {tgt.id}
        if isinstance(s, ast.Return):
            if not handled:
                violations.append(s.lineno)
            return False, handled
        if isinstance(s, ast.Raise):
            return False, handled  # loud failure: an acceptable path
        if isinstance(s, ast.If):
            body_falls, body_handled = _walk_block(
                s.body, handled, task_names, violations)
            else_falls, else_handled = _walk_block(
                s.orelse, handled, task_names, violations)
            if not body_falls and not else_falls:
                return False, handled
            if body_falls and else_falls:
                handled = body_handled and else_handled
            else:
                handled = body_handled if body_falls else else_handled
        elif isinstance(s, (ast.For, ast.While)):
            # a loop body that handles the task counts (schedulers
            # commonly dispatch inside a worker loop); zero-iteration
            # loops are accepted as a documented blind spot
            _falls, body_handled = _walk_block(
                s.body, handled, task_names, violations)
            _walk_block(s.orelse, handled, task_names, violations)
            handled = handled or body_handled
        elif isinstance(s, ast.Try):
            body_falls, body_handled = _walk_block(
                s.body, handled, task_names, violations)
            for h in s.handlers:
                _walk_block(h.body, handled, task_names, violations)
            if s.finalbody:
                fin_falls, fin_handled = _walk_block(
                    s.finalbody, body_handled, task_names, violations)
                if not fin_falls:
                    return False, fin_handled
                handled = fin_handled
            else:
                handled = body_handled if body_falls else handled
        elif isinstance(s, ast.With):
            falls, handled = _walk_block(
                s.body, handled, task_names, violations)
            if not falls:
                return False, handled
    return True, handled


# ----------------------------------------------------------------------
# SAN-S013 — run-local ids in labels and meta
# ----------------------------------------------------------------------
def _check_uid_labels(scope: _Scope) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for root in scope.nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            exprs: list[ast.expr] = [
                k.value for k in node.keywords if k.arg in ("label", "meta")
            ]
            # positional label/meta of trace.add(start, end, worker,
            # category, label, meta)
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "add":
                recv = _dotted(node.func.value)
                if recv is not None and recv.split(".")[-1] == "trace":
                    exprs.extend(node.args[4:6])
            for expr in exprs:
                out.extend(_uids_outside_local_map(scope, expr))
    return out


def _uids_outside_local_map(scope: _Scope, expr: ast.expr) -> list[Diagnostic]:
    # nodes protected by an enclosing `..._local_ids.get(...)` call
    protected: set[int] = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            recv = _dotted(node.func.value)
            if recv is not None and recv.split(".")[-1] == "_local_ids":
                for sub in ast.walk(node):
                    protected.add(id(sub))
    out = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "uid" \
                and id(node) not in protected:
            owner = _dotted(node.value) or "<expr>"
            out.append(Diagnostic(
                code="SAN-S013",
                message=(
                    f"{scope.name}: {owner}.uid used in an emitted "
                    "label/meta value; uids are process-global and break "
                    "run-to-run trace comparison — wrap with "
                    "self.rt._local_ids.get(uid, uid)"
                ),
                file=scope.path, line=node.lineno,
            ))
    return out


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def check_contract_files(files: Sequence[str]) -> list[Diagnostic]:
    """All SAN-S01x findings for the given Python files (no waiving)."""
    out: list[Diagnostic] = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
        except (OSError, SyntaxError):
            continue
        for scope in _collect_scopes(path, tree):
            out.extend(_check_state_pokes(scope))
            out.extend(_check_task_ready_paths(scope))
            out.extend(_check_uid_labels(scope))
    return out


def check_contract_paths(paths: Iterable[str]) -> list[Diagnostic]:
    """Contract findings for files/directories (no waiving)."""
    from repro.sanitizer.lint import _iter_py_files

    return check_contract_files(_iter_py_files(paths))
