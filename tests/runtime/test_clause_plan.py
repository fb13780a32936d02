"""The compiled clause plan of ``@task`` against the bind path.

An exact-arity positional call builds its accesses from the plan
(argument position, kind) compiled at declaration; every other call
binds the signature.  Both must submit the same task.
"""

import numpy as np
import pytest

from repro.runtime import context
from repro.runtime.dataregion import AccessKind, DataRegion
from repro.runtime.directives import task
from repro.runtime.task import TaskInstance


class _Recorder:
    """Stands in for the runtime: keeps every submitted instance."""

    def __init__(self) -> None:
        self.submitted: list[TaskInstance] = []

    def submit(self, t: TaskInstance) -> None:
        self.submitted.append(t)


def _submit(f, *args, **kwargs) -> TaskInstance:
    """Call ``f`` inside a recording runtime; the submitted instance."""
    rec = _Recorder()
    context.push_runtime(rec)  # type: ignore[arg-type]
    try:
        f(*args, **kwargs)
    finally:
        context.pop_runtime(rec)  # type: ignore[arg-type]
    (t,) = rec.submitted
    return t


def _bound(f, *args, **kwargs) -> TaskInstance:
    """The instance the bind path builds for the same call."""
    bound = f._bind(args, kwargs)
    return TaskInstance(
        f.definition,
        f._accesses_of(bound),
        params=f._work_params_of(bound),
        priority=f._priority_of_bound(bound),
    )


def _facts(t: TaskInstance):
    return (
        [(a.region.rid, a.kind) for a in t.accesses],
        t.data_bytes,
        t.params,
        t.priority,
    )


@pytest.fixture
def gemm(registry):
    @task(inputs=["A", "B"], inouts=["C"], work=lambda A, B, C: {"n": A.nbytes},
          priority=lambda A, B, C: 2 if C.nbytes > 4 else 1, registry=registry)
    def gemm(A, B, C):
        pass

    return gemm


class TestPlanMatchesBind:
    def test_plan_compiled_for_literal_clauses(self, gemm):
        assert gemm._plan is not None and len(gemm._plan) == 3

    def test_exact_arity_positional_call(self, gemm):
        a, b, c = DataRegion("pa", 8), DataRegion("pb", 8), DataRegion("pc", 16)
        t = _submit(gemm, a, b, c)
        assert _facts(t) == _facts(_bound(gemm, a, b, c))
        assert _facts(t) == (
            [(a.rid, AccessKind.INPUT), (b.rid, AccessKind.INPUT),
             (c.rid, AccessKind.INOUT)],
            32, {"n": 8}, 2,
        )
        assert t.args == (a, b, c) and t.kwargs == {}

    def test_array_arguments(self, gemm):
        a, b, c = np.ones(2), np.ones(2), np.zeros(4)
        t = _submit(gemm, a, b, c)
        assert _facts(t) == _facts(_bound(gemm, a, b, c))

    def test_keyword_call(self, gemm):
        a, b, c = DataRegion("ka", 8), DataRegion("kb", 8), DataRegion("kc", 4)
        t = _submit(gemm, a, b, C=c)
        assert _facts(t) == _facts(_bound(gemm, a, b, C=c))
        assert _facts(t) == _facts(_submit(gemm, a, b, c))

    def test_call_relying_on_defaults(self, registry):
        @task(inputs=["a"], work=lambda a, n=3: {"n": n}, registry=registry)
        def f(a, n=3):
            pass

        r = DataRegion("da", 5)
        t = _submit(f, r)
        assert _facts(t) == _facts(_bound(f, r))
        assert t.params == {"n": 3}
        assert _facts(_submit(f, r, 4)) == _facts(_bound(f, r, 4))

    def test_callable_clause_spec_binds(self, registry):
        @task(inputs=lambda xs, y: list(xs), outputs=["y"], registry=registry)
        def f(xs, y):
            pass

        assert f._plan is None
        r1, r2, ry = DataRegion("c1", 1), DataRegion("c2", 2), DataRegion("cy", 4)
        t = _submit(f, (r1, r2), ry)
        assert _facts(t) == _facts(_bound(f, (r1, r2), ry))
        assert t.data_bytes == 7

    def test_same_region_twice_counts_once(self, gemm):
        a, c = DataRegion("sa", 8), DataRegion("sc", 16)
        t = _submit(gemm, a, a, c)
        assert _facts(t) == _facts(_bound(gemm, a, a, c))
        assert t.data_bytes == 24


class TestPlanErrors:
    def test_missing_parameter_raises_at_call_time(self, registry):
        @task(inputs=["nope"], registry=registry)
        def f(a):
            pass

        with pytest.raises(TypeError, match="not an argument"):
            _submit(f, DataRegion("m", 1))

    def test_two_kinds_on_one_region_raise(self, registry):
        @task(inputs=["a"], outputs=["b"], registry=registry)
        def f(a, b):
            pass

        assert f._plan is not None
        r = DataRegion("same", 1)
        with pytest.raises(ValueError, match="use inout"):
            _submit(f, r, r)
        with pytest.raises(ValueError, match="use inout"):
            _submit(f, r, b=r)

    def test_wrong_arity_raises_like_a_call(self, gemm):
        with pytest.raises(TypeError):
            _submit(gemm, DataRegion("w", 1))
