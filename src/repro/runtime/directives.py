"""The OmpSs pragmas as Python decorators.

The paper's front end is the Mercurium compiler translating::

    #pragma omp target device(cuda) implements(matmul_tile) copy_deps
    #pragma omp task inout([BS*BS]C) input([BS*BS]A, [BS*BS]B)
    void matmul_tile_cublas(float *A, float *B, float *C, int BS) {...}

into a per-task version table.  Here the same program is written::

    @target(device="smp", copy_deps=True)
    @task(inputs=["A", "B"], inouts=["C"], work=tile_work)
    def matmul_tile(A, B, C):
        ...

    @target(device="cuda", implements=matmul_tile, copy_deps=True)
    @task(inputs=["A", "B"], inouts=["C"], work=tile_work)
    def matmul_tile_cublas(A, B, C):
        ...

Calling the decorated function inside an active
:class:`~repro.runtime.runtime.OmpSsRuntime` submits a task instance;
calling it with no runtime active simply runs the body (sequential
semantics, like compiling OmpSs code without the runtime).

Clause values are lists of parameter names (strings) or callables
mapping the bound arguments to a list of arrays/regions; ``work`` is an
optional callable producing the cost-model parameter dict consumed by
the simulated devices (e.g. ``{"n": 1024}`` for a gemm tile).

``@task`` alone registers an SMP-targeted main version; ``@target``
above it overrides device / implements / copy semantics by rebuilding
the registration, mirroring how the two pragmas combine in OmpSs.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.runtime import context
from repro.runtime.dataregion import AccessKind, DataAccess, DataRegion, region_of
from repro.runtime.task import TaskDefinition, TaskInstance, TaskVersion
from repro.sim.devices import DeviceKind

ClauseSpec = Union[Sequence[str], Callable[..., Iterable[Any]], None]

#: Global registry of task definitions, keyed by main-version name.
_REGISTRY: dict[str, TaskDefinition] = {}


def registered_tasks() -> dict[str, TaskDefinition]:
    """A snapshot of the global task registry."""
    return dict(_REGISTRY)


def clear_task_registry() -> None:
    """Drop all globally registered task definitions (test isolation)."""
    _REGISTRY.clear()


class _FastBound:
    """Duck-typed stand-in for :class:`inspect.BoundArguments`.

    The clause/work/priority evaluators only read ``.arguments``; for
    plain positional calls the mapping is built directly instead of
    going through ``Signature.bind`` (see ``TaskFunction._bind``).
    """

    __slots__ = ("arguments",)

    def __init__(self, arguments: dict) -> None:
        self.arguments = arguments


class TaskFunction:
    """A function annotated with ``@task`` (and optionally ``@target``).

    Behaves like the original callable outside a runtime; inside one,
    each call creates and submits a :class:`TaskInstance`.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        inputs: ClauseSpec = None,
        outputs: ClauseSpec = None,
        inouts: ClauseSpec = None,
        work: Optional[Callable[..., Mapping[str, float]]] = None,
        device: "str | DeviceKind | Sequence[str | DeviceKind]" = DeviceKind.SMP,
        implements: "TaskFunction | str | None" = None,
        copy_deps: bool = True,
        priority: "int | Callable[..., int]" = 0,
        name: Optional[str] = None,
        registry: Optional[dict[str, TaskDefinition]] = None,
    ) -> None:
        self.fn = fn
        self.__name__ = name or fn.__name__
        self.__doc__ = fn.__doc__
        self._signature = inspect.signature(fn)
        # fast-path binder: when every parameter is plain
        # positional-or-keyword, an exact-arity positional call binds to
        # dict(zip(names, args)) — inspect's bind machinery is
        # submit-path-hot and an order of magnitude slower
        params = self._signature.parameters
        self._fast_params: Optional[tuple[str, ...]] = (
            tuple(params)
            if all(
                p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                for p in params.values()
            )
            else None
        )
        self._inputs = inputs
        self._outputs = outputs
        self._inouts = inouts
        self._work = work
        self._priority = priority
        self._registry = _REGISTRY if registry is None else registry
        # clause plan: (argument position, kind) per clause entry, in
        # the order _accesses_of builds them, or None when a call must
        # bind (callable clause, a name that is no parameter, a
        # signature without the fast binder); an exact-arity positional
        # call then builds its accesses straight from ``args``
        clauses = self._literal_clauses(inputs, outputs, inouts)
        self._plan = self._compile_plan(clauses)
        self._arity = len(params)
        # whether work/priority need the call's arguments mapping
        self._evaluates_args = work is not None or callable(priority)

        kinds = self._parse_device(device)
        main_name, is_main = self._resolve_implements(implements)

        self.version = TaskVersion(
            name=self.__name__,
            task_name=main_name,
            device_kinds=kinds,
            kernel=self.__name__,
            fn=fn,
            is_main=is_main,
            copy_deps=copy_deps,
            clauses=clauses,
        )
        definition = self._registry.get(main_name)
        if definition is None:
            if not is_main:
                raise ValueError(
                    f"{self.__name__!r} declares implements({main_name!r}) but no task "
                    f"named {main_name!r} is registered"
                )
            definition = TaskDefinition(main_name)
            self._registry[main_name] = definition
        definition.add_version(self.version)
        self.definition = definition

    # ------------------------------------------------------------------
    @staticmethod
    def _literal_clauses(
        inputs: ClauseSpec, outputs: ClauseSpec, inouts: ClauseSpec
    ) -> "Optional[dict[str, tuple[str, ...]]]":
        """Clause name lists when every present clause is literal.

        Callable clause specs (lambdas computing region lists) are not
        statically analysable, so the whole declaration opts out of the
        static effect pre-flight by returning ``None``.
        """
        out: dict[str, tuple[str, ...]] = {}
        for kind, spec in (("inputs", inputs), ("outputs", outputs),
                           ("inouts", inouts)):
            if spec is None:
                out[kind] = ()
            elif callable(spec):
                return None
            else:
                out[kind] = tuple(str(p) for p in spec)
        return out

    def _compile_plan(
        self, clauses: "Optional[dict[str, tuple[str, ...]]]"
    ) -> "Optional[tuple[tuple[int, AccessKind], ...]]":
        names = self._fast_params
        if clauses is None or names is None:
            return None
        plan: list[tuple[int, AccessKind]] = []
        for clause, kind in (
            ("inputs", AccessKind.INPUT),
            ("outputs", AccessKind.OUTPUT),
            ("inouts", AccessKind.INOUT),
        ):
            for pname in clauses[clause]:
                if pname not in names:
                    return None  # the bind path raises the TypeError
                plan.append((names.index(pname), kind))
        return tuple(plan)

    @staticmethod
    def _parse_device(
        device: "str | DeviceKind | Sequence[str | DeviceKind]",
    ) -> tuple[DeviceKind, ...]:
        if isinstance(device, (str, DeviceKind)):
            device = [device]
        kinds = tuple(DeviceKind.parse(d) for d in device)
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate device kinds in device clause")
        return kinds

    def _resolve_implements(
        self, implements: "TaskFunction | str | None"
    ) -> tuple[str, bool]:
        if implements is None:
            return self.__name__, True
        if isinstance(implements, TaskFunction):
            # implements must reference the *main* version (paper §IV-A):
            # "it is not possible to create an implementation of another
            # implementation".
            if not implements.version.is_main:
                raise ValueError(
                    f"{self.__name__!r}: implements({implements.__name__!r}) references "
                    "a version that is itself an implementation; implements must name "
                    "the main version"
                )
            return implements.definition.name, False
        if isinstance(implements, str):
            return implements, False
        raise TypeError("implements must be a TaskFunction, a task name, or None")

    def _unregister(self) -> None:
        """Undo this function's registration (used by @target's rebuild)."""
        definition = self._registry.get(self.definition.name)
        if definition is None:
            return
        definition._versions = [v for v in definition._versions if v.name != self.version.name]
        if not definition._versions:
            del self._registry[self.definition.name]

    # ------------------------------------------------------------------
    def _clause_regions(self, spec: ClauseSpec, bound: inspect.BoundArguments) -> list:
        if spec is None:
            return []
        if callable(spec):
            objs = spec(**bound.arguments)
        else:
            objs = []
            for pname in spec:
                if pname not in bound.arguments:
                    raise TypeError(
                        f"task {self.__name__!r}: clause names parameter {pname!r} "
                        f"which is not an argument of the function"
                    )
                objs.append(bound.arguments[pname])
        return [region_of(o) for o in objs]

    def _bind(self, args: tuple, kwargs: dict) -> "inspect.BoundArguments | _FastBound":
        names = self._fast_params
        if names is not None and not kwargs and len(args) == len(names):
            # exact positional arity: same arguments mapping (and order)
            # that signature.bind + apply_defaults would produce
            return _FastBound(dict(zip(names, args)))
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    def build_accesses(self, *args: Any, **kwargs: Any) -> list[DataAccess]:
        """Capture the dependence environment of one call (no submission)."""
        return self._accesses_of(self._bind(args, kwargs))

    def _accesses_of(self, bound: inspect.BoundArguments) -> list[DataAccess]:
        accesses: list[DataAccess] = []
        for spec, kind in (
            (self._inputs, AccessKind.INPUT),
            (self._outputs, AccessKind.OUTPUT),
            (self._inouts, AccessKind.INOUT),
        ):
            for reg in self._clause_regions(spec, bound):
                accesses.append(DataAccess(reg, kind))
        self._check_clause_consistency(accesses)
        return accesses

    def _planned_accesses(
        self, plan: "tuple[tuple[int, AccessKind], ...]", args: tuple
    ) -> list[DataAccess]:
        """:meth:`_accesses_of` for an exact-arity positional call, from
        the clause plan."""
        accesses = []
        for i, kind in plan:
            obj = args[i]
            accesses.append(
                DataAccess(obj if type(obj) is DataRegion else region_of(obj), kind)
            )
        self._check_clause_consistency(accesses)
        return accesses

    @staticmethod
    def _check_clause_consistency(accesses: list[DataAccess]) -> None:
        seen: dict = {}
        for acc in accesses:
            prev = seen.get(acc.region.rid)
            if prev is not None and prev is not acc.kind:
                raise ValueError(
                    f"region {acc.region.label!r} named by two different clauses "
                    f"({prev.value} and {acc.kind.value}); use inout instead"
                )
            seen[acc.region.rid] = acc.kind

    def work_params(self, *args: Any, **kwargs: Any) -> dict[str, float]:
        if self._work is None:
            return {}
        return self._work_params_of(self._bind(args, kwargs))

    def _work_params_of(self, bound: inspect.BoundArguments) -> dict[str, float]:
        if self._work is None:
            return {}
        return dict(self._work(**bound.arguments))

    def priority_of(self, *args: Any, **kwargs: Any) -> int:
        """Evaluate the ``priority`` clause for one call."""
        if callable(self._priority):
            return int(self._priority(**self._bind(args, kwargs).arguments))
        return int(self._priority)

    def _priority_of_bound(self, bound: inspect.BoundArguments) -> int:
        if callable(self._priority):
            return int(self._priority(**bound.arguments))
        return int(self._priority)

    # ------------------------------------------------------------------
    def __call__(self, *args: Any, **kwargs: Any) -> Optional[TaskInstance]:
        rt = context.current_runtime()
        if rt is None:
            return self.fn(*args, **kwargs)
        plan = self._plan
        if plan is not None and len(args) == self._arity and not kwargs:
            accesses = self._planned_accesses(plan, args)
            arguments = (
                dict(zip(self._fast_params or (), args)) if self._evaluates_args else {}
            )
        else:
            # bind the call signature once and share it across the
            # clause, work and priority evaluations
            bound = self._bind(args, kwargs)
            accesses = self._accesses_of(bound)
            arguments = bound.arguments
        work = self._work
        priority = self._priority
        instance = TaskInstance(
            self.definition,
            accesses,
            params=work(**arguments) if work is not None else None,
            args=args,
            kwargs=kwargs,
            priority=priority(**arguments) if callable(priority) else priority,
        )
        rt.submit(instance)
        return instance

    def __repr__(self) -> str:
        kinds = ",".join(k.value for k in self.version.device_kinds)
        main = "" if self.version.is_main else f" implements {self.definition.name!r}"
        return f"<TaskFunction {self.__name__!r} device=[{kinds}]{main}>"


def task(
    fn: Optional[Callable[..., Any]] = None,
    *,
    inputs: ClauseSpec = None,
    outputs: ClauseSpec = None,
    inouts: ClauseSpec = None,
    work: Optional[Callable[..., Mapping[str, float]]] = None,
    device: "str | DeviceKind | Sequence[str | DeviceKind]" = DeviceKind.SMP,
    implements: "TaskFunction | str | None" = None,
    copy_deps: bool = True,
    priority: "int | Callable[..., int]" = 0,
    name: Optional[str] = None,
    registry: Optional[dict[str, TaskDefinition]] = None,
) -> Any:
    """``#pragma omp task`` — declare a function as a task.

    ``inputs`` / ``outputs`` / ``inouts`` mirror the StarSs dependence
    clauses.  ``device``, ``implements`` and ``copy_deps`` may be given
    here directly or via a wrapping :func:`target` decorator.
    ``registry`` selects a private task registry (applications that
    build their task set per run use one to stay isolated).
    """

    def wrap(f: Callable[..., Any]) -> TaskFunction:
        return TaskFunction(
            f,
            inputs=inputs,
            outputs=outputs,
            inouts=inouts,
            work=work,
            device=device,
            implements=implements,
            copy_deps=copy_deps,
            priority=priority,
            name=name,
            registry=registry,
        )

    return wrap(fn) if fn is not None else wrap


class _TargetSpec:
    """The ``target`` clauses, applied above an ``@task`` declaration.

    Rebuilds the inner :class:`TaskFunction`'s registration with the
    device / implements / copy_deps values from this clause — the same
    merge Mercurium performs when both pragmas annotate one function.
    """

    def __init__(
        self,
        device: "str | DeviceKind | Sequence[str | DeviceKind]",
        implements: "TaskFunction | str | None",
        copy_deps: bool,
    ) -> None:
        self.device = device
        self.implements = implements
        self.copy_deps = copy_deps

    def __call__(self, inner: Any) -> TaskFunction:
        if not isinstance(inner, TaskFunction):
            raise TypeError(
                "@target must wrap an @task-annotated function:\n"
                "    @target(device=...)\n    @task(...)\n    def f(...): ..."
            )
        inner._unregister()
        return TaskFunction(
            inner.fn,
            inputs=inner._inputs,
            outputs=inner._outputs,
            inouts=inner._inouts,
            work=inner._work,
            device=self.device,
            implements=self.implements,
            copy_deps=self.copy_deps,
            priority=inner._priority,
            name=inner.__name__,
            registry=inner._registry,
        )


def target(
    *,
    device: "str | DeviceKind | Sequence[str | DeviceKind]" = DeviceKind.SMP,
    implements: "TaskFunction | str | None" = None,
    copy_deps: bool = True,
) -> _TargetSpec:
    """``#pragma omp target`` — set device / implements / copy semantics.

    Use above ``@task``::

        @target(device="cuda", implements=matmul_tile)
        @task(inputs=["A", "B"], inouts=["C"])
        def matmul_tile_cublas(A, B, C): ...
    """
    return _TargetSpec(device, implements, copy_deps)
