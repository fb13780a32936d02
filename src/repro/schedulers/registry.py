"""Scheduler plug-in registry.

Nanos++ loads scheduling policies as plug-ins selected by the
``NX_SCHEDULE`` environment variable, so the same binary can run under
different schedulers without recompiling (§III).  This registry is the
equivalent: policies register under one or more names, and
:func:`create_scheduler` / :func:`scheduler_from_env` instantiate them.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.schedulers.base import Scheduler

ENV_VAR = "REPRO_SCHEDULER"

_FACTORIES: dict[str, Callable[..., Scheduler]] = {}

#: factory -> (default options, list collecting created instances);
#: installed by the scheduler_defaults() context manager.
_DEFAULTS: dict[Callable[..., Scheduler], tuple[dict[str, Any], list[Scheduler]]] = {}


def register_scheduler(*names: str) -> Callable[[type], type]:
    """Class decorator: register a Scheduler subclass under ``names``."""

    def wrap(cls: type) -> type:
        if not issubclass(cls, Scheduler):
            raise TypeError(f"{cls.__name__} is not a Scheduler")
        for n in names:
            key = n.lower()
            if key in _FACTORIES:
                raise ValueError(f"scheduler name {key!r} already registered")
            _FACTORIES[key] = cls
        return cls

    return wrap


def available_schedulers() -> list[str]:
    _ensure_builtin()
    return sorted(_FACTORIES)


def canonical_schedulers() -> list[str]:
    """One name per registered policy class (aliases removed).

    The conformance suite iterates this so every distinct policy is
    exercised exactly once; the first-registered name of each class is
    the canonical one.
    """
    _ensure_builtin()
    seen: dict[Callable[..., Scheduler], str] = {}
    for name, factory in _FACTORIES.items():
        seen.setdefault(factory, name)
    return sorted(seen.values())


def create_scheduler(name: str, **options: Any) -> Scheduler:
    """Instantiate a registered policy by name (case-insensitive)."""
    _ensure_builtin()
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    entry = _DEFAULTS.get(factory)
    if entry is not None:
        defaults, created = entry
        instance = factory(**{**defaults, **options})
        created.append(instance)
        return instance
    return factory(**options)


@contextmanager
def scheduler_defaults(name: str, **options: Any) -> Iterator[list[Scheduler]]:
    """Merge ``options`` into every :func:`create_scheduler` call for the
    policy registered under ``name`` (any of its aliases) while the
    context is active.  Explicit per-call options win over the defaults.

    Yields the list of instances the context created (appended live), so
    callers can collect state from the schedulers of runs they did not
    construct themselves — e.g. ``repro.reproduce`` absorbing learned
    profile tables into a store after a figure sweep::

        with scheduler_defaults("versioning", hints=snapshot) as created:
            run_figure()
        tables = [s.table for s in created]
    """
    _ensure_builtin()
    try:
        factory = _FACTORIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; available: {', '.join(available_schedulers())}"
        ) from None
    created: list[Scheduler] = []
    previous = _DEFAULTS.get(factory)
    _DEFAULTS[factory] = (dict(options), created)
    try:
        yield created
    finally:
        if previous is None:
            _DEFAULTS.pop(factory, None)
        else:
            _DEFAULTS[factory] = previous


def scheduler_from_env(default: str = "dep", **options: Any) -> Scheduler:
    """Build the scheduler selected by ``$REPRO_SCHEDULER`` (or ``default``)."""
    return create_scheduler(os.environ.get(ENV_VAR, default), **options)


#: set once every built-in policy is registered
_BOOTSTRAPPED = False
_bootstrapping = False
#: runs on other threads wait for the registration in progress instead
#: of looking up a name it has not registered yet
_BOOTSTRAP_LOCK = threading.RLock()


def _ensure_builtin() -> None:
    """Register built-in policies lazily (avoids import cycles)."""
    global _BOOTSTRAPPED, _bootstrapping
    if _BOOTSTRAPPED:
        return
    with _BOOTSTRAP_LOCK:
        if _BOOTSTRAPPED or _bootstrapping:  # done, or re-entered by an import below
            return
        _bootstrapping = True
        _register_builtin()
        _BOOTSTRAPPED = True


def _register_builtin() -> None:
    from repro.schedulers.affinity import AffinityScheduler
    from repro.schedulers.breadth_first import BreadthFirstScheduler
    from repro.schedulers.dependency_aware import DependencyAwareScheduler
    from repro.core.versioning import VersioningScheduler
    from repro.core.locality import LocalityVersioningScheduler
    from repro.cluster.sharded import ShardedClusterScheduler

    for names, cls in (
        (("bf", "breadth-first"), BreadthFirstScheduler),
        (("dep", "dependency-aware"), DependencyAwareScheduler),
        (("affinity", "aff"), AffinityScheduler),
        (("versioning", "ver"), VersioningScheduler),
        (("versioning-locality", "ver-loc"), LocalityVersioningScheduler),
        (("cluster", "sharded"), ShardedClusterScheduler),
    ):
        for n in names:
            if n not in _FACTORIES:
                _FACTORIES[n] = cls
