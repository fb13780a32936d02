"""Routing batch-style ``Application.run`` calls through the service.

``reproduce.py --serve`` should not re-implement every experiment: the
figure drivers keep calling :meth:`Application.run`, and while a
:func:`route_via_service` context is active that call is *routed* — the
app, machine and scheduler are described as a
:class:`~repro.service.spec.SubmissionSpec`, submitted to the service,
and the response deserialized back into an :class:`AppResult` the driver
cannot tell apart from a local run.

Routing is best-effort by construction: anything the wire format cannot
express (live scheduler instances, fault plans, machines built outside
the named factories, apps with real arithmetic or non-default dtypes)
falls back to the local path and is counted, never mis-serialized.
Routed submissions use ``share_scheduler=False`` so the service runs a
fresh scheduler per cold run — byte-identical to the batch path, which
is exactly what the equality tests assert.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional

from repro.service.client import ServiceError
from repro.service.spec import _CONFIG_FIELDS, SpecError, SubmissionSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.base import Application, AppResult
    from repro.sim.topology import Machine

log = logging.getLogger(__name__)

#: Failure codes that mean "the service is unreachable", not "the
#: submission is bad" — routing falls back to a local run on these
#: (best-effort, like every other routing fallback) instead of failing
#: an experiment because a service died under it.
_CONNECTION_CODES = frozenset(
    {
        "connection-closed",
        "connection-reset",
        "connection-refused",
        "not-connected",
        "timeout",
        "bad-frame",
        "shutting-down",
    }
)


class ServiceRouter:
    """Turns ``Application.run`` calls into service submissions."""

    def __init__(self, client: Any, *, tenant: Optional[str] = None) -> None:
        self.client = client
        self.tenant = tenant
        self.routed = 0
        self.cache_hits = 0
        self.fallbacks = 0
        self.connection_fallbacks = 0

    # ------------------------------------------------------------------
    def try_submit(
        self,
        app: "Application",
        machine: "Machine",
        scheduler: Any,
        *,
        scheduler_options: Optional[Mapping[str, Any]] = None,
        config: Optional[Any] = None,
        fault_plan: Optional[Any] = None,
        recovery: Optional[Any] = None,
    ) -> Optional["AppResult"]:
        """The routed :class:`AppResult`, or None to run locally."""
        from repro.apps.base import AppResult

        spec = self._spec_for(
            app,
            machine,
            scheduler,
            scheduler_options=scheduler_options,
            config=config,
            fault_plan=fault_plan,
            recovery=recovery,
        )
        if spec is None:
            self.fallbacks += 1
            return None
        try:
            outcome = self.client.submit(spec, tenant=self.tenant)
        except (OSError, ServiceError) as exc:
            code = getattr(exc, "code", None)
            if isinstance(exc, ServiceError) and code not in _CONNECTION_CODES:
                raise  # the submission itself is bad; a local run won't fix it
            log.warning(
                "service unreachable (%s); running %s locally",
                code or type(exc).__name__, app.name,
            )
            self.fallbacks += 1
            self.connection_fallbacks += 1
            return None
        self.routed += 1
        if outcome.cached:
            self.cache_hits += 1
        return AppResult(
            app=app.name,
            variant=app.variant,
            run=outcome.result(),
            total_flops=app.total_flops(),
        )

    # ------------------------------------------------------------------
    def _spec_for(
        self,
        app: "Application",
        machine: "Machine",
        scheduler: Any,
        *,
        scheduler_options: Optional[Mapping[str, Any]],
        config: Optional[Any],
        fault_plan: Optional[Any],
        recovery: Optional[Any],
    ) -> Optional[SubmissionSpec]:
        if fault_plan is not None or recovery is not None:
            return None  # chaos plans hold live callbacks; not wire-expressible
        if not isinstance(scheduler, str):
            return None  # a live scheduler instance carries state we can't ship
        provenance = getattr(machine, "provenance", None)
        if not provenance:
            return None  # hand-built machine: no factory recipe to send
        app_args = app.submission_args()
        if app_args is None:
            return None
        config_dict = _config_to_dict(config)
        if config is not None and config_dict is None:
            return None  # config diverges outside the wire-expressible fields
        try:
            return SubmissionSpec.from_dict(
                {
                    "app": app.name,
                    "app_args": app_args,
                    "machine": provenance["factory"],
                    "machine_args": dict(provenance["args"]),
                    "scheduler": scheduler,
                    "scheduler_options": dict(scheduler_options or {}),
                    "seed": int(provenance["seed"]),
                    "config": config_dict,
                    "share_scheduler": False,
                }
            )
        except SpecError:
            return None


def _config_to_dict(config: Optional[Any]) -> Optional[dict]:
    """A RuntimeConfig as spec fields, or None if not expressible.

    Only the fields that differ from the defaults are sent, so a default
    ``RuntimeConfig()`` and no config share one cache key (``"{}"``).
    """
    if config is None:
        return None
    from repro.runtime.runtime import RuntimeConfig

    defaults = RuntimeConfig()
    diff = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(RuntimeConfig)
        if getattr(config, f.name) != getattr(defaults, f.name)
    }
    if set(diff) - _CONFIG_FIELDS:
        return None
    try:
        json.dumps(diff)
    except (TypeError, ValueError):
        return None
    return diff


# ----------------------------------------------------------------------
# The active-router slot Application.run consults
# ----------------------------------------------------------------------
_active: Optional[ServiceRouter] = None


def active_router() -> Optional[ServiceRouter]:
    return _active


@contextlib.contextmanager
def route_via_service(
    client: Any, *, tenant: Optional[str] = None
) -> Iterator[ServiceRouter]:
    """While active, ``Application.run`` submits to ``client``'s service."""
    global _active
    previous = _active
    _active = router = ServiceRouter(client, tenant=tenant)
    try:
        yield router
    finally:
        _active = previous


__all__ = ["ServiceRouter", "active_router", "route_via_service"]
