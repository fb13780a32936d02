"""Submission specifications — the unit of work clients send the service.

A :class:`SubmissionSpec` is a declarative, JSON-serializable recipe for
one run: which application graph to build (by factory name + arguments),
which simulated machine to build it on, which scheduling policy, and the
noise seed.  The service rebuilds the app and machine from the spec,
fingerprints the resulting graph and machine, and keys its result cache
on ``(graph fingerprint, machine fingerprint, scheduler, seed, runtime
config)``.

Specs deliberately name *factories*, not pickled objects: everything on
the wire is data, the server decides what code runs, and two clients
sending the same spec hash to the same cache entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.sim.topology import Machine, MachineSpec, cluster_machine, minotauro_node


class SpecError(ValueError):
    """The submission spec is malformed or names unknown factories."""


def _build_minotauro(seed: int, **args: Any) -> Machine:
    return minotauro_node(spec=MachineSpec(seed=seed, **args))


def _build_cluster(seed: int, **args: Any) -> Machine:
    return cluster_machine(seed=seed, **args)


#: Machine factories a spec may name.  Each takes the spec's seed plus
#: the spec's machine args and returns a :class:`Machine`.
MACHINE_FACTORIES: dict[str, Callable[..., Machine]] = {
    "minotauro": _build_minotauro,
    "cluster": _build_cluster,
}


def _app_factories() -> dict[str, Callable[..., Any]]:
    # imported lazily: repro.apps pulls in NumPy kernels the service
    # front-end does not need until a spec is actually built
    from repro.apps.cholesky import CholeskyApp
    from repro.apps.matmul import MatmulApp
    from repro.apps.pbpi import PBPIApp

    return {"matmul": MatmulApp, "cholesky": CholeskyApp, "pbpi": PBPIApp}


#: RuntimeConfig fields a spec may set (all JSON scalars).
_CONFIG_FIELDS = {
    "overlap_transfers",
    "prefetch",
    "prefetch_window",
    "max_in_flight_tasks",
    "flush_on_wait",
    "execute_bodies",
    "alias_policy",
    "progress_horizon",
    "progress_stall_limit",
}


@dataclass(frozen=True)
class SubmissionSpec:
    """One run, described as data.

    ``seed`` is the *only* noise seed of the submission — machine args
    must not carry their own, so the cache key's seed term is
    unambiguous.  ``share_scheduler`` opts into the service's live
    scheduler pool: submissions with the same (scheduler, options,
    machine fingerprint) reuse one scheduler instance, so versioning
    profile tables keep learning across submissions from all tenants.
    With ``share_scheduler=False`` every cold run starts a fresh
    scheduler — byte-identical to a local batch run of the same spec.
    """

    app: str
    app_args: Mapping[str, Any] = field(default_factory=dict)
    machine: str = "minotauro"
    machine_args: Mapping[str, Any] = field(default_factory=dict)
    scheduler: str = "versioning"
    scheduler_options: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    config: Optional[Mapping[str, Any]] = None
    share_scheduler: bool = True
    #: Wall-clock budget in seconds from admission to completion; the
    #: service fails the submission with a typed ``deadline-exceeded``
    #: once it passes — while queued and cooperatively mid-simulation.
    #: Deliberately *not* part of the cache key: the deadline bounds how
    #: long the client waits, it does not change what the run computes.
    deadline_s: Optional[float] = None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "app": self.app,
            "app_args": dict(self.app_args),
            "machine": self.machine,
            "machine_args": dict(self.machine_args),
            "scheduler": self.scheduler,
            "scheduler_options": dict(self.scheduler_options),
            "seed": self.seed,
            "share_scheduler": self.share_scheduler,
        }
        if self.config is not None:
            out["config"] = dict(self.config)
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SubmissionSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(f"spec must be an object, got {type(payload).__name__}")
        unknown = set(payload) - {
            "app", "app_args", "machine", "machine_args", "scheduler",
            "scheduler_options", "seed", "config", "share_scheduler",
            "deadline_s",
        }
        if unknown:
            raise SpecError(f"unknown spec field(s): {', '.join(sorted(unknown))}")
        if "app" not in payload:
            raise SpecError("spec is missing the 'app' field")
        spec = cls(
            app=str(payload["app"]),
            app_args=dict(payload.get("app_args", {})),
            machine=str(payload.get("machine", "minotauro")),
            machine_args=dict(payload.get("machine_args", {})),
            scheduler=str(payload.get("scheduler", "versioning")),
            scheduler_options=dict(payload.get("scheduler_options", {})),
            seed=int(payload.get("seed", 0)),
            config=(
                dict(payload["config"]) if payload.get("config") is not None else None
            ),
            share_scheduler=bool(payload.get("share_scheduler", True)),
            deadline_s=(
                float(payload["deadline_s"])
                if payload.get("deadline_s") is not None
                else None
            ),
        )
        spec.validate()
        return spec

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cheap structural validation (no app/machine construction)."""
        if self.app not in _app_factories():
            raise SpecError(
                f"unknown app {self.app!r}; known: {', '.join(sorted(_app_factories()))}"
            )
        if self.machine not in MACHINE_FACTORIES:
            raise SpecError(
                f"unknown machine factory {self.machine!r}; "
                f"known: {', '.join(sorted(MACHINE_FACTORIES))}"
            )
        if "seed" in self.machine_args:
            raise SpecError(
                "machine_args must not carry 'seed'; use the spec's top-level seed"
            )
        if self.app_args.get("real"):
            raise SpecError(
                "real-arithmetic apps are not serviceable: their numerical "
                "outputs live in the submitting process"
            )
        if self.config is not None:
            bad = set(self.config) - _CONFIG_FIELDS
            if bad:
                raise SpecError(f"unknown config field(s): {', '.join(sorted(bad))}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise SpecError("deadline_s must be positive (or omitted)")
        try:
            json.dumps(self.to_dict())
        except (TypeError, ValueError) as exc:
            raise SpecError(f"spec is not JSON-serializable: {exc}") from exc

    # ------------------------------------------------------------------
    # Server-side builders
    # ------------------------------------------------------------------
    def build_app(self) -> Any:
        """A fresh application instance (masters may consume state)."""
        factory = _app_factories()[self.app]
        try:
            return factory(**self.app_args)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad app_args for {self.app!r}: {exc}") from exc

    def build_machine(self) -> Machine:
        factory = MACHINE_FACTORIES[self.machine]
        try:
            return factory(self.seed, **self.machine_args)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad machine_args for {self.machine!r}: {exc}") from exc

    def build_config(self):
        from repro.runtime.runtime import RuntimeConfig

        if self.config is None:
            return None
        try:
            return RuntimeConfig(**dict(self.config))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad runtime config: {exc}") from exc

    # ------------------------------------------------------------------
    def scheduler_key(self) -> str:
        """Canonical scheduler term of the cache key.

        Covers the policy name, its options, and whether the run drew
        from the shared (history-dependent) scheduler pool — a shared
        run and a fresh-scheduler run of the same spec are different
        experiments and must not collide in the cache.
        """
        return json.dumps(
            {
                "scheduler": self.scheduler,
                "options": dict(self.scheduler_options),
                "shared": self.share_scheduler,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def config_key(self) -> str:
        """Canonical runtime-config term of the cache key.

        Config fields (prefetch, overlap_transfers, ...) change
        simulation results, so two submissions differing only in config
        must not collide.  ``None`` and ``{}`` both canonicalize to
        ``"{}"``: each builds a default :class:`RuntimeConfig`, so they
        are the same experiment.
        """
        return json.dumps(
            dict(self.config or {}), sort_keys=True, separators=(",", ":")
        )


__all__ = ["MACHINE_FACTORIES", "SpecError", "SubmissionSpec"]
