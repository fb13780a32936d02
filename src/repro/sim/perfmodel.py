"""Kernel cost models for simulated devices.

The paper's scheduler learns task durations from observation; it never
sees these models.  The models exist only so that the simulated machine
produces durations with the same *structure* as the MinoTauro node the
paper measured: a GPU dgemm on a 1024x1024 double tile is ~60x faster
than single-core CBLAS, PCIe moves ~6 GB/s, and so on.

A cost model maps ``(data_bytes, params)`` to a duration in seconds,
where ``params`` is the task instance's free-form work description
(e.g. ``{"n": 1024, "dtype_bytes": 8}``).  Models are deliberately tiny
and composable; calibrated constants live in :mod:`repro.sim.topology`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

Params = Mapping[str, float]

#: Noise normals a :class:`PerfModel` draws per generator call.  NumPy's
#: ``Generator.standard_normal(n)`` yields the same values as ``n``
#: scalar draws, so blocks change no duration; a scalar draw per task
#: was a NumPy call per execution.
NOISE_BLOCK = 32


class KernelCostModel:
    """Base class: maps a work description to a duration in seconds."""

    def duration(self, data_bytes: int, params: Params) -> float:
        raise NotImplementedError

    def __call__(self, data_bytes: int, params: Params) -> float:
        d = self.duration(data_bytes, params)
        if d < 0 or math.isnan(d):
            raise ValueError(f"{type(self).__name__} produced invalid duration {d}")
        return d


@dataclass(frozen=True)
class FixedCostModel(KernelCostModel):
    """A constant duration regardless of input size."""

    seconds: float

    def duration(self, data_bytes: int, params: Params) -> float:
        return self.seconds


@dataclass(frozen=True)
class AffineBytesCostModel(KernelCostModel):
    """``base + bytes / bandwidth`` — memory-bound kernels (streaming loops).

    ``bandwidth`` is in bytes/second and models the effective rate at
    which the kernel touches its working set; ``base`` is a fixed
    launch/loop overhead.
    """

    base: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def duration(self, data_bytes: int, params: Params) -> float:
        return self.base + data_bytes / self.bandwidth


@dataclass(frozen=True)
class GemmCostModel(KernelCostModel):
    """Dense matrix-multiply cost: ``2*m*n*k`` flops at a sustained rate.

    ``m``, ``n``, ``k`` come from the task's params (all default to
    ``params["n"]`` for square tiles).  ``launch_overhead`` models kernel
    launch / BLAS call overhead and keeps tiny tiles from looking free.
    """

    gflops: float
    launch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.gflops <= 0:
            raise ValueError("gflops must be positive")

    def duration(self, data_bytes: int, params: Params) -> float:
        n = params.get("n")
        if n is None:
            raise KeyError("GemmCostModel requires params['n'] (tile dimension)")
        m = params.get("m", n)
        k = params.get("k", n)
        flops = 2.0 * m * n * k
        return self.launch_overhead + flops / (self.gflops * 1e9)


@dataclass(frozen=True)
class FlopsCostModel(KernelCostModel):
    """Explicit flop count (``params['flops']``) at a sustained GFLOP/s rate.

    Used for kernels whose arithmetic intensity doesn't fit the gemm
    shape: Cholesky panel factorisation (``n^3/3``), triangular solves
    (``n^3``), rank-k updates — the app computes the flop count, the
    model only divides by the rate.
    """

    gflops: float
    launch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.gflops <= 0:
            raise ValueError("gflops must be positive")

    def duration(self, data_bytes: int, params: Params) -> float:
        flops = params.get("flops")
        if flops is None:
            raise KeyError("FlopsCostModel requires params['flops']")
        return self.launch_overhead + float(flops) / (self.gflops * 1e9)


@dataclass(frozen=True)
class TableCostModel(KernelCostModel):
    """Direct lookup: exact data-set size (bytes) -> duration.

    Sizes not present fall back to linear interpolation between the two
    nearest entries (or nearest-edge extrapolation).  Useful in tests and
    for replaying measured profiles.
    """

    table: Mapping[int, float]

    def __post_init__(self) -> None:
        if not self.table:
            raise ValueError("TableCostModel requires a non-empty table")

    def duration(self, data_bytes: int, params: Params) -> float:
        table = self.table
        if data_bytes in table:
            return table[data_bytes]
        keys = sorted(table)
        if data_bytes <= keys[0]:
            return table[keys[0]]
        if data_bytes >= keys[-1]:
            return table[keys[-1]]
        import bisect

        i = bisect.bisect_left(keys, data_bytes)
        lo, hi = keys[i - 1], keys[i]
        frac = (data_bytes - lo) / (hi - lo)
        return table[lo] + frac * (table[hi] - table[lo])


@dataclass(frozen=True)
class ScaledCostModel(KernelCostModel):
    """Wrap another model and scale its duration by a constant factor.

    Handy for deriving "this version is 60x slower on this device"
    relationships without re-deriving constants.
    """

    inner: KernelCostModel
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("factor must be positive")

    def duration(self, data_bytes: int, params: Params) -> float:
        return self.inner.duration(data_bytes, params) * self.factor


class PerfModel:
    """Per-device table of kernel cost models plus deterministic jitter.

    ``noise_cv`` is the coefficient of variation of a multiplicative
    noise term drawn from a (clipped) normal distribution.  Real task
    durations vary run to run; the versioning scheduler's running-mean
    estimator exists precisely to smooth this out, so the simulation
    reproduces it — deterministically, from a seeded generator, whose
    normals are drawn :data:`NOISE_BLOCK` at a time.
    """

    def __init__(
        self,
        kernels: Optional[Mapping[str, KernelCostModel]] = None,
        *,
        noise_cv: float = 0.0,
        seed: int = 0,
    ) -> None:
        if noise_cv < 0 or noise_cv >= 1.0:
            raise ValueError("noise_cv must be in [0, 1)")
        self._kernels: dict[str, KernelCostModel] = dict(kernels or {})
        self.noise_cv = noise_cv
        self._rng = np.random.default_rng(seed)
        # normals drawn ahead from _rng, consumed from _next on
        self._normals: list[float] = []
        self._next = 0

    def register(self, kernel: str, model: KernelCostModel) -> None:
        """Register (or replace) the cost model for ``kernel``."""
        self._kernels[kernel] = model

    def has_kernel(self, kernel: str) -> bool:
        return kernel in self._kernels

    def kernels(self) -> list[str]:
        return sorted(self._kernels)

    def model(self, kernel: str) -> KernelCostModel:
        """The registered cost model for ``kernel`` (KeyError if absent)."""
        try:
            return self._kernels[kernel]
        except KeyError:
            raise KeyError(f"no cost model registered for kernel {kernel!r}") from None

    def duration(self, kernel: str, data_bytes: int, params: Params) -> float:
        """Sample a duration for one execution of ``kernel``.

        Raises :class:`KeyError` if the kernel has no model on this
        device — the runtime treats that as "this device cannot run this
        version", which should have been caught earlier by the device
        clause.
        """
        try:
            model = self._kernels[kernel]
        except KeyError:
            raise KeyError(f"no cost model registered for kernel {kernel!r}") from None
        base = model(data_bytes, params)
        if self.noise_cv == 0.0:
            return base
        i = self._next
        normals = self._normals
        if i == len(normals):
            normals = self._normals = self._rng.standard_normal(NOISE_BLOCK).tolist()
            i = 0
        self._next = i + 1
        # Clip at 3 sigma and floor at 10% of nominal so durations stay
        # positive and the mean stays close to the model's value.
        factor = 1.0 + self.noise_cv * normals[i]
        factor = min(max(factor, 1.0 - 3 * self.noise_cv, 0.1), 1.0 + 3 * self.noise_cv)
        return base * factor
