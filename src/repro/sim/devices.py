"""Compute-device models.

A :class:`Device` is a processing element able to run task versions
targeted at its :class:`DeviceKind` (the OmpSs ``device(smp)`` /
``device(cuda)`` clause).  Each device is attached to exactly one memory
space (all SMP cores share the host space; each GPU owns a private
space), and owns a :class:`~repro.sim.perfmodel.PerfModel` that the
simulation uses to produce task durations.

In OmpSs, each worker thread is devoted to one device; the runtime layer
(:mod:`repro.runtime.worker`) mirrors that 1:1 pairing.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.sim.perfmodel import KernelCostModel, Params, PerfModel


class DeviceKind(Enum):
    """Architecture tag matching the OmpSs ``device(...)`` clause."""

    SMP = "smp"
    CUDA = "cuda"
    # The paper mentions Cell SPEs as a historical motivation; the kind
    # exists so machine descriptions for such systems can be written.
    SPE = "spe"

    @classmethod
    def parse(cls, name: "str | DeviceKind") -> "DeviceKind":
        if isinstance(name, DeviceKind):
            return name
        kind = _PARSE_CACHE.get(name)
        if kind is not None:
            return kind
        try:
            kind = cls(name.lower())
        except (ValueError, AttributeError):
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown device kind {name!r}; expected one of: {valid}") from None
        _PARSE_CACHE[name] = kind
        return kind


#: parse() memo for string spellings ("smp", "SMP", "cuda", ...); parse
#: sits on the version-matching hot path (once per version × worker ×
#: dispatch) and ``str.lower`` + enum construction dominated it
_PARSE_CACHE: dict = {k.value: k for k in DeviceKind}

# per-member identity bit: kind-set intersections on the capability hot
# path reduce to an integer AND (Enum.__hash__ is a Python-level call,
# so frozenset operations over DeviceKind members show up in profiles)
for _i, _k in enumerate(DeviceKind):
    _k.mask = 1 << _i
del _i, _k


class Device:
    """A single processing element (one SMP core or one GPU).

    Parameters
    ----------
    name:
        Unique human-readable identifier, e.g. ``"smp0"`` or ``"gpu1"``.
    kind:
        Which ``device(...)`` clause values this device satisfies.
    memory_space:
        Identifier of the memory space the device computes from.  The
        memory subsystem resolves these to
        :class:`~repro.memory.space.MemorySpace` objects.
    perf:
        Cost models for the kernels this device can run.
    """

    def __init__(
        self,
        name: str,
        kind: DeviceKind,
        memory_space: str,
        perf: Optional[PerfModel] = None,
    ) -> None:
        self.name = name
        self.kind = DeviceKind.parse(kind)
        self.memory_space = memory_space
        self.perf = perf if perf is not None else PerfModel()

    def can_run_kind(self, kind: "str | DeviceKind") -> bool:
        """Whether this device satisfies the given ``device(...)`` clause."""
        return self.kind is DeviceKind.parse(kind)

    def register_kernel(self, kernel: str, model: KernelCostModel) -> None:
        self.perf.register(kernel, model)

    def duration(self, kernel: str, data_bytes: int, params: Params) -> float:
        """Simulated execution time of one instance of ``kernel`` here."""
        return self.perf.duration(kernel, data_bytes, params)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, space={self.memory_space!r})"


class SMPDevice(Device):
    """One host CPU core; computes from the shared host memory space."""

    def __init__(self, name: str, perf: Optional[PerfModel] = None,
                 memory_space: str = "host") -> None:
        super().__init__(name, DeviceKind.SMP, memory_space, perf)


class GPUDevice(Device):
    """One CUDA GPU with a private memory space and a DMA engine.

    ``dma_channels`` models how many transfers the GPU's copy engines can
    overlap at once (Fermi-class M2090s have two copy engines; with
    overlap disabled the runtime serialises transfers with compute).
    ``memory_bytes`` bounds the device cache managed by
    :mod:`repro.memory.cache`.
    """

    def __init__(
        self,
        name: str,
        perf: Optional[PerfModel] = None,
        memory_space: Optional[str] = None,
        memory_bytes: int = 6 * 1024**3,
        dma_channels: int = 2,
    ) -> None:
        if memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if dma_channels < 1:
            raise ValueError("dma_channels must be >= 1")
        super().__init__(name, DeviceKind.CUDA, memory_space or name, perf)
        self.memory_bytes = memory_bytes
        self.dma_channels = dma_channels
