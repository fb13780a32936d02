"""Tests for device models."""

import pytest

from repro.sim.devices import Device, DeviceKind, GPUDevice, SMPDevice
from repro.sim.perfmodel import FixedCostModel, PerfModel


class TestDeviceKind:
    def test_parse_strings(self):
        assert DeviceKind.parse("smp") is DeviceKind.SMP
        assert DeviceKind.parse("cuda") is DeviceKind.CUDA
        assert DeviceKind.parse("CUDA") is DeviceKind.CUDA
        assert DeviceKind.parse("spe") is DeviceKind.SPE

    def test_parse_passthrough(self):
        assert DeviceKind.parse(DeviceKind.SMP) is DeviceKind.SMP

    def test_parse_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown device kind"):
            DeviceKind.parse("fpga")


class TestSMPDevice:
    def test_defaults(self):
        d = SMPDevice("smp0")
        assert d.kind is DeviceKind.SMP
        assert d.memory_space == "host"
        assert d.can_run_kind("smp")
        assert not d.can_run_kind("cuda")

    def test_duration_uses_perfmodel(self):
        d = SMPDevice("smp0", PerfModel({"k": FixedCostModel(0.25)}))
        assert d.duration("k", 0, {}) == 0.25

    def test_register_kernel(self):
        d = SMPDevice("smp0")
        d.register_kernel("k", FixedCostModel(1.0))
        assert d.duration("k", 0, {}) == 1.0


class TestGPUDevice:
    def test_private_memory_space_defaults_to_name(self):
        d = GPUDevice("gpu3")
        assert d.memory_space == "gpu3"
        assert d.kind is DeviceKind.CUDA

    def test_memory_bytes_default_6gb(self):
        assert GPUDevice("gpu0").memory_bytes == 6 * 1024**3

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            GPUDevice("gpu0", memory_bytes=0)

    def test_invalid_dma_channels_rejected(self):
        with pytest.raises(ValueError):
            GPUDevice("gpu0", dma_channels=0)

    def test_explicit_space(self):
        d = GPUDevice("gpu0", memory_space="devmem")
        assert d.memory_space == "devmem"


class TestDeviceBase:
    def test_unknown_kernel_raises(self):
        d = Device("x", DeviceKind.SMP, "host")
        with pytest.raises(KeyError):
            d.duration("missing", 0, {})

    def test_repr_mentions_name_and_space(self):
        d = SMPDevice("smp1")
        assert "smp1" in repr(d)
        assert "host" in repr(d)
