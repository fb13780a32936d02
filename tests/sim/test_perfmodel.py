"""Tests for kernel cost models and the per-device PerfModel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.perfmodel import (
    AffineBytesCostModel,
    FixedCostModel,
    FlopsCostModel,
    GemmCostModel,
    NOISE_BLOCK,
    PerfModel,
    ScaledCostModel,
    TableCostModel,
)


class TestFixedCostModel:
    def test_constant(self):
        m = FixedCostModel(0.5)
        assert m(0, {}) == 0.5
        assert m(10**9, {}) == 0.5


class TestAffineBytesCostModel:
    def test_linear_in_bytes(self):
        m = AffineBytesCostModel(base=0.001, bandwidth=1e9)
        assert m(0, {}) == pytest.approx(0.001)
        assert m(10**9, {}) == pytest.approx(1.001)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            AffineBytesCostModel(0.0, 0.0)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            AffineBytesCostModel(0.0, -1.0)


class TestGemmCostModel:
    def test_square_tile_flops(self):
        m = GemmCostModel(gflops=2.0)  # 2e9 flop/s
        # 2 * 100^3 flops = 2e6 -> 1e-3 s
        assert m(0, {"n": 100}) == pytest.approx(1e-3)

    def test_rectangular(self):
        m = GemmCostModel(gflops=1.0)
        d = m(0, {"n": 10, "m": 20, "k": 30})
        assert d == pytest.approx(2 * 10 * 20 * 30 / 1e9)

    def test_launch_overhead_added(self):
        m = GemmCostModel(gflops=1.0, launch_overhead=0.5)
        assert m(0, {"n": 1}) == pytest.approx(0.5 + 2e-9)

    def test_missing_n_raises(self):
        with pytest.raises(KeyError, match="params\\['n'\\]"):
            GemmCostModel(1.0)(0, {})

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            GemmCostModel(0.0)


class TestFlopsCostModel:
    def test_duration_from_flops(self):
        m = FlopsCostModel(gflops=10.0)
        assert m(0, {"flops": 1e9}) == pytest.approx(0.1)

    def test_missing_flops_raises(self):
        with pytest.raises(KeyError, match="flops"):
            FlopsCostModel(1.0)(0, {})


class TestTableCostModel:
    def test_exact_lookup(self):
        m = TableCostModel({100: 1.0, 200: 3.0})
        assert m(100, {}) == 1.0
        assert m(200, {}) == 3.0

    def test_interpolation(self):
        m = TableCostModel({100: 1.0, 200: 3.0})
        assert m(150, {}) == pytest.approx(2.0)

    def test_edge_extrapolation_clamps(self):
        m = TableCostModel({100: 1.0, 200: 3.0})
        assert m(50, {}) == 1.0
        assert m(500, {}) == 3.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            TableCostModel({})


class TestScaledCostModel:
    def test_scaling(self):
        inner = FixedCostModel(1.0)
        assert ScaledCostModel(inner, 60.0)(0, {}) == pytest.approx(60.0)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            ScaledCostModel(FixedCostModel(1.0), 0.0)


class TestPerfModel:
    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError, match="no cost model"):
            PerfModel().duration("nope", 0, {})

    def test_register_and_query(self):
        pm = PerfModel()
        pm.register("k", FixedCostModel(0.1))
        assert pm.has_kernel("k")
        assert not pm.has_kernel("other")
        assert pm.kernels() == ["k"]
        assert pm.duration("k", 0, {}) == 0.1

    def test_no_noise_is_deterministic_exactly(self):
        pm = PerfModel({"k": FixedCostModel(0.1)}, noise_cv=0.0)
        assert pm.duration("k", 0, {}) == 0.1
        assert pm.duration("k", 0, {}) == 0.1

    def test_noise_varies_but_seeded(self):
        a = PerfModel({"k": FixedCostModel(0.1)}, noise_cv=0.1, seed=5)
        b = PerfModel({"k": FixedCostModel(0.1)}, noise_cv=0.1, seed=5)
        seq_a = [a.duration("k", 0, {}) for _ in range(20)]
        seq_b = [b.duration("k", 0, {}) for _ in range(20)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1

    def test_noise_bounded_and_positive(self):
        pm = PerfModel({"k": FixedCostModel(1.0)}, noise_cv=0.2, seed=3)
        samples = [pm.duration("k", 0, {}) for _ in range(500)]
        assert all(0.4 - 1e-9 <= s <= 1.6 + 1e-9 for s in samples)

    def test_noise_mean_near_nominal(self):
        pm = PerfModel({"k": FixedCostModel(1.0)}, noise_cv=0.05, seed=11)
        samples = [pm.duration("k", 0, {}) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.02)

    def test_invalid_noise_cv_rejected(self):
        with pytest.raises(ValueError):
            PerfModel(noise_cv=-0.1)
        with pytest.raises(ValueError):
            PerfModel(noise_cv=1.0)

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_affine_monotone_in_bytes(self, nbytes):
        m = AffineBytesCostModel(1e-6, 5e9)
        assert m(nbytes, {}) <= m(nbytes + 1024, {})


class TestNoiseBlocks:
    """Noise normals are drawn NOISE_BLOCK at a time; the durations must
    equal those of one scalar draw per execution."""

    @staticmethod
    def _scalar_durations(seed: int, cv: float, base: float, n: int) -> list:
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            factor = 1.0 + cv * float(rng.standard_normal())
            factor = min(max(factor, 1.0 - 3 * cv, 0.1), 1.0 + 3 * cv)
            out.append(base * factor)
        return out

    def test_block_draws_match_scalar_draws_across_blocks(self):
        n = 2 * NOISE_BLOCK + 5
        pm = PerfModel({"k": FixedCostModel(0.25)}, noise_cv=0.2, seed=7)
        got = [pm.duration("k", 0, {}) for _ in range(n)]
        assert got == self._scalar_durations(7, 0.2, 0.25, n)

    def test_two_devices_with_different_seeds_interleaved(self):
        from repro.sim.devices import GPUDevice, SMPDevice

        n = NOISE_BLOCK + 3
        smp = SMPDevice("smp0", PerfModel(noise_cv=0.1, seed=11))
        gpu = GPUDevice("gpu0", PerfModel(noise_cv=0.3, seed=12))
        smp.register_kernel("k", FixedCostModel(1.0))
        gpu.register_kernel("k", FixedCostModel(2.0))
        got_smp, got_gpu = [], []
        for _ in range(n):
            got_smp.append(smp.duration("k", 0, {}))
            got_gpu.append(gpu.duration("k", 0, {}))
        assert got_smp == self._scalar_durations(11, 0.1, 1.0, n)
        assert got_gpu == self._scalar_durations(12, 0.3, 2.0, n)

    def test_standard_normal_blocks_equal_scalar_sequence(self):
        # the NumPy property the blocks rely on, split unevenly
        scalar = np.random.default_rng(3)
        want = [float(scalar.standard_normal()) for _ in range(70)]
        block = np.random.default_rng(3)
        got = (block.standard_normal(32).tolist() + block.standard_normal(7).tolist()
               + block.standard_normal(31).tolist())
        assert got == want
