import numpy as np
import pytest

from liquid_ssm.errors import DimensionError
from liquid_ssm.kernel import (
    bench_kernel,
    kernel_genfn,
    kernel_naive,
    truncate_generating_c,
    unit_roots,
)
from liquid_ssm.ssm import DiscreteSystem, DplrSystem, discretize_bilinear, nplr_decompose, with_output_map

from helpers import random_stable_system, rel_linf, scalar_discrete as scalar_system


class TestKernelNaive:
    def test_scalar_recursion(self):
        k = kernel_naive(scalar_system(0.5, 1.0, 2.0), 4)
        assert k.taps == pytest.approx([2.0, 1.0, 0.5, 0.25])

    def test_identity_transition_constant(self):
        d = DiscreteSystem(a_bar=np.eye(3), b_bar=np.ones(3), c_bar=np.array([1.0, 2.0, 3.0]), dt=0.5)
        k = kernel_naive(d, 3)
        assert k.taps == pytest.approx([6.0, 6.0, 6.0])

    def test_length_one(self):
        k = kernel_naive(scalar_system(0.9, 0.7, 1.1), 1)
        assert k.taps == pytest.approx([0.77])

    def test_invalid_length(self):
        with pytest.raises(DimensionError):
            kernel_naive(scalar_system(0.5, 1.0, 1.0), 0)


class TestTruncateGeneratingC:
    def test_nilpotent(self):
        ct = truncate_generating_c(scalar_system(0.0, 1.0, 3.0), 5)
        assert ct == pytest.approx([3.0])

    def test_scalar_direct(self):
        ct = truncate_generating_c(scalar_system(0.5, 1.0, 1.0), 2)
        assert ct == pytest.approx([0.75])

    def test_contraction_limit(self):
        sys = nplr_decompose(6, seed=2)
        d = discretize_bilinear(sys, 0.1)
        rho = np.max(np.abs(np.linalg.eigvals(d.a_bar)))
        assert rho < 1.0
        for l in (64, 256, 1024):
            ct = truncate_generating_c(d, l)
            bound = np.linalg.norm(np.linalg.matrix_power(d.a_bar, l), 2) * np.linalg.norm(d.c_bar)
            assert np.linalg.norm(ct - d.c_bar) <= bound + 1e-12


class TestUnitRoots:
    def test_on_unit_circle(self):
        w = unit_roots(16)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-15
        assert w[0] == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(DimensionError):
            unit_roots(0)


class TestKernelGenfn:
    def test_legs_matches_naive(self):
        sys = nplr_decompose(4, seed=0)
        naive = kernel_naive(discretize_bilinear(sys, 0.1), 64)
        fast = kernel_genfn(sys, 0.1, 64)
        assert rel_linf(fast.taps, naive.taps) < 1e-8

    def test_rank1_factor_zero(self):
        # low-rank term vanishes; the Woodbury correction must drop out
        rng = np.random.default_rng(7)
        lam = -np.abs(rng.normal(1.0, 0.3, 5)) + 1j * rng.normal(0.0, 1.0, 5)
        sys = DplrSystem(lam=lam, p=np.zeros(5), b=rng.normal(size=5), c=rng.normal(size=5))
        naive = kernel_naive(discretize_bilinear(sys, 0.2), 32)
        fast = kernel_genfn(sys, 0.2, 32)
        assert rel_linf(fast.taps, naive.taps) < 1e-8

    def test_length_one(self):
        sys = nplr_decompose(3, seed=1)
        d = discretize_bilinear(sys, 0.3)
        fast = kernel_genfn(sys, 0.3, 1)
        assert fast.taps == pytest.approx(kernel_naive(d, 1).taps)

    @pytest.mark.parametrize("l", [3, 20, 100, 1000])
    def test_non_power_of_two_lengths(self, l):
        sys = nplr_decompose(5, seed=2)
        naive = kernel_naive(discretize_bilinear(sys, 0.05), l)
        fast = kernel_genfn(sys, 0.05, l)
        assert len(fast.taps) == l
        assert rel_linf(fast.taps, naive.taps) < 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stable_sweep(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        l = int(rng.choice([16, 64, 256, 1024]))
        dt = float(rng.uniform(1e-3, 0.2))
        sys = random_stable_system(rng, n)
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        fast = kernel_genfn(sys, dt, l)
        assert rel_linf(fast.taps, naive.taps) < 1e-8

    def test_linearity_in_output_map(self):
        sys = nplr_decompose(6, seed=3)
        doubled = DplrSystem(lam=sys.lam, p=sys.p, b=sys.b, c=2.0 * sys.c, basis=sys.basis)
        k1 = kernel_genfn(sys, 0.1, 32)
        k2 = kernel_genfn(doubled, 0.1, 32)
        assert np.array_equal(k2.taps, 2.0 * k1.taps)

    def test_contractive_decay_envelope(self):
        a, b, c = 0.8, 1.3, -0.4
        taps = kernel_naive(scalar_system(a, b, c), 64).taps
        bound = abs(c) * abs(b) * a ** np.arange(64)
        assert np.all(np.abs(taps) <= bound + 1e-12)

    def test_residual_imag_small_for_legs(self):
        for seed in range(4):
            sys = with_output_map(nplr_decompose(12, seed=0), seed)
            k = kernel_genfn(sys, 0.1, 128)
            assert k.residual_imag < 1e-6

    def test_invalid_args(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            kernel_genfn(sys, 0.1, 0)
        with pytest.raises(DimensionError):
            kernel_genfn(sys, -0.1, 8)


class TestFftPins:
    # correctness pins for the transform the generating-function path relies on
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.max(np.abs(np.fft.ifft(np.fft.fft(x)) - x)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=128)
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(np.fft.fft(x)) ** 2) / 128
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_impulse_flat_spectrum(self):
        x = np.zeros(32)
        x[0] = 1.0
        assert np.fft.fft(x) == pytest.approx(np.ones(32, dtype=complex))


class TestBenchKernel:
    def test_report_shape(self):
        sys = nplr_decompose(8, seed=0)
        report = bench_kernel(sys, 0.1, [64, 128], repeats=1)
        paths = {(r["path"], r["L"]) for r in report["records"]}
        assert paths == {("naive", 64), ("naive", 128), ("genfn", 64), ("genfn", 128)}
        assert all(set(r) == {"path", "L", "N", "millis"} for r in report["records"])
        assert report["summary"]["max_rel_disagreement"] < 1e-8

    def test_empty_sweep_rejected(self):
        with pytest.raises(DimensionError):
            bench_kernel(nplr_decompose(2), 0.1, [])
