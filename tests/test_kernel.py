import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liquid_ssm.errors import DimensionError, PoleError, WoodburySingularError
from liquid_ssm.kernel import (
    bench_kernel,
    kernel_genfn,
    kernel_naive,
    truncate_generating_c,
    unit_roots,
)
from liquid_ssm.ssm import DiscreteSystem, DplrSystem, discretize_bilinear, nplr_decompose, with_output_map

from helpers import random_stable_system, rel_linf, scalar_discrete as scalar_system

PROPERTY = settings(max_examples=25, deadline=None)



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
        np.testing.assert_array_equal(unit_roots(16, 9), w[:9])

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
        doubled = replace(sys, c=2.0 * sys.c)  # same grid as sys
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

    @PROPERTY
    @given(legs=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_over_wide_range(self, legs, seed):
        # criterion 2's bar with N, L and dt drawn log-uniform over [1, 512],
        # [1, 4096] and [1e-4, 2]; the seed draws them so the spread is even
        rng = np.random.default_rng(seed)
        n, l = (int(round(np.exp(rng.uniform(0.0, np.log(hi))))) for hi in (512, 4096))
        dt = float(np.exp(rng.uniform(np.log(1e-4), np.log(2.0))))
        if legs:
            sys = with_output_map(nplr_decompose(n), seed)
        else:
            sys = random_stable_system(np.random.default_rng(seed), n)
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        assert rel_linf(kernel_genfn(sys, dt, l).taps, naive.taps) < 1e-8

    @pytest.mark.parametrize("n", [3, 100])
    def test_partial_last_node_block(self, n):
        # at N = 100 the 8192 nodes split into blocks of 655 with a partial
        # last one; at N = 3 one partial block holds them all
        sys = with_output_map(nplr_decompose(n), 1)
        naive = kernel_naive(discretize_bilinear(sys, 0.01), 8192)
        assert rel_linf(kernel_genfn(sys, 0.01, 8192).taps, naive.taps) < 1e-8

    def test_peak_memory_bounded(self):
        # the Cauchy pass works in node blocks, so no (L, N) array is built
        sys = nplr_decompose(256)
        tracemalloc.start()
        try:
            kernel_genfn(sys, 0.01, 16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_invalid_args(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            kernel_genfn(sys, 0.1, 0)
        with pytest.raises(DimensionError):
            kernel_genfn(sys, -0.1, 8)


class TestHalfGrid:
    # a real_response system is evaluated at the size//2 + 1 non-negative frequencies only

    @PROPERTY
    @given(
        n=st.integers(1, 64),
        l=st.integers(1, 4096),
        dt=st.floats(1e-3, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_naive_and_full_grid(self, n, l, dt, seed):
        sys = with_output_map(nplr_decompose(n), seed)
        half = kernel_genfn(sys, dt, l)
        full = kernel_genfn(replace(sys, real_response=False), dt, l)
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        assert half.residual_imag == 0.0
        assert rel_linf(half.taps, naive.taps) < 1e-8
        assert rel_linf(half.taps, full.taps) < 1e-12

    def test_flag_set_by_constructors_only(self):
        sys = nplr_decompose(5, seed=1)
        assert sys.real_response
        assert with_output_map(sys, 2).real_response
        bare = DplrSystem(lam=sys.lam, p=sys.p, b=sys.b, c=sys.c, basis=sys.basis)
        assert not bare.real_response
        assert not with_output_map(bare, 2).real_response  # a basis alone proves nothing

    def test_pole_on_a_half_grid_node(self):
        # N = 64 gives blocks of 1024 nodes; node 1500 of 4096 lies in the second
        # block of the 2049-node half grid
        omega = unit_roots(4096, 2049)
        lam = nplr_decompose(64).lam.copy()
        lam[17] = ((2.0 / 0.01) * (1.0 - omega) / (1.0 + omega))[1500]
        sys = replace(nplr_decompose(64), lam=lam)
        assert sys.real_response
        with pytest.raises(PoleError):
            kernel_genfn(sys, 0.01, 4096)


class TestGridErrors:
    def test_pole_in_a_later_node_block(self):
        # N = 64 gives blocks of 1024 nodes, so node 3000 sits in the third;
        # the nodes are the bilinear images of the unit roots
        base = nplr_decompose(64)
        omega = unit_roots(4096)
        lam = base.lam.copy()
        lam[17] = ((2.0 / 0.01) * (1.0 - omega) / (1.0 + omega))[3000]
        sys = DplrSystem(lam=lam, p=base.p, b=base.b, c=base.c)
        with pytest.raises(PoleError):
            kernel_genfn(sys, 0.01, 4096)

    def test_pole_at_node_zero(self):
        sys = DplrSystem(lam=[0.0, -1.0], p=[0.0, 0.0], b=[1.0, 1.0], c=[1.0, 1.0])
        with pytest.raises(PoleError):
            kernel_genfn(sys, 0.1, 16)

    def test_woodbury_singular(self):
        # at omega = 1 the node is g = 0, so k11 = |p|^2 / (0 - 1) = -1
        sys = DplrSystem(lam=[1.0], p=[1.0], b=[1.0], c=[1.0])
        with pytest.raises(WoodburySingularError):
            kernel_genfn(sys, 0.1, 16)


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
