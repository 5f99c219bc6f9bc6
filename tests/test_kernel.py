import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liquid_ssm.errors import DimensionError
from liquid_ssm.kernel import _krylov, _krylov_block, bench_kernel, kernel_genfn, kernel_naive
from liquid_ssm.ssm import DiscreteSystem, DplrSystem, discretize_bilinear, nplr_decompose

from helpers import PROPERTY, random_stable_system, rel_linf, scalar_discrete as scalar_system


def _complex_output_map():
    # an edited LegS system whose response is no longer real
    rng = np.random.default_rng(1)
    return replace(nplr_decompose(8, seed=3), c=rng.normal(size=8) + 1j * rng.normal(size=8)), 0.05, 64


def _pole_on_imaginary_axis():
    # one diagonal entry moved onto the imaginary axis, at the bilinear image (dt = 0.01) of
    # the unit root exp(2 pi i 3000 / 4096)
    base = nplr_decompose(64)
    omega = np.exp(2j * np.pi * 3000 / 4096)
    lam = base.lam.copy()
    lam[17] = (2.0 / 0.01) * (1.0 - omega) / (1.0 + omega)
    return DplrSystem(lam=lam, p=base.p, b=base.b, c=base.c), 0.01, 4096


# (system, dt, L) on the edge of stability or off the LegS family; the kernel takes each like any other
EDITED_OR_HAND_BUILT = {
    "complex_output_map": _complex_output_map,
    "pole_on_imaginary_axis": _pole_on_imaginary_axis,
    "eigenvalue_at_zero": lambda: (DplrSystem(lam=[0.0, -1.0], p=[0.0, 0.0], b=[1.0, 1.0], c=[1.0, 1.0]), 0.1, 16),
    # A = diag(1) - p p* = 0: the rank-1 term cancels an unstable diagonal, and a_bar is the identity
    "rank1_cancels_diagonal": lambda: (DplrSystem(lam=[1.0], p=[1.0], b=[1.0], c=[1.0]), 0.1, 16),
}


class TestKernelNaive:
    def test_scalar_recursion(self):
        k = kernel_naive(scalar_system(0.5, 1.0, 2.0), 4)
        assert k.taps == pytest.approx([2.0, 1.0, 0.5, 0.25])

    def test_identity_transition_constant(self):
        d = DiscreteSystem(a_bar=np.eye(3), b_bar=np.ones(3), c_bar=np.array([1.0, 2.0, 3.0]))
        k = kernel_naive(d, 3)
        assert k.taps == pytest.approx([6.0, 6.0, 6.0])

    def test_length_one(self):
        k = kernel_naive(scalar_system(0.9, 0.7, 1.1), 1)
        assert k.taps == pytest.approx([0.77])

    def test_invalid_length(self):
        with pytest.raises(DimensionError):
            kernel_naive(scalar_system(0.5, 1.0, 1.0), 0)


class TestKernelGenfn:
    def test_legs_matches_naive(self):
        sys = nplr_decompose(4, seed=0)
        naive = kernel_naive(discretize_bilinear(sys, 0.1), 64)
        fast = kernel_genfn(sys, 0.1, 64)
        assert rel_linf(fast.taps, naive.taps) < 1e-8

    def test_rank1_factor_zero(self):
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
        k1 = kernel_genfn(sys, 0.1, 32)
        k2 = kernel_genfn(replace(sys, c=2.0 * sys.c), 0.1, 32)
        assert np.array_equal(k2.taps, 2.0 * k1.taps)

    def test_contractive_decay_envelope(self):
        a, b, c = 0.8, 1.3, -0.4
        taps = kernel_naive(scalar_system(a, b, c), 64).taps
        bound = abs(c) * abs(b) * a ** np.arange(64)
        assert np.all(np.abs(taps) <= bound + 1e-12)

    def test_residual_imag_small_for_legs(self):
        for seed in range(4):
            sys = nplr_decompose(12, seed=seed)
            k = kernel_genfn(sys, 0.1, 128)
            assert k.residual_imag < 1e-6

    @PROPERTY
    @given(legs=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_naive_over_wide_range(self, legs, seed):
        # criterion 2's bar with N, L and dt drawn log-uniform over [1, 512],
        # [1, 4096] and [1e-12, 2]; the seed draws them so the spread is even
        rng = np.random.default_rng(seed)
        n, l = (int(round(np.exp(rng.uniform(0.0, np.log(hi))))) for hi in (512, 4096))
        dt = float(np.exp(rng.uniform(np.log(1e-12), np.log(2.0))))
        if legs:
            sys = nplr_decompose(n, seed)
        else:
            sys = random_stable_system(np.random.default_rng(seed), n)
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        assert rel_linf(kernel_genfn(sys, dt, l).taps, naive.taps) < 1e-8

    @pytest.mark.parametrize("l", [64**2, 64**2 + 1, 8192])
    def test_partial_last_block_row(self, l):
        # rows of T = ceil(sqrt(L)) taps: 4096 fills 64 rows of 64, 4097 leaves
        # 2 taps in the last of 64 rows of 65, 8192 leaves 2 in the last of 91 rows of 91
        sys = nplr_decompose(16, 1)
        naive = kernel_naive(discretize_bilinear(sys, 0.01), l)
        assert rel_linf(kernel_genfn(sys, 0.01, l).taps, naive.taps) < 1e-8

    @pytest.mark.parametrize("case", sorted(EDITED_OR_HAND_BUILT))
    def test_edited_or_hand_built_system_matches_naive(self, case):
        sys, dt, l = EDITED_OR_HAND_BUILT[case]()
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        assert rel_linf(kernel_genfn(sys, dt, l).taps, naive.taps) < 1e-8

    def test_peak_memory_bounded(self):
        # the Krylov blocks are (sqrt(L), N), so no (L, N) array is built
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


class TestKrylovBlock:
    @PROPERTY
    @given(
        n=st.integers(1, 128),
        l=st.integers(1, 1100),
        legs=st.booleans(),
        form=st.sampled_from(["a", "a*", "power"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_rows(self, n, l, legs, form, seed):
        # both forms occur on this grid: the plain loop below log2(ceil(sqrt(l))) N <= l, products above
        rng = np.random.default_rng(seed)
        dt = float(np.exp(rng.uniform(np.log(1e-6), 0.0)))
        d = discretize_bilinear(nplr_decompose(n, seed) if legs else random_stable_system(rng, n), dt)
        a = {"a": d.a_bar, "a*": d.a_bar.conj().T, "power": np.linalg.matrix_power(d.a_bar, int(rng.integers(2, 65)))}
        x = d.c_bar if form == "a*" else d.b_bar
        want = np.array(list(_krylov(a[form], x, l)))
        got = _krylov_block(a[form], x, l)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("n, l, powers", [(64, 256, [16]), (128, 256, []), (8, 65, [9]), (4, 2, [])])
    def test_product_form_rule(self, monkeypatch, n, l, powers):
        # products of s = ceil(sqrt(l)) rows only when log2(s) N <= l: kernel-long's blocks (N = 64,
        # l = 256) sit on the line and take them, N = 128 at l = 256 keeps the loop
        seen, power = [], np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda a, s: seen.append(s) or power(a, s))
        d = discretize_bilinear(nplr_decompose(n), 0.01)
        _krylov_block(d.a_bar, d.b_bar, l)
        assert seen == powers


class TestFftPins:
    # correctness pins for the transform behind causal_conv's FFT branch
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
