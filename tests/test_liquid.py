import numpy as np
import pytest

from liquid_ssm.conv import causal_conv_fft, recurrent_s4
from liquid_ssm.errors import DimensionError, DivergedStateError
from liquid_ssm.kernel import kernel_naive
from liquid_ssm.liquid import (
    apply_liquid,
    build_liquid_kernels,
    correlation_signal,
    default_window,
    liquid_expansion_oracle,
    liquid_kernel_kb,
    liquid_oracle,
    recurrent_liquid,
)
from liquid_ssm.pipeline import forward_liquid_s4
from liquid_ssm.ssm import DiscreteSystem, DplrSystem, discretize_bilinear, nplr_decompose, with_output_map

from helpers import scalar_discrete


def scalar_dplr(a_cont, b, c):
    """Scalar continuous system with p = 0 (diagonal only)."""
    return DplrSystem(lam=[a_cont], p=[0.0], b=[b], c=[c])


class TestCorrelationSignal:
    def test_adjacent_products(self):
        sig = correlation_signal(np.array([1.0, 2.0, 3.0]), 2)
        assert sig == pytest.approx([0.0, 2.0, 6.0])

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_unit_input(self, p):
        sig = correlation_signal(np.ones(6), p)
        want = np.ones(6)
        want[: p - 1] = 0.0
        assert sig == pytest.approx(want)

    def test_zero_inside_every_window(self):
        sig = correlation_signal(np.array([2.0, 0.0, 5.0, 3.0]), 3)
        assert sig == pytest.approx([0.0, 0.0, 0.0, 0.0])

    def test_invalid_order(self):
        with pytest.raises(DimensionError):
            correlation_signal(np.ones(4), 1)
        with pytest.raises(DimensionError):
            correlation_signal(np.ones(4), 5)


class TestKbKernel:
    def test_scalar_lag_ordering(self):
        a, b, c = 0.7, 1.3, -0.5
        d = scalar_discrete(a, b, c)
        sys = scalar_dplr(0.0, 0.0, 0.0)  # unused; use the discrete helper below

        taps = liquid_kernel_kb_from_discrete(d, 2, 3)
        assert taps == pytest.approx([c * b**2, c * a * b**2, c * a**2 * b**2])

    def test_descending_is_flip(self):
        sys = nplr_decompose(5, seed=0)
        lag = liquid_kernel_kb(sys, 0.1, 3, 9, ordering="lag")
        desc = liquid_kernel_kb(sys, 0.1, 3, 9, ordering="descending")
        assert np.array_equal(desc[::-1], lag)

    def test_descending_matches_matrix_powers(self):
        # independent evaluation of the descending form via dense powers
        sys = nplr_decompose(4, seed=1)
        d = discretize_bilinear(sys, 0.2)
        window, p = 6, 2
        desc = liquid_kernel_kb(sys, 0.2, p, window, ordering="descending")
        want = [
            np.vdot(d.c_bar, np.linalg.matrix_power(d.a_bar, window - 1 - i) @ d.b_bar**p).real
            for i in range(window)
        ]
        assert desc == pytest.approx(want, abs=1e-12)

    def test_identity_transition_equals_pb(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(1, 9))
            d = DiscreteSystem(
                a_bar=np.eye(n),
                b_bar=rng.normal(size=n) + 1j * rng.normal(size=n),
                c_bar=rng.normal(size=n) + 1j * rng.normal(size=n),
                dt=0.1,
            )
            for p in (2, 3, 5):
                kb = kb_taps(d, p, 7)
                pb = pb_taps(d, p, 7)
                assert np.max(np.abs(kb - pb)) < 1e-12

    def test_zero_input_map_annihilates(self):
        sys = DplrSystem(lam=[-1.0, -2.0], p=[0.1, 0.2], b=[0.0, 0.0], c=[1.0, 1.0])
        assert liquid_kernel_kb(sys, 0.1, 3, 4) == pytest.approx(np.zeros(4))

    def test_invalid_args(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            liquid_kernel_kb(sys, 0.1, 1, 4)
        with pytest.raises(DimensionError):
            liquid_kernel_kb(sys, 0.1, 2, 0)
        with pytest.raises(DimensionError):
            liquid_kernel_kb(sys, 0.1, 2, 4, ordering="sideways")


class TestPbKernel:
    def test_scalar_constant(self):
        d = scalar_discrete(0.4, 0.5, 2.0)
        taps = pb_taps(d, 3, 4)
        assert taps == pytest.approx(np.full(4, 2.0 * 0.5**3))

    def test_window_one(self):
        sys = nplr_decompose(3, seed=0)
        taps = build_liquid_kernels(sys, 0.1, "pb", 2, 1).order_taps(2)
        assert taps.shape == (1,)

    def test_orthogonal_output_map(self):
        d = DiscreteSystem(
            a_bar=np.eye(2), b_bar=np.array([1.0, 1.0]), c_bar=np.array([1.0, -1.0]), dt=0.1
        )
        for p in (2, 3):
            assert pb_taps(d, p, 5) == pytest.approx(np.zeros(5))


class TestApplyLiquid:
    def test_order2_matches_unrolled_term(self):
        # output[1] must equal c b^2 u0 u1, the first cross term of the
        # unrolled liquid recurrence
        a, b, c = 0.7, 1.1, 0.9
        d = scalar_discrete(a, b, c)
        u = np.array([0.8, -1.2])
        kset = kernel_set_from_discrete(d, "kb", 2, 2)
        out = apply_liquid(kset, u)
        assert out[1] == pytest.approx(c * b**2 * u[0] * u[1])

    def test_zero_input(self):
        sys = nplr_decompose(4, seed=0)
        kset = build_liquid_kernels(sys, 0.1, "pb", 3, 4)
        assert apply_liquid(kset, np.zeros(16)) == pytest.approx(np.zeros(16))

    def test_single_nonzero_sample(self):
        sys = nplr_decompose(4, seed=0)
        kset = build_liquid_kernels(sys, 0.1, "kb", 4, 8)
        u = np.zeros(32)
        u[13] = 2.5
        assert apply_liquid(kset, u) == pytest.approx(np.zeros(32))

    def test_degree_scaling(self):
        rng = np.random.default_rng(3)
        sys = with_output_map(nplr_decompose(5, seed=1), 2)
        u = rng.normal(size=24)
        for p in (2, 3):
            kset_p = single_order_set(sys, p)
            base = apply_liquid(kset_p, u)
            for alpha in (2.0, -1.0):
                scaled = apply_liquid(kset_p, alpha * u)
                assert np.array_equal(scaled, alpha**p * base)


class TestLiquidOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_sweep_matches_kernel_path(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            a = rng.uniform(-0.9, 0.9)
            b, c = rng.normal(size=2)
            d = scalar_discrete(a, b, c, dt=0.5)
            u = rng.normal(size=16)
            window = int(rng.integers(1, 17))
            max_order = int(rng.integers(2, 5))
            kset = kernel_set_from_discrete(d, "kb", max_order, window)
            combined = causal_conv_fft(kernel_naive(d, 16).taps, u) + apply_liquid(kset, u)
            assert np.max(np.abs(combined - liquid_oracle(d, u, max_order, window))) < 1e-10

    def test_vector_system_matches_kernel_path(self):
        rng = np.random.default_rng(42)
        sys = with_output_map(nplr_decompose(6, seed=0), 1)
        d = discretize_bilinear(sys, 0.08)
        u = rng.normal(size=48)
        kset = build_liquid_kernels(sys, 0.08, "kb", 4, 12)
        combined = causal_conv_fft(kernel_naive(d, 48).taps, u) + apply_liquid(kset, u)
        assert np.max(np.abs(combined - liquid_oracle(d, u, 4, 12))) < 1e-10

    def test_order_one_equals_recurrent(self):
        sys = nplr_decompose(4, seed=3)
        d = discretize_bilinear(sys, 0.1)
        u = np.random.default_rng(4).normal(size=32)
        assert liquid_oracle(d, u, 1, 8) == pytest.approx(recurrent_s4(d, u), abs=1e-10)

    def test_size_guard(self):
        d = scalar_discrete(0.5, 1.0, 1.0)
        with pytest.raises(DimensionError):
            liquid_oracle(d, np.zeros(65), 2, 4)
        with pytest.raises(DimensionError):
            liquid_oracle(d, np.zeros(16), 6, 4)


class TestRecurrentLiquid:
    def test_scalar_unrolled_terms(self):
        a, b, c = 0.6, 1.2, 0.8
        d = scalar_discrete(a, b, c)
        u = np.array([0.5, -1.5])
        y = recurrent_liquid(d, u)
        assert y[0] == pytest.approx(c * b * u[0])
        assert y[1] == pytest.approx(c * a * b * u[0] + c * b * u[1] + c * b**2 * u[0] * u[1])

    def test_zero_input(self):
        sys = nplr_decompose(3, seed=0)
        d = discretize_bilinear(sys, 0.1)
        assert recurrent_liquid(d, np.zeros(8)) == pytest.approx(np.zeros(8))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_expansion_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        sys = with_output_map(nplr_decompose(n, seed=seed), seed)
        d = discretize_bilinear(sys, float(rng.uniform(0.05, 0.3)))
        u = rng.normal(size=5)
        got = recurrent_liquid(d, u)
        want = liquid_expansion_oracle(d, u)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_divergence_reports_step(self):
        d = scalar_discrete(1.0, 5.0, 1.0)
        with pytest.raises(DivergedStateError) as exc:
            recurrent_liquid(d, np.full(300, 3.0))
        assert exc.value.step < 300

    def test_expansion_oracle_guard(self):
        d = scalar_discrete(0.5, 1.0, 1.0)
        with pytest.raises(DimensionError):
            liquid_expansion_oracle(d, np.zeros(13))


class TestConsecutiveRestriction:
    def test_symbolic_gap_at_length_three(self):
        # the kernel path keeps exactly the consecutive-window terms; the
        # recurrence adds the non-consecutive pair and the order-3 product
        rng = np.random.default_rng(9)
        a, b, c = 0.7, 1.4, -0.6
        d = scalar_discrete(a, b, c)
        u = rng.normal(size=3)
        kset = kernel_set_from_discrete(d, "kb", 2, 3)
        kernel_path = causal_conv_fft(kernel_naive(d, 3).taps, u) + apply_liquid(kset, u)
        rec = recurrent_liquid(d, u)
        missing = np.array(
            [
                0.0,
                0.0,
                c * b * (a * b) * u[0] * u[2] + c * b**3 * u[0] * u[1] * u[2],
            ]
        )
        assert rec - kernel_path == pytest.approx(missing, abs=1e-12)


class TestForwardLiquid:
    def test_mode_none_matches_recurrent(self):
        sys = with_output_map(nplr_decompose(8, seed=0), 5)
        d = discretize_bilinear(sys, 0.05)
        u = np.random.default_rng(6).normal(size=128)
        got = forward_liquid_s4(sys, 0.05, u, mode="none")
        want = recurrent_s4(d, u)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_kb_matches_oracle(self):
        sys = with_output_map(nplr_decompose(4, seed=2), 3)
        d = discretize_bilinear(sys, 0.1)
        u = np.random.default_rng(7).normal(size=16)
        got = forward_liquid_s4(sys, 0.1, u, mode="kb", max_order=3, window=8)
        assert np.max(np.abs(got - liquid_oracle(d, u, 3, 8))) < 1e-10

    def test_pb_parity_under_negation(self):
        # order-2 liquid part is even in the input, the main part is odd
        sys = with_output_map(nplr_decompose(4, seed=2), 3)
        u = np.random.default_rng(8).normal(size=32)
        kset = build_liquid_kernels(sys, 0.1, "pb", 2, 8)
        main = lambda v: forward_liquid_s4(sys, 0.1, v, mode="none")
        liq = lambda v: apply_liquid(kset, v)
        assert main(-u) == pytest.approx(-main(u), abs=1e-12)
        assert liq(-u) == pytest.approx(liq(u), abs=1e-12)

    def test_unknown_mode(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            forward_liquid_s4(sys, 0.1, np.zeros(8), mode="both")

    def test_default_window(self):
        assert default_window(64) == 8
        assert default_window(4096) == 64
        assert default_window(4) == 4


# -- helpers ------------------------------------------------------------------


def kb_taps(d, p, window):
    from liquid_ssm.liquid import _kb_taps_discrete

    return _kb_taps_discrete(d, p, window).real


def pb_taps(d, p, window):
    from liquid_ssm.liquid import _pb_taps_discrete

    return _pb_taps_discrete(d, p, window).real


def liquid_kernel_kb_from_discrete(d, p, window):
    return kb_taps(d, p, window)


def kernel_set_from_discrete(d, mode, max_order, window):
    from liquid_ssm.liquid import LiquidKernelSet

    compute = kb_taps if mode == "kb" else pb_taps
    return LiquidKernelSet(
        mode=mode,
        max_order=max_order,
        window=window,
        taps=tuple(compute(d, p, window) for p in range(2, max_order + 1)),
        residual_imag=0.0,
    )


def single_order_set(sys, order):
    from liquid_ssm.liquid import LiquidKernelSet

    full = build_liquid_kernels(sys, 0.1, "kb", order, 6)
    taps = tuple(
        full.order_taps(p) if p == order else np.zeros(6) for p in range(2, order + 1)
    )
    return LiquidKernelSet(
        mode="kb", max_order=order, window=6, taps=taps, residual_imag=0.0
    )
