import numpy as np
import pytest

from liquid_ssm.conv import (
    SequenceBatch,
    causal_conv_direct,
    causal_conv_fft,
    next_pow2,
    recurrent_s4,
)
from liquid_ssm.errors import DimensionError, DivergedStateError
from liquid_ssm.kernel import kernel_naive
from liquid_ssm.ssm import DiscreteSystem, discretize_bilinear, nplr_decompose


def scalar_system(a, b, c, dt=1.0):
    return DiscreteSystem(a_bar=np.array([[a]]), b_bar=np.array([b]), c_bar=np.array([c]), dt=dt)


class TestCausalConv:
    def test_identity_kernel(self):
        u = np.array([3.0, -1.0, 2.0, 0.5])
        assert causal_conv_fft(np.array([1.0]), u) == pytest.approx(u)

    def test_unit_delay(self):
        y = causal_conv_fft(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
        assert y == pytest.approx([0.0, 1.0, 2.0])

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        k = rng.normal(0.0, 1.0, 37)
        u = rng.normal(0.0, 1.0, 128)
        assert np.max(np.abs(causal_conv_fft(k, u) - causal_conv_direct(k, u))) < 1e-10

    @pytest.mark.parametrize("l", [16, 300, 1024, 4096])
    def test_matches_direct_sum_sizes(self, l):
        rng = np.random.default_rng(l)
        k = rng.normal(0.0, 1.0, min(l, 64))
        u = rng.normal(0.0, 1.0, l)
        assert np.max(np.abs(causal_conv_fft(k, u) - causal_conv_direct(k, u))) < 1e-10

    def test_kernel_longer_than_input(self):
        k = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        u = np.array([1.0, 1.0])
        assert causal_conv_fft(k, u) == pytest.approx(causal_conv_direct(k, u))

    def test_batched_last_axis(self):
        rng = np.random.default_rng(1)
        k = rng.normal(0.0, 1.0, 8)
        u = rng.normal(0.0, 1.0, (5, 3, 32))
        batched = causal_conv_fft(k, u)
        for i in range(5):
            for j in range(3):
                assert batched[i, j] == pytest.approx(causal_conv_fft(k, u[i, j]))

    def test_causality_perturbation(self):
        rng = np.random.default_rng(2)
        k = rng.normal(0.0, 1.0, 16)
        u = rng.normal(0.0, 1.0, 64)
        y = causal_conv_fft(k, u)
        u2 = u.copy()
        u2[40:] += rng.normal(0.0, 10.0, 24)
        y2 = causal_conv_fft(k, u2)
        assert y2[:40] == pytest.approx(y[:40], abs=1e-12)

    def test_empty_kernel_rejected(self):
        with pytest.raises(DimensionError):
            causal_conv_fft(np.array([]), np.ones(4))

    def test_next_pow2(self):
        assert [next_pow2(v) for v in (1, 2, 3, 17, 64)] == [1, 2, 4, 32, 64]


class TestRecurrentS4:
    def test_scalar_hand_stepped(self):
        d = scalar_system(0.5, 1.0, 2.0)
        y = recurrent_s4(d, np.array([1.0, 0.0, 0.0]))
        assert y == pytest.approx([2.0, 1.0, 0.5])

    def test_impulse_response_equals_taps(self):
        sys = nplr_decompose(8, seed=4)
        d = discretize_bilinear(sys, 0.07)
        impulse = np.zeros(96)
        impulse[0] = 1.0
        taps = kernel_naive(d, 96).taps
        assert np.max(np.abs(recurrent_s4(d, impulse) - taps)) < 1e-12

    def test_superposition_exact(self):
        rng = np.random.default_rng(3)
        sys = nplr_decompose(4, seed=1)
        d = discretize_bilinear(sys, 0.1)
        u1 = rng.normal(0.0, 1.0, 32)
        u2 = rng.normal(0.0, 1.0, 32)
        lhs = recurrent_s4(d, u1 + u2)
        rhs = recurrent_s4(d, u1) + recurrent_s4(d, u2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_diverged_state_reports_step(self):
        d = scalar_system(4.0, 1.0, 1.0)
        with pytest.raises(DivergedStateError) as exc:
            recurrent_s4(d, np.ones(400))
        assert 0 < exc.value.step < 400


class TestSequenceBatch:
    def test_rejects_bad_rank(self):
        with pytest.raises(DimensionError):
            SequenceBatch(np.zeros((2, 5)))

    def test_rejects_non_finite(self):
        values = np.zeros((1, 2, 1))
        values[0, 0, 0] = np.inf
        with pytest.raises(DimensionError):
            SequenceBatch(values)
