import numpy as np
import pytest

from liquid_ssm import verify
from liquid_ssm.conv import (
    BAND_TAPS,
    SequenceBatch,
    causal_conv,
    causal_conv_direct,
    next_pow2,
    recurrent_s4,
)
from liquid_ssm.errors import DimensionError, DivergedStateError
from liquid_ssm.kernel import kernel_naive
from liquid_ssm.ssm import discretize_bilinear, nplr_decompose

from helpers import count_fft, scalar_discrete

# one single-sequence length on each side of causal_conv's one-block switch at L = 64
LENGTHS = (48, 100)


def takes_fft(l: int, lk: int) -> bool:
    """The branch of one sequence: above L = 64 only taps longer than BAND_TAPS are transformed."""
    return l > 64 and lk > BAND_TAPS


@pytest.fixture
def conv(monkeypatch):
    """``causal_conv`` that also returns whether it took the FFT branch."""
    calls = count_fft(monkeypatch)

    def run(taps, u):
        calls.clear()
        return causal_conv(np.asarray(taps, dtype=float), u), bool(calls)

    return run


class TestCausalConv:
    def test_identity_kernel(self, conv):
        for l in LENGTHS:
            u = np.random.default_rng(l).normal(0.0, 1.0, l)
            for lk in (1, 80):
                y, fft = conv(np.eye(1, lk)[0], u)
                assert fft == takes_fft(l, lk)
                assert y == pytest.approx(u)

    def test_unit_delay(self, conv):
        for l in LENGTHS:
            u = np.arange(1.0, l + 1.0)
            for lk in (2, 80):
                y, fft = conv(np.eye(1, lk, 1)[0], u)
                assert fft == takes_fft(l, lk)
                assert y == pytest.approx(np.concatenate([[0.0], u[:-1]]))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        k = rng.normal(0.0, 1.0, 37)
        u = rng.normal(0.0, 1.0, 128)
        assert np.max(np.abs(causal_conv(k, u) - causal_conv_direct(k, u))) < 1e-10

    @pytest.mark.parametrize("l", [16, 300, 1024, 4096])
    def test_matches_direct_sum_sizes(self, l):
        rng = np.random.default_rng(l)
        k = rng.normal(0.0, 1.0, min(l, 64))
        u = rng.normal(0.0, 1.0, l)
        assert np.max(np.abs(causal_conv(k, u) - causal_conv_direct(k, u))) < 1e-10

    def test_kernel_longer_than_input(self, conv):
        for l in (2,) + LENGTHS:
            k = np.arange(1.0, l + 4.0)
            u = np.random.default_rng(l).normal(0.0, 1.0, l)
            y, fft = conv(k, u)
            assert fft == takes_fft(l, l + 3)
            assert y == pytest.approx(causal_conv_direct(k, u))

    def test_batched_last_axis(self, conv):
        rng = np.random.default_rng(1)
        for lk in (8, 80):
            k = rng.normal(0.0, 1.0, lk)
            for l in LENGTHS:
                u = rng.normal(0.0, 1.0, (5, 3, l))
                batched, fft = conv(k, u)
                assert fft == takes_fft(l, lk)
                for i in range(5):
                    for j in range(3):
                        assert batched[i, j] == pytest.approx(causal_conv_direct(k, u[i, j]))

    def test_causality_perturbation(self, conv):
        rng = np.random.default_rng(2)
        for lk in (16, 80):
            k = rng.normal(0.0, 1.0, lk)
            for l in LENGTHS:
                cut = l * 5 // 8
                u = rng.normal(0.0, 1.0, l)
                y, fft = conv(k, u)
                assert fft == takes_fft(l, lk)
                u2 = u.copy()
                u2[cut:] += rng.normal(0.0, 10.0, l - cut)
                y2, _ = conv(k, u2)
                assert y2[:cut] == pytest.approx(y[:cut], abs=1e-12)

    def test_verify_conv_check_takes_fft_branch(self, monkeypatch, conv):
        # the suite's two convolutions of a 128-sample signal: fft_conv_matches_direct_sum
        # with 96 taps (more than BAND_TAPS), band_conv_matches_direct_sum with 24
        branches = {}

        def recorded(taps, u):
            if isinstance(taps, list):  # summed_conv_matches_direct_sum: orders of several tap lengths
                return causal_conv(taps, u)
            y, branches[np.shape(u)[-1], np.shape(taps)[-1]] = conv(taps, u)
            return y

        monkeypatch.setattr(verify, "causal_conv", recorded)
        verify.run_suite(0)
        assert (branches[128, 96], branches[128, 24]) == (True, False)

    def test_empty_kernel_rejected(self):
        with pytest.raises(DimensionError):
            causal_conv(np.array([]), np.ones(4))

    def test_next_pow2(self):
        assert [next_pow2(v) for v in (1, 2, 3, 17, 64)] == [1, 2, 4, 32, 64]


class TestRecurrentS4:
    def test_scalar_hand_stepped(self):
        d = scalar_discrete(0.5, 1.0, 2.0)
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
        d = scalar_discrete(4.0, 1.0, 1.0)
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
