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
from liquid_ssm.kernel import _rel_linf, kernel_naive
from liquid_ssm.liquid import recurrent_liquid
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
                assert batched == pytest.approx(causal_conv_direct(k, u))

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


class TestOracleShapes:
    """The oracles take the fast paths' shapes: signals (..., L), and per-feature (H, L_k) taps."""

    # (3, 4) at N = 4: a time axis as long as the state, which once read as one (4,) row per step
    @pytest.mark.parametrize("shape", [(2, 3, 40), (3, 4)])
    @pytest.mark.parametrize("recurrence", [recurrent_s4, recurrent_liquid])
    def test_batched_recurrence_rows_match_1d_calls(self, recurrence, shape):
        d = discretize_bilinear(nplr_decompose(4, seed=2), 0.1)
        u = np.random.default_rng(5).normal(0.0, 0.5, shape)
        got = recurrence(d, u)
        assert got.shape == u.shape
        for idx in np.ndindex(u.shape[:-1]):
            assert _rel_linf(got[idx], recurrence(d, u[idx])) <= 1e-14

    @pytest.mark.parametrize("taps_shape", [(7,), (3, 7), (3, 100)])
    def test_batched_direct_sum_rows_equal_1d_calls(self, taps_shape):
        rng = np.random.default_rng(6)
        taps = rng.normal(0.0, 1.0, taps_shape)
        u = rng.normal(0.0, 1.0, (2, 3, 80))
        got = causal_conv_direct(taps, u)
        assert got.shape == u.shape
        for b, h in np.ndindex(2, 3):
            assert np.array_equal(got[b, h], causal_conv_direct(taps[h] if taps.ndim == 2 else taps, u[b, h]))

    def test_batched_divergence_reports_first_step_of_any_row(self):
        d = scalar_discrete(4.0, 1.0, 1.0)
        u = np.ones((3, 400)) * np.array([[1e-30], [1.0], [1e-10]])
        steps = []
        for row in u:
            with pytest.raises(DivergedStateError) as exc:
                recurrent_s4(d, row)
            steps.append(exc.value.step)
        with pytest.raises(DivergedStateError) as exc:
            recurrent_s4(d, u)
        assert exc.value.step == min(steps) < max(steps)

    @pytest.mark.parametrize(
        "oracle", [recurrent_s4, recurrent_liquid, lambda d, u: causal_conv_direct(np.ones(3), u)]
    )
    def test_signal_without_time_axis_rejected(self, oracle):
        with pytest.raises(DimensionError):
            oracle(scalar_discrete(0.5, 1.0, 1.0), np.array(1.0))

    def test_per_feature_direct_sum_needs_a_feature_axis(self):
        taps = np.arange(1.0, 6.0)[None]
        with pytest.raises(DimensionError):
            causal_conv_direct(taps, np.ones(5))
        assert np.array_equal(causal_conv_direct(taps, np.ones((1, 5))), [[1.0, 3.0, 6.0, 10.0, 15.0]])


class TestSequenceBatch:
    def test_rejects_bad_rank(self):
        with pytest.raises(DimensionError):
            SequenceBatch(np.zeros((2, 5)))

    def test_rejects_non_finite(self):
        values = np.zeros((1, 2, 1))
        values[0, 0, 0] = np.inf
        with pytest.raises(DimensionError):
            SequenceBatch(values)
