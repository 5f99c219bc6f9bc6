"""Property tests for the batched forward engine.

Each batched primitive is held to its row-by-row form: ``causal_conv`` and
``causal_conv_fft`` to the direct summation (the order-summed ``causal_conv``
to a sum of direct summations), ``correlation_signals`` and
``forward_liquid_s4`` to stacks of 1-D calls. Sequence lengths straddle the
L = 64 switch between the banded and the FFT path; a table of shapes pins the
batch-size rule between L = 64 and L = 256.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liquid_ssm.conv import causal_conv, causal_conv_direct, causal_conv_fft, next_pow2
from liquid_ssm.errors import DimensionError
from liquid_ssm.liquid import correlation_signals
from liquid_ssm.pipeline import forward_liquid_s4
from liquid_ssm.ssm import nplr_decompose, with_output_map
from liquid_ssm.kernel import _rel_linf

PROPERTY = settings(max_examples=25, deadline=None)
lengths = st.one_of(st.integers(1, 64), st.integers(65, 400))
seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(l=lengths, lk=st.integers(1, 420), batch=st.integers(1, 3), seed=seeds)
def test_causal_conv_shared_taps_matches_direct(l, lk, batch, seed):
    rng = np.random.default_rng(seed)
    taps = rng.normal(0.0, 1.0, lk)
    u = rng.normal(0.0, 1.0, (batch, l))
    got = causal_conv(taps, u)
    assert got.shape == u.shape
    for b in range(batch):
        assert np.max(np.abs(got[b] - causal_conv_direct(taps, u[b]))) < 1e-10


@PROPERTY
@given(
    l=lengths,
    lk=st.integers(1, 420),
    h=st.integers(1, 4),
    batch=st.integers(1, 3),
    seed=seeds,
    conv=st.sampled_from([causal_conv, causal_conv_fft]),
)
def test_per_feature_taps_match_direct(l, lk, h, batch, seed, conv):
    rng = np.random.default_rng(seed)
    taps = rng.normal(0.0, 1.0, (h, lk))
    u = rng.normal(0.0, 1.0, (batch, h, l))
    got = conv(taps, u)
    assert got.shape == u.shape
    for b in range(batch):
        for i in range(h):
            assert np.max(np.abs(got[b, i] - causal_conv_direct(taps[i], u[b, i]))) < 1e-10


def count_irfft(monkeypatch, size: int | None = None) -> list:
    """Record each ``np.fft.irfft`` call, the one inverse transform of the FFT branch.

    With ``size``, only calls of that transform size count, so a kernel's own
    half-spectrum transform is told apart from the convolution's.
    """
    calls, irfft = [], np.fft.irfft

    def counted(*a, **k):
        if size is None or k.get("n") == size:
            calls.append(1)
        return irfft(*a, **k)

    monkeypatch.setattr(np.fft, "irfft", counted)
    return calls


@pytest.mark.parametrize(
    "l, rows, uses_band",
    [
        (64, (1,), True),
        (65, (1,), False),
        (100, (100,), True),
        (100, (99,), False),
        (256, (256, 4), True),
        (256, (255, 4), False),
        (257, (300,), False),
        (100, (100, 4), True),
        (100, (25, 4), False),
    ],
)
def test_size_rule_picks_band_and_matches_direct(monkeypatch, l, rows, uses_band):
    # per-feature (H, 40) taps give each feature its own band, shared by rows[0] sequences
    fft_calls = count_irfft(monkeypatch)
    rng = np.random.default_rng(l)
    taps = rng.normal(0.0, 1.0, rows[1:] + (40,))
    u = rng.normal(0.0, 1.0, rows + (l,))
    got = causal_conv(taps, u)
    assert (not fft_calls) == uses_band
    for idx in np.ndindex(rows):
        want = causal_conv_direct(taps[idx[1:]], u[idx])
        assert np.max(np.abs(got[idx] - want)) < 1e-10
    if len(rows) == 2:
        # one channel of the same per-feature pass takes the same branch
        fft_calls.clear()
        one = causal_conv(taps[:1], u[:, :1])
        assert (not fft_calls) == uses_band
        assert np.max(np.abs(one - got[:, :1])) < 1e-10


@pytest.mark.parametrize("conv", [causal_conv, causal_conv_fft])
def test_per_feature_taps_need_matching_feature_axis(conv):
    with pytest.raises(DimensionError):
        conv(np.ones((3, 4)), np.ones((2, 16)))
    with pytest.raises(DimensionError):
        conv(np.ones((3, 4)), np.ones(16))


@PROPERTY
@given(
    batch=st.integers(1, 3), h=st.integers(1, 3), l=st.integers(1, 40), p=st.integers(2, 5), seed=seeds
)
def test_correlation_signal_batched_matches_rows(batch, h, l, p, seed):
    u = np.random.default_rng(seed).normal(0.0, 1.0, (batch, h, l))
    if p > l:
        with pytest.raises(DimensionError):
            correlation_signals(u, p)
        return
    got = list(correlation_signals(u, p))
    assert len(got) == p
    for b in range(batch):
        for i in range(h):
            for q, want in enumerate(correlation_signals(u[b, i], p), start=1):
                np.testing.assert_array_equal(got[q - 1][b, i], want)
                prods = np.prod([u[b, i, j : l - q + 1 + j] for j in range(q)], axis=0)
                np.testing.assert_allclose(want[q - 1 :], prods, rtol=1e-13, atol=0.0)
                assert not np.any(want[: q - 1])


@PROPERTY
@given(
    l=st.one_of(st.integers(8, 64), st.integers(65, 256), st.integers(257, 320)),
    orders=st.integers(1, 4),
    per_feature=st.booleans(),
    h=st.integers(1, 3),
    batch=st.integers(1, 3),
    seed=seeds,
)
def test_order_sum_matches_direct(l, orders, per_feature, h, batch, seed):
    # one call over P orders equals the sum of P direct summations, row by row
    rng = np.random.default_rng(seed)
    lks = [l] + [int(k) for k in rng.integers(1, min(l, 40) + 1, orders - 1)]
    taps = [rng.normal(0.0, 1.0, (h, lk) if per_feature else (lk,)) for lk in lks]
    u = rng.normal(0.0, 1.0, (batch, h, l))
    got = causal_conv(taps, correlation_signals(u, orders))
    assert got.shape == u.shape
    for b in range(batch):
        for i in range(h):
            signals = correlation_signals(u[b, i], orders)
            want = sum(causal_conv_direct(t[i] if per_feature else t, x) for t, x in zip(taps, signals))
            assert np.max(np.abs(got[b, i] - want)) < 1e-10


def test_kb_forward_takes_one_inverse_fft(monkeypatch):
    # main kernel and orders 2..3 share one summed spectrum
    sys_ = with_output_map(nplr_decompose(8, seed=0), 1)
    u = np.random.default_rng(0).normal(0.0, 1.0, (2, 2048))
    calls = count_irfft(monkeypatch, size=next_pow2(2 * 2048 - 1))  # the kernel's own transform is 2048
    forward_liquid_s4(sys_, 0.01, u, "kb", 3)
    assert len(calls) == 1


@PROPERTY
@given(
    l=st.one_of(st.integers(8, 64), st.integers(65, 320)),
    batch=st.integers(1, 4),
    n=st.integers(1, 8),
    mode=st.sampled_from(["kb", "pb", "none"]),
    order=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_forward_batched_matches_stacked_rows(l, batch, n, mode, order, seed):
    sys_ = with_output_map(nplr_decompose(n, seed=seed), seed + 1)
    u = np.random.default_rng(seed).normal(0.0, 1.0, (batch, l))
    got = forward_liquid_s4(sys_, 0.05, u, mode, order)
    want = np.stack([forward_liquid_s4(sys_, 0.05, row, mode, order) for row in u])
    assert _rel_linf(got, want) < 1e-12
