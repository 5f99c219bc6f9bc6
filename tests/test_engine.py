"""Property tests for the batched forward engine.

Each batched primitive is held to its row-by-row form: ``causal_conv`` to
the direct summation (its order-summed form to a sum of direct summations),
``correlation_signals`` and ``forward_liquid_s4`` to stacks of 1-D calls,
and the block scan of the main order, the whole kb/pb forward with liquid
windows on both sides of BAND_TAPS, and the layer run over row groups of
every size around a group edge, to direct sums of the oracle taps.
Sequence lengths straddle the L = 64 switch between one (L, L) band and the
per-order rule, and tap lengths the BAND_TAPS cut between the blocked band
and the FFT, so every branch is drawn for shared and per-feature taps; a
table of shapes pins the batch-size rule between L = 64 and L = 256 and the
tap-length cut at L = 2048. Signals drawn from a generator of fresh arrays
pin the walk over the orders: each signal is let go once its order is
summed, on every branch.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from liquid_ssm import pipeline
from liquid_ssm.conv import BAND_TAPS, _BlockScan, causal_conv, causal_conv_direct, recurrent_s4
from liquid_ssm.errors import DimensionError
from liquid_ssm.liquid import _kb_taps_discrete, _pb_taps_discrete, correlation_signals
from liquid_ssm.pipeline import feature_systems, forward_liquid_s4
from liquid_ssm.ssm import discretize_bilinear, nplr_decompose
from liquid_ssm.kernel import _rel_linf, kernel_naive

from helpers import PROPERTY, count_fft

lengths = st.one_of(st.integers(1, 64), st.integers(65, 400))
seeds = st.integers(0, 2**32 - 1)


def chunked_scan(d, u):
    """The block scan of ``d`` over the rows of u shaped (..., L), in u's shape."""
    return _BlockScan(d, u.shape[-1])(u.reshape(-1, u.shape[-1])).reshape(u.shape)


@PROPERTY
@given(l=lengths, lk=st.integers(1, 420), batch=st.integers(1, 3), seed=seeds)
def test_causal_conv_shared_taps_matches_direct(l, lk, batch, seed):
    rng = np.random.default_rng(seed)
    taps = rng.normal(0.0, 1.0, lk)
    u = rng.normal(0.0, 1.0, (batch, l))
    got = causal_conv(taps, u)
    assert got.shape == u.shape
    assert np.max(np.abs(got - causal_conv_direct(taps, u))) < 1e-10


@PROPERTY
@given(
    l=lengths,
    lk=st.integers(1, 420),
    h=st.integers(1, 4),
    batch=st.integers(1, 3),
    seed=seeds,
)
def test_per_feature_taps_match_direct(l, lk, h, batch, seed):
    rng = np.random.default_rng(seed)
    taps = rng.normal(0.0, 1.0, (h, lk))
    u = rng.normal(0.0, 1.0, (batch, h, l))
    got = causal_conv(taps, u)
    assert got.shape == u.shape
    assert np.max(np.abs(got - causal_conv_direct(taps, u))) < 1e-10


@PROPERTY
@given(
    l=st.integers(65, 700),
    lks=st.lists(st.integers(1, BAND_TAPS), min_size=1, max_size=3),
    main_at=st.one_of(st.none(), st.integers(0, 3)),
    per_feature=st.booleans(),
    h=st.integers(1, 3),
    batch=st.integers(1, 3),
    seed=seeds,
)
def test_blocked_band_matches_direct(l, lks, main_at, per_feature, h, batch, seed):
    # above L = 64, orders of at most BAND_TAPS taps take the blocked band; a long order
    # (L taps, at any position) joins them through the one summed spectrum
    rng = np.random.default_rng(seed)
    if main_at is not None:
        lks.insert(min(main_at, len(lks)), l)
    taps = [rng.normal(0.0, 1.0, (h, lk) if per_feature else (lk,)) for lk in lks]
    u = rng.normal(0.0, 1.0, (batch, h, l))
    with pytest.MonkeyPatch.context() as mp:
        fft_calls = count_fft(mp)
        got = causal_conv(taps, correlation_signals(u, len(taps)))
    assert len(fft_calls) == (main_at is not None)
    assert got.shape == u.shape
    want = sum(map(causal_conv_direct, taps, correlation_signals(u, len(taps))))
    assert np.max(np.abs(got - want)) < 1e-10


@PROPERTY
@given(
    l=st.integers(1, 300),
    lks=st.lists(st.integers(1, 100), min_size=1, max_size=4),
    per_feature=st.booleans(),
    rows=st.integers(1, 3),
    seed=seeds,
)
def test_each_signal_let_go_once_its_order_is_summed(l, lks, per_feature, rows, seed):
    # signals come from a generator, one fresh (rows, L) array per order; when signal k is drawn, every
    # signal before k - 1 is gone, whatever the algorithm of each order (one band, blocked band or FFT)
    rng = np.random.default_rng(seed)
    taps = [rng.normal(0.0, 1.0, (rows, lk) if per_feature else (lk,)) for lk in lks]
    drawn, want = [], np.zeros((rows, l))

    def fresh_signals():
        for k, t in enumerate(taps):
            assert all(ref() is None for ref in drawn[: max(k - 1, 0)])
            x = rng.normal(0.0, 1.0, (rows, l))
            drawn.append(weakref.ref(x))
            want[:] += causal_conv_direct(t, x)
            yield x

    got = causal_conv(taps, fresh_signals())
    assert len(drawn) == len(taps)
    assert np.max(np.abs(got - want)) < 1e-10


def check_branch(monkeypatch, l, rows, lk, uses_band):
    """causal_conv of (*rows, l) signals with (*rows[1:], lk) taps takes the band iff uses_band, and matches direct."""
    fft_calls = count_fft(monkeypatch)
    rng = np.random.default_rng(l)
    taps = rng.normal(0.0, 1.0, rows[1:] + (lk,))
    u = rng.normal(0.0, 1.0, rows + (l,))
    got = causal_conv(taps, u)
    assert (not fft_calls) == uses_band
    assert np.max(np.abs(got - causal_conv_direct(taps, u))) < 1e-10
    if len(rows) == 2:
        # one channel of the same per-feature pass takes the same branch
        fft_calls.clear()
        one = causal_conv(taps[:1], u[:, :1])
        assert (not fft_calls) == uses_band
        assert np.max(np.abs(one - got[:, :1])) < 1e-10


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
    # per-feature (H, 80) taps give each feature its own band, shared by rows[0] sequences;
    # taps longer than BAND_TAPS leave the choice to the sequence count
    check_branch(monkeypatch, l, rows, 80, uses_band)


@pytest.mark.parametrize("rows", [(1,), (2, 3)])
@pytest.mark.parametrize("lk", [BAND_TAPS, BAND_TAPS + 1])
def test_tap_length_cut_picks_band_and_matches_direct(monkeypatch, lk, rows):
    # at L = 2048 taps of at most BAND_TAPS entries take the blocked band, longer ones the FFT
    check_branch(monkeypatch, 2048, rows, lk, lk <= BAND_TAPS)


def test_per_feature_taps_need_matching_feature_axis():
    with pytest.raises(DimensionError):
        causal_conv(np.ones((3, 4)), np.ones((2, 16)))
    with pytest.raises(DimensionError):
        causal_conv(np.ones((3, 4)), np.ones(16))


@pytest.mark.parametrize("l", [10, 100])
@pytest.mark.parametrize(
    "taps, shapes",
    [
        ([3, 2], [(2,), (2,), (2,)]),  # one signal too many
        ([3, 2, 2], [(2,), (2,)]),  # one signal too few
        ([3, 2], [(2,), ()]),  # a later signal of another shape, which would broadcast
        ([80, 2], [(2,), ()]),
    ],
)
def test_signals_must_match_the_taps_one_each_of_one_shape(l, taps, shapes):
    with pytest.raises(DimensionError, match="tap sets need as many signals"):
        causal_conv([np.ones(lk) for lk in taps], (np.ones(shape + (l,)) for shape in shapes))


@pytest.mark.parametrize("u", [[], [2.0]])
def test_no_signal_or_one_without_time_axis_rejected(u):
    with pytest.raises(DimensionError, match="one signal per tap set"):
        causal_conv([np.ones(3)], u)


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
    want = sum(map(causal_conv_direct, taps, correlation_signals(u, orders)))
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize(
    "n, window, ffts",
    [
        (BAND_TAPS // 2, None, (0, 0)),  # scanned main order, banded 32-tap orders 2..3: nothing transformed
        (BAND_TAPS // 2 + 1, None, (2, 1)),  # a state above half the block: the main kernel and its signal
        (8, BAND_TAPS + 1, (4, 1)),  # transformed liquid orders: 2 signals and 2 tap sets; order 1 is scanned
    ],
)
def test_kb_forward_transforms_only_above_the_scan_rule(monkeypatch, n, window, ffts):
    sys_ = nplr_decompose(n, seed=1)
    u = np.random.default_rng(0).normal(0.0, 1.0, (2, 2048))
    forward, inverse = count_fft(monkeypatch, "rfft"), count_fft(monkeypatch, "irfft")
    scanned = []
    monkeypatch.setattr(pipeline, "_BlockScan", lambda *a: scanned.append(1) or _BlockScan(*a))
    forward_liquid_s4(sys_, 0.01, u, "kb", 3, window)
    assert (len(forward), len(inverse)) == ffts
    assert len(scanned) == (2 * n <= BAND_TAPS)  # the state alone decides; the window does not


@PROPERTY
@given(
    l=st.one_of(st.integers(1, 64), st.integers(65, 700), st.sampled_from([63, 64, 65, 127, 128, 129, 640])),
    batch=st.sampled_from([None, 1, 3]),
    n=st.one_of(st.integers(1, 8), st.just(BAND_TAPS + 8)),
    dt=st.floats(1e-3, 0.2),
    seed=st.integers(0, 2**16),
)
def test_chunked_scan_matches_direct_sum(l, batch, n, dt, seed):
    # the scan and the main order of the forward against the direct sum of the oracle's taps, across
    # block edges; N = 72 is above the forward's scan rule at every L, so there the scan is held to
    # the oracle alone and the forward takes the transformed kernel
    sys_ = nplr_decompose(n, seed=seed)
    d = discretize_bilinear(sys_, dt)
    u = np.random.default_rng(seed).normal(0.0, 1.0, (l,) if batch is None else (batch, l))
    taps = kernel_naive(d, l).taps
    want = causal_conv_direct(taps, u)
    for got in (chunked_scan(d, u), forward_liquid_s4(sys_, dt, u, "none")):
        assert got.shape == u.shape
        assert _rel_linf(got, want) < 1e-10


@PROPERTY
@given(
    l=st.one_of(st.sampled_from([8257, 8320, 8321, 16384]), st.integers(8257, 16384)),
    batch=st.integers(1, 3),
    n=st.integers(1, BAND_TAPS // 2),
    dt=st.floats(1e-6, 1.0),
    seed=st.integers(0, 2**16),
)
def test_scan_carries_over_several_products_match_recurrence(l, batch, n, dt, seed):
    # above 129 blocks per sequence the block states take 8 or more doubling steps, each carried
    # by a squared power of the block step; the scan and the scanned forward against one batched
    # recurrence, row by row, from tiny steps to dt = 1
    sys_ = nplr_decompose(n, seed=seed)
    d = discretize_bilinear(sys_, dt)
    u = np.random.default_rng(seed).normal(0.0, 1.0, (batch, l))
    want = recurrent_s4(d, u)
    for got in (chunked_scan(d, u), forward_liquid_s4(sys_, dt, u, "none")):
        assert max(map(_rel_linf, got, want)) < 1e-10


@PROPERTY
@given(
    l=st.one_of(st.integers(128, 520), st.sampled_from([128, 129, 191, 192, 193, 255, 256, 257])),
    window=st.sampled_from([63, 64, 65, 128, None]),
    batch=st.sampled_from([None, 1, 2]),
    n=st.one_of(st.integers(1, 8), st.sampled_from([BAND_TAPS // 2, BAND_TAPS // 2 + 1])),
    mode=st.sampled_from(["kb", "pb"]),
    order=st.integers(2, 4),
    dt=st.floats(1e-3, 0.2),
    seed=st.integers(0, 2**16),
)
def test_liquid_forward_matches_direct_sum(l, window, batch, n, mode, order, dt, seed):
    # the whole forward against direct sums of the oracle taps: the main order's kernel_naive taps on u,
    # the liquid orders' KB/PB taps on the correlation signals; windows on both sides of BAND_TAPS and
    # W = L (None), states on both sides of the scan rule, lengths across block edges
    window = l if window is None else window
    sys_ = nplr_decompose(n, seed=seed)
    d = discretize_bilinear(sys_, dt)
    u = np.random.default_rng(seed).normal(0.0, 1.0, (l,) if batch is None else (batch, l))
    liquid_taps = _kb_taps_discrete if mode == "kb" else _pb_taps_discrete
    taps = [kernel_naive(d, l).taps] + [liquid_taps(d, p, window).real for p in range(2, order + 1)]
    want = sum(map(causal_conv_direct, taps, correlation_signals(u, order)))
    got = forward_liquid_s4(sys_, dt, u, mode, order, window)
    assert got.shape == u.shape
    assert _rel_linf(got, want) < 1e-10


@PROPERTY
@given(
    l=st.one_of(st.sampled_from([63, 64, 65, 127, 128, 129, 640]), st.integers(3, 700)),
    group=st.integers(1, 4),
    form=st.sampled_from(["(L,)", "(B, L)", "(3, B, L)"]),
    n=st.one_of(st.integers(1, 8), st.sampled_from([BAND_TAPS // 2, BAND_TAPS // 2 + 1])),
    window=st.sampled_from([8, BAND_TAPS, BAND_TAPS + 1]),
    mode=st.sampled_from(["kb", "pb", "none"]),
    dt=st.floats(1e-3, 0.2),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_grouped_layer_matches_oracles_across_group_edges(l, group, form, n, window, mode, dt, seed, data):
    # a Layer of G-row groups (the byte budget set to G rows of L samples) over batches of 0 .. 3G + 1
    # rows, G - 1, G and G + 1 among them, in every input form; the whole layer against the direct
    # sums of the oracle taps, or, without liquid orders, against the recurrence
    batch = data.draw(st.one_of(st.sampled_from([group - 1, group, group + 1]), st.integers(0, 3 * group + 1)))
    shape = {"(L,)": (l,), "(B, L)": (batch, l), "(3, B, L)": (3, batch, l)}[form]
    window = min(window, l)
    sys_ = nplr_decompose(n, seed=seed)
    d = discretize_bilinear(sys_, dt)
    u = np.random.default_rng(seed).normal(0.0, 1.0, shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "GROUP_BYTES", 8 * l * group)
        assert pipeline.Layer(sys_, dt, l, mode, 3, window).rows == group
        got = forward_liquid_s4(sys_, dt, u, mode, 3, window)
    assert got.shape == u.shape
    if mode == "none":
        want = recurrent_s4(d, u)
    else:
        liquid_taps = _kb_taps_discrete if mode == "kb" else _pb_taps_discrete
        taps = [kernel_naive(d, l).taps] + [liquid_taps(d, p, window).real for p in (2, 3)]
        want = sum(map(causal_conv_direct, taps, correlation_signals(u, 3)))
    if u.size:
        assert _rel_linf(got, want) < 1e-10


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
    sys_ = nplr_decompose(n, seed=seed + 1)
    u = np.random.default_rng(seed).normal(0.0, 1.0, (batch, l))
    got = forward_liquid_s4(sys_, 0.05, u, mode, order)
    want = np.stack([forward_liquid_s4(sys_, 0.05, row, mode, order) for row in u])
    assert _rel_linf(got, want) < 1e-12


@pytest.mark.parametrize("n", [1, 6])
def test_feature_systems_are_seeded_decompositions(n):
    # feature i is nplr_decompose(n, seed + i): the shared core arrays and its own output map
    dts = np.linspace(0.01, 0.1, 5)
    for i, (sys_, dt) in enumerate(feature_systems(n, 5, 3, dts)):
        want = nplr_decompose(n, 3 + i)
        assert np.array_equal(sys_.c, want.c)
        assert all(getattr(sys_, name) is getattr(want, name) for name in ("lam", "p", "b"))
        assert dt == dts[i]
