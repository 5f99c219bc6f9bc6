import numpy as np
import pytest

from liquid_ssm import kernel, liquid, pipeline
from liquid_ssm.conv import causal_conv, recurrent_s4
from liquid_ssm.errors import DimensionError, DivergedStateError
from liquid_ssm.kernel import _rel_linf, kernel_genfn, kernel_naive
from liquid_ssm.liquid import (
    _liquid_kernels,
    build_liquid_kernels,
    correlation_signals,
    default_window,
    liquid_expansion_oracle,
    liquid_oracle,
    liquid_oracle_pb_reference,
    recurrent_liquid,
)
from liquid_ssm.pipeline import forward_liquid_s4
from liquid_ssm.ssm import DiscreteSystem, DplrSystem, discretize_bilinear, nplr_decompose

from helpers import scalar_discrete


def correlation_signal(u, p):
    """The order-p signal, the last one ``correlation_signals`` yields."""
    return list(correlation_signals(u, p))[-1]


def kernel_path(d, u, kset):
    """``forward_liquid_s4``'s one-call sum, with the oracle's main kernel as order 1."""
    taps = [kernel_naive(d, len(u)).taps, *kset.taps]
    return causal_conv(taps, correlation_signals(u, len(taps)))


def liquid_part(kset, u):
    """Orders 2..P of the same sum: the liquid kernels alone on their correlation signals."""
    _, *signals = correlation_signals(u, len(kset.taps) + 1)
    return causal_conv(kset.taps, signals)


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

    def test_every_order_is_the_running_product_bit_for_bit(self):
        # order p is order p - 1 times u delayed by p - 1 samples, its first p - 1 samples exactly 0;
        # a batch of sequences, so the head of every row is zeroed, not only of the first
        u = np.random.default_rng(3).normal(0.0, 2.0, (3, 2, 9))
        want = u
        for p, sig in enumerate(correlation_signals(u, 5), start=1):
            if p > 1:
                want = want * np.concatenate([np.zeros((3, 2, p - 1)), u[..., : 9 - p + 1]], axis=-1)
            assert np.array_equal(sig, want)
            assert not np.any(sig[..., : p - 1])

    def test_invalid_order(self):
        # order 1 is the input itself; below it and above L there is no signal
        u = np.array([2.0, -1.0, 3.0, 0.5])
        assert np.array_equal(correlation_signal(u, 1), u)
        with pytest.raises(DimensionError):
            correlation_signals(u, 0)
        with pytest.raises(DimensionError):
            correlation_signals(u, 5)


class TestKbKernel:
    def test_scalar_lag_ordering(self):
        a, b, c = 0.7, 1.3, -0.5
        d = scalar_discrete(a, b, c)
        taps = kb_taps(d, 2, 3)
        assert taps == pytest.approx([c * b**2, c * a * b**2, c * a**2 * b**2])

    def test_lag_taps_match_matrix_powers(self):
        # independent evaluation of the lag-ordered taps via dense powers
        sys = nplr_decompose(4, seed=1)
        d = discretize_bilinear(sys, 0.2)
        window, p = 6, 2
        taps = build_liquid_kernels(sys, 0.2, "kb", p, window).order_taps(p)
        want = [
            np.vdot(d.c_bar, np.linalg.matrix_power(d.a_bar, i) @ d.b_bar**p).real
            for i in range(window)
        ]
        assert taps == pytest.approx(want, abs=1e-12)

    def test_identity_transition_equals_pb(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(1, 9))
            d = DiscreteSystem(
                a_bar=np.eye(n),
                b_bar=rng.normal(size=n) + 1j * rng.normal(size=n),
                c_bar=rng.normal(size=n) + 1j * rng.normal(size=n),
            )
            for p in (2, 3, 5):
                kb = kb_taps(d, p, 7)
                pb = pb_taps(d, p, 7)
                assert np.max(np.abs(kb - pb)) < 1e-12

    def test_zero_input_map_annihilates(self):
        sys = DplrSystem(lam=[-1.0, -2.0], p=[0.1, 0.2], b=[0.0, 0.0], c=[1.0, 1.0])
        for taps in build_liquid_kernels(sys, 0.1, "kb", 3, 4).taps:
            assert taps == pytest.approx(np.zeros(4))

    def test_invalid_args(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            build_liquid_kernels(sys, 0.1, "kb", 1, 4)
        with pytest.raises(DimensionError):
            build_liquid_kernels(sys, 0.1, "kb", 2, 0)
        with pytest.raises(DimensionError):
            build_liquid_kernels(sys, 0.1, "sideways", 2, 4)


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
        d = DiscreteSystem(a_bar=np.eye(2), b_bar=np.array([1.0, 1.0]), c_bar=np.array([1.0, -1.0]))
        for p in (2, 3):
            assert pb_taps(d, p, 5) == pytest.approx(np.zeros(5))


class TestLiquidTerms:
    """The liquid kernels applied to the input: orders 2..P of the one sum."""

    def test_order2_matches_unrolled_term(self):
        # output[1] must equal c b^2 u0 u1, the first cross term of the
        # unrolled liquid recurrence
        a, b, c = 0.7, 1.1, 0.9
        d = scalar_discrete(a, b, c)
        u = np.array([0.8, -1.2])
        kset = _liquid_kernels(d, "kb", 2, 2)
        out = liquid_part(kset, u)
        assert out[1] == pytest.approx(c * b**2 * u[0] * u[1])

    def test_zero_input(self):
        sys = nplr_decompose(4, seed=0)
        kset = build_liquid_kernels(sys, 0.1, "pb", 3, 4)
        assert liquid_part(kset, np.zeros(16)) == pytest.approx(np.zeros(16))

    def test_single_nonzero_sample(self):
        sys = nplr_decompose(4, seed=0)
        kset = build_liquid_kernels(sys, 0.1, "kb", 4, 8)
        u = np.zeros(32)
        u[13] = 2.5
        assert liquid_part(kset, u) == pytest.approx(np.zeros(32))

    def test_degree_scaling(self):
        rng = np.random.default_rng(3)
        sys = nplr_decompose(5, seed=2)
        u = rng.normal(size=24)
        for p in (2, 3):
            # the order-p term alone is homogeneous of degree p
            taps = build_liquid_kernels(sys, 0.1, "kb", p, 6).order_taps(p)
            base = causal_conv(taps, correlation_signal(u, p))
            for alpha in (2.0, -1.0):
                scaled = causal_conv(taps, correlation_signal(alpha * u, p))
                assert np.array_equal(scaled, alpha**p * base)


class TestLiquidOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_sweep_matches_kernel_path(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            a = rng.uniform(-0.9, 0.9)
            b, c = rng.normal(size=2)
            d = scalar_discrete(a, b, c)
            u = rng.normal(size=16)
            window = int(rng.integers(1, 17))
            max_order = int(rng.integers(2, 5))
            kset = _liquid_kernels(d, "kb", max_order, window)
            combined = kernel_path(d, u, kset)
            assert np.max(np.abs(combined - liquid_oracle(d, u, max_order, window))) < 1e-10

    def test_vector_system_matches_kernel_path(self):
        rng = np.random.default_rng(42)
        sys = nplr_decompose(6, seed=1)
        d = discretize_bilinear(sys, 0.08)
        u = rng.normal(size=48)
        kset = build_liquid_kernels(sys, 0.08, "kb", 4, 12)
        combined = kernel_path(d, u, kset)
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


@pytest.mark.parametrize("shape", [(), (2, 5), (2, 1), (1, 5)])
@pytest.mark.parametrize(
    "oracle",
    [
        lambda d, u: liquid_oracle(d, u, 2, 4),
        lambda d, u: liquid_oracle_pb_reference(d, u, 2, 4),
        liquid_expansion_oracle,
    ],
    ids=["liquid_oracle", "liquid_oracle_pb_reference", "liquid_expansion_oracle"],
)
def test_brute_force_oracles_take_one_1d_sequence(oracle, shape):
    with pytest.raises(DimensionError):
        oracle(scalar_discrete(0.5, 1.0, 1.0), np.ones(shape))


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
        sys = nplr_decompose(n, seed=seed)
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
        kset = _liquid_kernels(d, "kb", 2, 3)
        kernel_sum = kernel_path(d, u, kset)
        rec = recurrent_liquid(d, u)
        missing = np.array(
            [
                0.0,
                0.0,
                c * b * (a * b) * u[0] * u[2] + c * b**3 * u[0] * u[1] * u[2],
            ]
        )
        assert rec - kernel_sum == pytest.approx(missing, abs=1e-12)


class TestForwardLiquid:
    def test_mode_none_matches_recurrent(self):
        sys = nplr_decompose(8, seed=5)
        d = discretize_bilinear(sys, 0.05)
        u = np.random.default_rng(6).normal(size=128)
        got = forward_liquid_s4(sys, 0.05, u, mode="none")
        want = recurrent_s4(d, u)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8

    def test_kb_matches_oracle(self):
        sys = nplr_decompose(4, seed=3)
        d = discretize_bilinear(sys, 0.1)
        u = np.random.default_rng(7).normal(size=16)
        got = forward_liquid_s4(sys, 0.1, u, mode="kb", max_order=3, window=8)
        assert np.max(np.abs(got - liquid_oracle(d, u, 3, 8))) < 1e-10

    def test_pb_parity_under_negation(self):
        # order-2 liquid part is even in the input, the main part is odd
        sys = nplr_decompose(4, seed=3)
        u = np.random.default_rng(8).normal(size=32)
        kset = build_liquid_kernels(sys, 0.1, "pb", 2, 8)
        main = lambda v: forward_liquid_s4(sys, 0.1, v, mode="none")
        liq = lambda v: liquid_part(kset, v)
        assert main(-u) == pytest.approx(-main(u), abs=1e-12)
        assert liq(-u) == pytest.approx(liq(u), abs=1e-12)

    def test_unknown_mode(self):
        sys = nplr_decompose(2)
        with pytest.raises(DimensionError):
            forward_liquid_s4(sys, 0.1, np.zeros(8), mode="both")

    @pytest.mark.parametrize("u", [np.float64(1.0), np.zeros((3, 0))], ids=["0-d", "empty-time-axis"])
    @pytest.mark.parametrize("mode", ["kb", "none"])
    def test_input_without_time_samples_rejected(self, u, mode):
        with pytest.raises(DimensionError, match="nonempty time axis"):
            forward_liquid_s4(nplr_decompose(4, seed=3), 0.1, u, mode=mode)

    @pytest.mark.parametrize("shape", [(0, 200), (2, 0, 200), (0, 5)])
    def test_empty_batch_gives_empty_output(self, shape):
        got = forward_liquid_s4(nplr_decompose(4, seed=3), 0.1, np.zeros(shape), mode="kb")
        assert got.shape == shape

    @pytest.mark.parametrize("mode", ["kb", "pb"])
    def test_window_bound(self, mode):
        # causal_conv accepts taps longer than the signal, so the bound is checked here
        sys = nplr_decompose(4, seed=3)
        u = np.random.default_rng(10).normal(size=16)
        assert forward_liquid_s4(sys, 0.1, u, mode=mode, window=16).shape == (16,)
        with pytest.raises(DimensionError, match="window 17 exceeds sequence length 16"):
            forward_liquid_s4(sys, 0.1, u, mode=mode, window=17)

    def test_kb_discretizes_once(self, monkeypatch):
        sys = nplr_decompose(8, seed=2)
        u = np.random.default_rng(9).normal(size=(3, 256))
        taps = [kernel_genfn(sys, 0.05, 256).taps, *build_liquid_kernels(sys, 0.05, "kb", 3, 16).taps]
        want = causal_conv(taps, correlation_signals(u, 3))
        calls = []

        def counted(*args):
            calls.append(args)
            return discretize_bilinear(*args)

        for module in (kernel, liquid, pipeline):
            monkeypatch.setattr(module, "discretize_bilinear", counted)
        got = forward_liquid_s4(sys, 0.05, u, mode="kb", max_order=3, window=16)
        assert len(calls) == 1
        assert _rel_linf(got, want) <= 1e-12  # the main order is scanned, not transformed

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
