from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liquid_ssm import model as model_module
from liquid_ssm.conv import causal_conv, causal_conv_direct, recurrent_s4
from liquid_ssm.errors import DimensionError, ParameterBudgetError
from liquid_ssm.kernel import _rel_linf, kernel_naive
from liquid_ssm.liquid import _kb_taps_discrete, _pb_taps_discrete, correlation_signals
from liquid_ssm.model import (
    FD_STEP,
    LayerConfig,
    ModelStack,
    SequenceClassifier,
    SyntheticTask,
    finite_difference_gradient,
    gelu,
    generate_task,
    _cross_entropy,
    _gained,
    train_demo,
)
from liquid_ssm.pipeline import MODES, feature_systems
from liquid_ssm.ssm import _legs_core, discretize_bilinear, init_dt_schedule, nplr_decompose

from helpers import PROPERTY, probe_gradient_reference


def window_products(u, p):
    """u[k] u[k-1] ... u[k-p+1] along the last axis, zero for k < p-1."""
    prods = np.prod([u[..., j : u.shape[-1] - p + 1 + j] for j in range(p)], axis=0)
    return np.concatenate([np.zeros(u.shape[:-1] + (p - 1,)), prods], axis=-1)


def layer_parts(model, li, x):
    """Layer li's pre-activation on x (n, H, L), split into its order-1 (main) and liquid terms."""
    taps = _gained(model._unit_taps(li), model.params[f"gain_{li}"])
    signals = list(correlation_signals(x, len(taps)))
    main = causal_conv(taps[0], signals[0])
    liquid = causal_conv(taps[1:], signals[1:]) if len(taps) > 1 else np.zeros_like(main)
    return main, liquid


def small_stack(mode="none", features=4, state=4):
    layer = LayerConfig(features=features, state_size=state, mode=mode, max_order=2, window=8)
    return ModelStack(layers=(layer,))


class TestGenerateTask:
    def test_all_ones_label(self):
        # positive lag-1 sum -> class 1; check the label rule on a crafted draw
        task = SyntheticTask(name="adjacent-product-sign", length=8)
        batch, labels = generate_task(task, 64, seed=0)
        u = batch.values[:, :, 0]
        stat = np.sum(u[:, :-1] * u[:, 1:], axis=1)
        assert np.array_equal(labels, (stat > 0).astype(int))

    def test_deterministic(self):
        task = SyntheticTask(name="adjacent-product-sign", length=16)
        a = generate_task(task, 50, seed=3)
        b = generate_task(task, 50, seed=3)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1], b[1])

    def test_balance(self):
        task = SyntheticTask(name="adjacent-product-sign", length=32)
        _, labels = generate_task(task, 2000, seed=1)
        assert abs(labels.mean() - 0.5) <= 0.05

    def test_impulse_memory_balance_and_recoverability(self):
        task = SyntheticTask(name="impulse-memory", length=32, n_classes=4)
        batch, labels = generate_task(task, 200, seed=0)
        counts = np.bincount(labels, minlength=4)
        assert np.all(np.abs(counts / 200 - 0.25) <= 0.05)
        positions = np.argmax(batch.values[:, :, 0], axis=1)
        assert np.array_equal(positions // 8, labels)

    @pytest.mark.parametrize("n", [2, 9, 10, 11])
    def test_odd_n_below_eleven_cannot_balance(self, n):
        # the closest split of an odd n misses half by 1/(2n), over 5 percent below n = 11
        task = SyntheticTask(name="adjacent-product-sign", length=8)
        if n == 9:
            with pytest.raises(DimensionError, match="odd n"):
                generate_task(task, n, seed=0)
        else:
            assert abs(generate_task(task, n, seed=0)[1].mean() - 0.5) <= 0.05

    def test_unknown_task(self):
        with pytest.raises(DimensionError):
            SyntheticTask(name="parity")

    def test_adjacent_product_sign_has_two_classes(self):
        with pytest.raises(DimensionError, match="n_classes=3"):
            SyntheticTask(name="adjacent-product-sign", n_classes=3)


class TestForward:
    def test_linear_single_layer_equals_pooled_recurrence(self):
        # unit lift, identity readout: logits must reduce to the pooled
        # residual plus GELU of the recurrent outputs per feature
        layer = LayerConfig(features=2, state_size=3, mode="none")
        stack = ModelStack(layers=(layer,), n_classes=2)
        model = SequenceClassifier(stack, seq_length=16, seed=0)
        model.params["lift_w"] = np.ones(2)
        model.params["lift_b"] = np.zeros(2)
        model.params["gain_0"] = np.ones((2, 1))
        model.params["readout_w"] = np.eye(2)
        model.params["readout_b"] = np.zeros(2)

        u = np.random.default_rng(0).normal(size=(5, 16))
        logits = model.forward(u)

        dts = init_dt_schedule(2, dt_min=None, dt_max=0.2, seed=0, seq_length=16)
        for h in range(2):
            sysh = nplr_decompose(3, seed=0 * 1000 + 97 * 0 + h)
            sysh = type(sysh)(lam=sysh.lam, p=sysh.p, b=sysh.b, c=sysh.c / np.sqrt(3))
            d = discretize_bilinear(sysh, float(dts[h]))
            taps = np.array([np.vdot(d.c_bar, np.linalg.matrix_power(d.a_bar, i) @ d.b_bar).real for i in range(16)])
            scale = np.linalg.norm(taps)
            want = (u + gelu(recurrent_s4(d, u) / scale)).mean(axis=1)
            assert logits[:, h] == pytest.approx(want, rel=1e-8)

    def test_zero_input_zero_bias_gives_zero_logits(self):
        model = SequenceClassifier(small_stack("pb"), seq_length=32, seed=0)
        model.params["readout_b"] = np.zeros(2)
        logits = model.forward(np.zeros((3, 32)))
        assert logits == pytest.approx(np.zeros((3, 2)), abs=1e-12)

    def test_batch_permutation_equivariance(self):
        model = SequenceClassifier(small_stack("pb"), seq_length=32, seed=1)
        u = np.random.default_rng(2).normal(size=(6, 32))
        perm = np.array([3, 0, 5, 1, 4, 2])
        assert model.forward(u[perm]) == pytest.approx(model.forward(u)[perm])

    def test_pb_layer_parity_split(self):
        # liquid part of a P=2 layer is even under input negation, main is odd
        model = SequenceClassifier(small_stack("pb"), seq_length=32, seed=0)
        x = np.random.default_rng(3).normal(size=(4, 4, 32))
        main_pos, liq_pos = layer_parts(model, 0, x)
        main_neg, liq_neg = layer_parts(model, 0, -x)
        assert main_neg == pytest.approx(-main_pos, abs=1e-12)
        assert liq_neg == pytest.approx(liq_pos, abs=1e-12)

    def test_stability_bounded_activations(self):
        for mode in ("none", "pb", "kb"):
            layer = LayerConfig(features=3, state_size=6, mode=mode, max_order=3, window=8)
            stack = ModelStack(layers=(layer, layer))
            model = SequenceClassifier(stack, seq_length=64, seed=0)
            u = np.random.default_rng(4).normal(size=(4, 64))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            lifted = u[:, None, :] * model.params["lift_w"][:, None] + model.params["lift_b"][:, None]
            main, liquid = layer_parts(model, 0, lifted)
            assert np.max(np.abs(main)) < 1e6
            assert np.max(np.abs(liquid)) < 1e6
            logits = model.forward(u)
            assert np.all(np.abs(logits) < 1e6)

    @pytest.mark.parametrize("mode", ["kb", "pb"])
    def test_layers_match_oracle_taps(self, mode):
        # each layer's main and liquid paths are the unit-normalised oracle
        # taps of its feature_systems bank, convolved by direct summation, and
        # the forward pass is exactly those layers, pooled and read out
        layer = LayerConfig(features=3, state_size=5, mode=mode, max_order=3, window=6, dt_min=0.02)
        seed, length = 2, 20
        model = SequenceClassifier(ModelStack(layers=(layer, layer)), seq_length=length, seed=seed)
        oracle = _kb_taps_discrete if mode == "kb" else _pb_taps_discrete
        u = np.random.default_rng(5).normal(size=(2, length))
        x = u[:, None, :] * model.params["lift_w"][:, None] + model.params["lift_b"][:, None]
        for li in range(2):
            schedule = init_dt_schedule(3, 0.02, 0.2, seed * 1000 + li, length)
            bank = feature_systems(5, 3, seed * 1000 + 97 * li, schedule)
            main, liquid = layer_parts(model, li, x)
            pre = np.empty_like(x)
            for h, (sys_, dt) in enumerate(bank):
                d = discretize_bilinear(sys_, dt)
                taps = {1: kernel_naive(d, length).taps}
                taps.update({p: oracle(d, p, 6).real for p in (2, 3)})
                taps = {p: t / np.linalg.norm(t) for p, t in taps.items()}
                v = x[:, h]
                want_main = causal_conv_direct(taps[1], v)
                want_liquid = sum(causal_conv_direct(taps[p], window_products(v, p)) for p in (2, 3))
                assert np.max(np.abs(main[:, h] - want_main)) < 1e-12
                assert np.max(np.abs(liquid[:, h] - want_liquid)) < 1e-12
                pre[:, h] = want_main + want_liquid
            x = x + gelu(pre)
        logits = x.mean(axis=2) @ model.params["readout_w"] + model.params["readout_b"]
        assert np.max(np.abs(model.forward(u) - logits)) < 1e-12

    def test_shape_mismatch(self):
        model = SequenceClassifier(small_stack(), seq_length=16, seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 8)))

    def test_gelu_is_its_formula_bit_for_bit(self):
        x = np.concatenate([np.random.default_rng(0).normal(0.0, 3.0, 200), [0.0, -0.0, 1e-160, 5e-324, 1e200, -1e200]])
        with np.errstate(over="ignore"):  # x * x overflows at 1e200, in both
            assert np.array_equal(gelu(x), 0.5 * x * (1.0 + x / np.sqrt(1.0 + x * x)))

    def test_gelu_shape(self):
        x = np.linspace(-4, 4, 101)
        y = gelu(x)
        assert y[50] == pytest.approx(0.0)
        assert np.all(y[x > 0] > 0)
        assert np.all(np.abs(y[x < -3]) < 0.2)


class TestParamPlumbing:
    def test_vector_roundtrip(self):
        model = SequenceClassifier(small_stack("pb"), seq_length=32, seed=0)
        vec = model.get_param_vector()
        model.set_param_vector(vec * 2.0)
        assert model.get_param_vector() == pytest.approx(vec * 2.0)
        with pytest.raises(DimensionError):
            model.set_param_vector(vec[:-1])

    def test_eigensolve_once_per_state_size(self, monkeypatch):
        _legs_core.cache_clear()
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        layer = LayerConfig(features=3, state_size=5, mode="pb", max_order=2, window=4)
        SequenceClassifier(ModelStack(layers=(layer, layer, layer)), seq_length=16, seed=0)
        assert shapes == [(5, 5)]
        for cached in _legs_core(5):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0

    def test_param_count(self):
        model = SequenceClassifier(small_stack("pb"), seq_length=32, seed=0)
        # lift 4+4, c 2*4*4, main gain 4, liquid gain 4, readout 8+2
        assert model.param_count == 58


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        f = lambda t: float(np.sum(t**2) + 3.0 * t[0])
        theta = np.array([0.5, -2.0, 4.0])
        grad = finite_difference_gradient(f, theta)
        assert grad == pytest.approx(2.0 * theta + np.array([3.0, 0.0, 0.0]), rel=1e-6)

    def test_richardson_consistency(self):
        # halved step must agree to relative 1e-3 on a handful of coordinates
        task = SyntheticTask(name="adjacent-product-sign", length=16)
        batch, labels = generate_task(task, 60, seed=0)
        u = batch.values[:, :, 0]
        model = SequenceClassifier(small_stack("pb"), seq_length=16, seed=0)

        def objective(theta):
            model.set_param_vector(theta)
            return model.loss_and_accuracy(u, labels)[0]

        theta = model.get_param_vector()
        rng = np.random.default_rng(1)
        idx = rng.choice(theta.size, size=5, replace=False)
        g1 = finite_difference_gradient(objective, theta, rel_step=1e-4)
        g2 = finite_difference_gradient(objective, theta, rel_step=5e-5)
        for i in idx:
            scale = max(abs(g1[i]), abs(g2[i]), 1e-8)
            assert abs(g1[i] - g2[i]) / scale < 1e-3


@settings(max_examples=50, deadline=None)
@given(data=st.data(), r=st.integers(1, 8), n=st.integers(1, 50), classes=st.integers(2, 4))
def test_stacked_cross_entropy_is_each_slice(data, r, n, classes):
    # one call on (R, n, C) logits scores every slice exactly as a separate (n, C) call;
    # logits up to 700 in size overflow exp unless the max is shifted out first
    values = st.floats(-700.0, 700.0, allow_nan=False)
    logits = np.array(data.draw(st.lists(values, min_size=r * n * classes, max_size=r * n * classes)))
    logits = logits.reshape(r, n, classes)
    labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    losses, accs = _cross_entropy(logits, labels)
    assert losses.shape == accs.shape == (r,)
    for i in range(r):
        loss, acc = _cross_entropy(logits[i], labels)
        assert type(loss) is float and type(acc) is float
        assert np.array_equal(losses[i], loss)
        assert accs[i] == acc


@PROPERTY
@given(
    depth=st.integers(1, 3),
    features=st.integers(1, 4),
    state=st.integers(1, 4),
    mode=st.sampled_from(MODES),
    order=st.integers(2, 3),
    classes=st.integers(2, 3),
    task_name=st.sampled_from(["adjacent-product-sign", "impulse-memory"]),
    length=st.integers(8, 32),
    seed=st.integers(0, 2**16),
)
def test_channel_gradient_matches_oracle(depth, features, state, mode, order, classes, task_name, length, seed):
    # the channel-by-channel gradient against the black-box oracle on the same objective
    layer = LayerConfig(features=features, state_size=state, mode=mode, max_order=order, window=6)
    model = SequenceClassifier(ModelStack(layers=(layer,) * depth, n_classes=classes), seq_length=length, seed=seed)
    # adjacent-product-sign has two classes; the readout stays classes wide
    task_classes = classes if task_name == "impulse-memory" else 2
    batch, labels = generate_task(SyntheticTask(name=task_name, length=length, n_classes=task_classes), 12, seed)
    u = batch.values[:, :, 0]
    theta = model.get_param_vector() + 0.3 * np.random.default_rng(seed).standard_normal(model.param_count)
    model.set_param_vector(theta)
    loss, acc, grad = model.loss_and_gradient(u, labels)
    assert np.array_equal(model.get_param_vector(), theta)  # every probe restored its entry

    def objective(vec):
        model.set_param_vector(vec)
        return model.loss_and_accuracy(u, labels)[0]

    want = finite_difference_gradient(objective, theta, rel_step=FD_STEP)
    assert _rel_linf(grad, want) <= 1e-10
    model.set_param_vector(theta)
    assert (loss, acc) == model.loss_and_accuracy(u, labels)


@pytest.mark.parametrize("mode", ["kb", "pb"])
@pytest.mark.parametrize("length, n", [(48, 12), (48, 120), (100, 12), (100, 120), (300, 12), (300, 320)])
def test_one_channel_pass_is_the_all_channel_column(length, n, mode):
    # an FD probe's one-channel layer step must equal its column of the all-channel step bit for bit at
    # every causal_conv size: one block (L = 48, or L = 100 with n >= L), blocked band plus FFT (the rest),
    # on channel h's own signals (a lift probe) or on its slice of the all-channel ones (a layer probe)
    layer = LayerConfig(features=3, state_size=4, mode=mode, max_order=3, window=8)
    model = SequenceClassifier(ModelStack(layers=(layer, layer)), seq_length=length, seed=1)
    u = np.random.default_rng(length + n).normal(0.0, 1.0, (n, length))
    x = model._lift(u)
    for li in range(2):
        unit = model._unit_taps(li)
        taps = _gained(unit, model.params[f"gain_{li}"])
        signals = list(correlation_signals(x, len(taps)))
        full = model_module._layer_step(x, taps, signals)
        for h in range(3):
            channel = slice(h, h + 1)
            assert all(map(np.array_equal, model._unit_taps(li, channel), [t[channel] for t in unit]))
            column_taps = [t[channel] for t in taps]
            own = x[:, channel].copy()
            own_step = model_module._layer_step(own, column_taps, correlation_signals(own, len(taps)))
            cached_step = model_module._layer_step(x[:, channel], column_taps, [s[:, channel] for s in signals])
            assert np.array_equal(own_step, full[:, channel])
            assert np.array_equal(cached_step, full[:, channel])
        x = full
    assert np.array_equal(x.mean(axis=2), model.features(u))


@settings(max_examples=12, deadline=None)
@given(
    depth=st.integers(1, 3),
    features=st.integers(1, 3),
    state=st.integers(1, 3),
    mode=st.sampled_from(MODES),
    order=st.integers(2, 3),
    length=st.one_of(st.sampled_from([16, 64, 65, 256, 257, 300]), st.integers(16, 300)),
    n=st.integers(2, 130),
    seed=st.integers(0, 2**16),
)
def test_gradient_is_the_full_pass_per_probe(depth, features, state, mode, order, length, n, seed):
    # reusing each layer's signals and unit taps changes no bit of the loss, accuracy or gradient
    # against one full one-channel pass per probe, at every causal_conv size: one block (L <= 64, or
    # L <= 256 with n >= L), and above it banded 8-tap liquid orders and a transformed main order
    layer = LayerConfig(features=features, state_size=state, mode=mode, max_order=order, window=8)
    model = SequenceClassifier(ModelStack(layers=(layer,) * depth), seq_length=length, seed=seed)
    rng = np.random.default_rng(seed)
    model.set_param_vector(model.get_param_vector() + 0.3 * rng.standard_normal(model.param_count))
    u = rng.normal(0.0, 1.0, (n, length))
    labels = rng.integers(0, 2, n)
    loss, acc, grad = model.loss_and_gradient(u, labels)
    want_loss, want_acc, want_grad = probe_gradient_reference(model, u, labels)
    assert (loss, acc) == (want_loss, want_acc)
    assert np.array_equal(grad, want_grad)


def spy(log, key, function):
    """``function``, logging ``key`` of its arguments and result on every call."""

    def wrapped(*args):
        out = function(*args)
        log.append(key(args, out))
        return out

    return wrapped


def assert_probe_counts(monkeypatch, depth, steps, signals, units):
    """Train two epochs of a depth-``depth`` pb model (H = N = 4, P = 2) and count its work by width.

    ``steps``, ``signals`` and ``units`` are the one-channel layer steps, signal
    builds and unit-tap builds of one epoch; the all-channel pass runs every
    layer once per epoch and once for the final loss.
    """
    layer = LayerConfig(features=4, state_size=4, mode="pb", max_order=2, window=8)
    model = SequenceClassifier(ModelStack(layers=(layer,) * depth), seq_length=32, seed=0)
    assert model.param_count == 8 + 40 * depth + 10
    widths = {"step": [], "signals": [], "units": []}
    forwards, scored = [], []
    step = spy(widths["step"], lambda a, o: o.shape[1], model_module._layer_step)
    monkeypatch.setattr(model_module, "_layer_step", step)
    monkeypatch.setattr(
        model_module, "correlation_signals", spy(widths["signals"], lambda a, o: a[0].shape[1], correlation_signals)
    )
    monkeypatch.setattr(model, "_unit_taps", spy(widths["units"], lambda a, o: o[0].shape[0], model._unit_taps))
    monkeypatch.setattr(model, "forward", spy(forwards, lambda a, o: o.shape, model.forward))
    monkeypatch.setattr(model_module, "_cross_entropy", spy(scored, lambda a, o: a[0].shape, _cross_entropy))
    epochs = 2
    train_demo(model, SyntheticTask(length=32), epochs=epochs, lr=0.1, seed=0, n_train=20)
    assert widths["step"] == ([4] * depth + [1] * steps) * epochs + [4] * depth
    assert widths["signals"] == ([4] * depth + [1] * signals) * epochs + [4] * depth
    assert widths["units"] == ([4] * depth + [1] * units) * epochs + [4] * depth
    assert len(forwards) == 1  # the final loss; an epoch reads out its features directly
    # per epoch: the base loss and one stacked call over all probes; then the final loss
    assert scored == [(20, 2), (2 * model.param_count, 20, 2)] * epochs + [(20, 2)]


class TestTrainDemo:
    def test_probe_pass_counts(self, monkeypatch):
        # train-fd's model: 16 lift, 64 c and 16 gain probe passes of one layer step each, and
        # 10 readout parameters probed on the cached features; only a lift probe builds signals
        # and only a c probe builds unit taps
        assert_probe_counts(monkeypatch, depth=1, steps=96, signals=16, units=64)

    def test_layer_probe_steps_the_later_layers(self, monkeypatch):
        # at depth 2 every layer-0 or lift probe also steps layer 1, on new signals with its cached
        # unit taps, and a layer-1 probe steps layer 1 alone: lift 16 x 2, c 64 x 2 and 64 x 1,
        # gain 16 x 2 and 16 x 1 steps
        steps, signals = 32 + 128 + 64 + 32 + 16, 32 + 64 + 16
        assert_probe_counts(monkeypatch, depth=2, steps=steps, signals=signals, units=64 + 64)

    @pytest.mark.parametrize("k", [1, 2, 7, 96])
    def test_failed_probe_restores_its_entry(self, monkeypatch, k):
        # a probe that raises must not leave its entry moved by h in the model
        model = SequenceClassifier(small_stack("kb"), seq_length=16, seed=0)
        batch, labels = generate_task(SyntheticTask(length=16), 20, 0)
        before = model.get_param_vector()
        step, calls = model_module._layer_step, []

        def failing(x, taps, signals):
            if x.shape[1] == 1:
                calls.append(x.shape)
                if len(calls) == k:
                    raise RuntimeError("probe failed")
            return step(x, taps, signals)

        monkeypatch.setattr(model_module, "_layer_step", failing)
        with pytest.raises(RuntimeError, match="probe failed"):
            model.loss_and_gradient(batch.values[:, :, 0], labels)
        assert len(calls) == k
        assert np.array_equal(model.get_param_vector(), before)

    def test_budget_guard(self):
        layer = LayerConfig(features=24, state_size=12, mode="pb", max_order=4, window=8)
        stack = ModelStack(layers=(layer, layer, layer))
        model = SequenceClassifier(stack, seq_length=32, seed=0)
        assert model.param_count > 2000
        task = SyntheticTask(name="adjacent-product-sign", length=32)
        with pytest.raises(ParameterBudgetError) as exc:
            train_demo(model, task, epochs=1, lr=0.1, seed=0)
        assert exc.value.count == model.param_count

    def test_more_task_classes_than_readout_refused(self):
        model = SequenceClassifier(small_stack("pb"), seq_length=16, seed=0)
        task = SyntheticTask(name="impulse-memory", length=16, n_classes=4)
        with pytest.raises(DimensionError, match="task has 4 classes but the readout has 2"):
            train_demo(model, task, epochs=1, lr=0.1, seed=0, n_train=20)

    def test_zero_lr_leaves_loss_unchanged(self):
        model = SequenceClassifier(small_stack("pb"), seq_length=16, seed=0)
        task = SyntheticTask(name="adjacent-product-sign", length=16)
        report = train_demo(model, task, epochs=3, lr=0.0, seed=0, n_train=40)
        assert report["loss"][0] == pytest.approx(report["loss"][-1], abs=1e-12)
        assert report["final_loss"] == pytest.approx(report["loss"][0], abs=1e-12)

    def test_deterministic_report(self):
        task = SyntheticTask(name="adjacent-product-sign", length=16)
        reports = []
        for _ in range(2):
            model = SequenceClassifier(small_stack("pb"), seq_length=16, seed=1)
            reports.append(train_demo(model, task, epochs=2, lr=0.1, seed=1, n_train=40))
        assert reports[0] == reports[1]

    def test_report_schema(self):
        model = SequenceClassifier(small_stack("none"), seq_length=16, seed=0)
        task = SyntheticTask(name="adjacent-product-sign", length=16)
        report = train_demo(model, task, epochs=2, lr=0.05, seed=0, n_train=30)
        assert set(report) >= {
            "task",
            "seed",
            "epochs",
            "lr",
            "param_count",
            "config",
            "loss",
            "accuracy",
            "final_loss",
            "final_accuracy",
        }
        assert len(report["loss"]) == 2
        assert len(report["accuracy"]) == 2


class TestConfigValidation:
    def test_layer_config_bounds(self):
        with pytest.raises(DimensionError):
            LayerConfig(mode="pb", max_order=11)
        with pytest.raises(DimensionError):
            LayerConfig(mode="wet")
        with pytest.raises(DimensionError):
            LayerConfig(features=0)
        for mode in ("kb", "pb"):
            with pytest.raises(DimensionError, match="window"):
                LayerConfig(mode=mode, window=0)
        LayerConfig(mode="none", window=0)  # no liquid taps, no window to check

    @pytest.mark.parametrize("mode", ["kb", "pb"])
    def test_window_longer_than_the_sequence_rejected(self, mode):
        # taps past L reach no output but would enter the unit-energy norm and shrink the taps that act
        layer = LayerConfig(features=2, state_size=3, mode=mode, max_order=2, window=9)
        with pytest.raises(DimensionError, match="window 9 exceeds sequence length 8"):
            SequenceClassifier(ModelStack(layers=(LayerConfig(features=2), layer)), seq_length=8)
        SequenceClassifier(ModelStack(layers=(layer,)), seq_length=9)
        SequenceClassifier(ModelStack(layers=(replace(layer, mode="none"),)), seq_length=8)

    def test_stack_validation(self):
        with pytest.raises(DimensionError):
            ModelStack(layers=())
        with pytest.raises(DimensionError):
            ModelStack(layers=(LayerConfig(features=2), LayerConfig(features=3)))
