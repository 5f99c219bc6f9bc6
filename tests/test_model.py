import numpy as np
import pytest

from liquid_ssm.conv import causal_conv_direct, recurrent_s4
from liquid_ssm.errors import DimensionError, ParameterBudgetError
from liquid_ssm.kernel import kernel_naive
from liquid_ssm.liquid import _kb_taps_discrete, _pb_taps_discrete
from liquid_ssm.model import (
    LayerConfig,
    ModelStack,
    SequenceClassifier,
    SyntheticTask,
    finite_difference_gradient,
    gelu,
    generate_task,
    train_demo,
)
from liquid_ssm.pipeline import feature_systems
from liquid_ssm.ssm import discretize_bilinear, init_dt_schedule, nplr_decompose, with_output_map


def window_products(u, p):
    """u[k] u[k-1] ... u[k-p+1], zero for k < p-1."""
    return np.concatenate([np.zeros(p - 1), np.prod([u[j : len(u) - p + 1 + j] for j in range(p)], axis=0)])


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

    def test_unknown_task(self):
        with pytest.raises(DimensionError):
            SyntheticTask(name="parity")


class TestForward:
    def test_linear_single_layer_equals_pooled_recurrence(self):
        # unit lift, identity readout: logits must reduce to the pooled
        # residual plus GELU of the recurrent outputs per feature
        layer = LayerConfig(features=2, state_size=3, mode="none")
        stack = ModelStack(layers=(layer,), n_classes=2)
        model = SequenceClassifier(stack, seq_length=16, seed=0)
        model.params["lift_w"] = np.ones(2)
        model.params["lift_b"] = np.zeros(2)
        model.params["gain_main_0"] = np.ones(2)
        model.params["readout_w"] = np.eye(2)
        model.params["readout_b"] = np.zeros(2)

        u = np.random.default_rng(0).normal(size=(5, 16))
        logits = model.forward(u)

        base = nplr_decompose(3, seed=0)
        schedule = init_dt_schedule(2, dt_min=None, dt_max=0.2, seed=0, seq_length=16)
        for h in range(2):
            sysh = with_output_map(base, 0 * 1000 + 97 * 0 + h)
            sysh = type(sysh)(lam=sysh.lam, p=sysh.p, b=sysh.b, c=sysh.c / np.sqrt(3), basis=sysh.basis)
            d = discretize_bilinear(sysh, float(schedule.per_feature_dt[h]))
            taps = np.array([np.vdot(d.c_bar, np.linalg.matrix_power(d.a_bar, i) @ d.b_bar).real for i in range(16)])
            scale = np.linalg.norm(taps)
            for bi in range(5):
                want = (u[bi] + gelu(recurrent_s4(d, u[bi]) / scale)).mean()
                assert logits[bi, h] == pytest.approx(want, rel=1e-8)

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
        main_pos, liq_pos = model.layer_contributions(0, x)
        main_neg, liq_neg = model.layer_contributions(0, -x)
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
            main, liquid = model.layer_contributions(0, lifted)
            assert np.max(np.abs(main)) < 1e6
            assert np.max(np.abs(liquid)) < 1e6
            logits = model.forward(u)
            assert np.all(np.abs(logits) < 1e6)

    @pytest.mark.parametrize("mode", ["kb", "pb"])
    def test_layer_contributions_match_oracle_taps(self, mode):
        # each layer's main and liquid paths are the unit-normalised oracle
        # taps of its feature_systems bank, convolved by direct summation
        layer = LayerConfig(features=3, state_size=5, mode=mode, max_order=3, window=6, dt_min=0.02)
        seed, length = 2, 20
        model = SequenceClassifier(ModelStack(layers=(layer, layer)), seq_length=length, seed=seed)
        oracle = _kb_taps_discrete if mode == "kb" else _pb_taps_discrete
        x = np.random.default_rng(5).normal(size=(2, 3, length))
        for li in range(2):
            schedule = init_dt_schedule(3, 0.02, 0.2, seed * 1000 + li, length)
            bank = feature_systems(5, 3, seed * 1000 + 97 * li, schedule)
            main, liquid = model.layer_contributions(li, x)
            for h, (sys_, dt) in enumerate(bank):
                d = discretize_bilinear(sys_, dt)
                taps = {1: kernel_naive(d, length).taps}
                taps.update({p: oracle(d, p, 6).real for p in (2, 3)})
                taps = {p: t / np.linalg.norm(t) for p, t in taps.items()}
                for b in range(2):
                    u = x[b, h]
                    want_liquid = sum(causal_conv_direct(taps[p], window_products(u, p)) for p in (2, 3))
                    assert np.max(np.abs(main[b, h] - causal_conv_direct(taps[1], u))) < 1e-12
                    assert np.max(np.abs(liquid[b, h] - want_liquid)) < 1e-12

    def test_shape_mismatch(self):
        model = SequenceClassifier(small_stack(), seq_length=16, seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((2, 8)))

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


class TestTrainDemo:
    def test_budget_guard(self):
        layer = LayerConfig(features=24, state_size=12, mode="pb", max_order=4, window=8)
        stack = ModelStack(layers=(layer, layer, layer))
        model = SequenceClassifier(stack, seq_length=32, seed=0)
        assert model.param_count > 2000
        task = SyntheticTask(name="adjacent-product-sign", length=32)
        with pytest.raises(ParameterBudgetError) as exc:
            train_demo(model, task, epochs=1, lr=0.1, seed=0)
        assert exc.value.count == model.param_count

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

    def test_stack_validation(self):
        with pytest.raises(DimensionError):
            ModelStack(layers=())
        with pytest.raises(DimensionError):
            ModelStack(layers=(LayerConfig(features=2), LayerConfig(features=3)))
