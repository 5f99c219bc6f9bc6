"""Toy-scale stacked sequence classifier and a finite-difference training demo.

The network is the smallest block that exercises the liquid mechanism inside
a model. Each layer maps x to x + gelu(main + liquid): the per-feature SSM
convolution and the optional liquid contribution are summed before the
nonlinearity, and a residual connection carries x around it. There is no
normalization, so features never mix before the mean pooling over time and
the linear readout. Training uses central finite differences (step
``FD_STEP``, momentum ``MOMENTUM``) over a deliberately tiny parameter
vector; no autodiff.

Because channels stay separate, ``SequenceClassifier.loss_and_gradient``
computes what each probe can change and nothing more. The pooled features
of all channels come from one pass per epoch, which also gives the epoch's
loss and keeps every layer's input, correlation signals and unit-energy
taps (the taps before the gain). A probe of a per-channel parameter
recomputes feature h alone, from the first layer the parameter enters:
``lift_w[h]`` or ``lift_b[h]`` lifts channel h again and runs it through
every layer; row h of ``c_re_<li>`` or ``c_im_<li>`` rebuilds channel h's
layer-li taps and convolves the cached signals; row h of ``gain_<li>``
applies the probed gain to the cached unit taps and signals. Every later
layer builds new signals of its new input and reuses its cached taps. All
of them run the one layer step x + gelu(causal_conv(taps, signals)) that
the all-channel pass runs. A probe of ``readout_w`` or ``readout_b`` only
reads the cached features out again. Every probe's logits go into one
stack, and one ``_cross_entropy`` call scores them all, so an epoch makes
two loss calls (its own loss and the stack), whatever the parameter count.
``finite_difference_gradient`` is the black-box oracle it is tested against.

Trainable parameters: the 1 -> H input lift, the per-layer per-feature
complex output maps, per-order gains, and the readout. The
diagonal-plus-low-rank core and the step sizes stay frozen at their LegS
initialization. Each layer draws its systems from ``pipeline.feature_systems``
and stacks their Krylov bases once from ``kernel._krylov_block``, so every forward
pass only contracts the bases with the output maps and makes one
order-summed ``conv.causal_conv`` call per layer (at training sizes, a few
banded-Toeplitz matmuls).

Inside a layer the main (order 1) and liquid tap sequences are normalized to
unit energy and scaled by their gains. Jointly rescaling the output and input
maps reproduces exactly this freedom (input-map scale s multiplies the
order-p path by s^p), so the gains are a reparametrization of the trainable
maps rather than an extra mechanism; without them the order-p paths start
orders of magnitude below the main path and a single learning rate cannot
balance the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import SequenceBatch, causal_conv
from .errors import DimensionError, DivergedStateError, ParameterBudgetError
from .kernel import _krylov_block
from .liquid import MAX_ORDER, correlation_signals
from .pipeline import MODES, feature_systems
from .ssm import DEFAULT_DT_MAX, discretize_bilinear, init_dt_schedule

TASK_NAMES = ("adjacent-product-sign", "impulse-memory")
PARAM_BUDGET = 2000
MOMENTUM = 0.9
FD_STEP = 1e-4
BALANCE = 0.05  # largest share by which a class of adjacent-product-sign may miss half


@dataclass(frozen=True)
class LayerConfig:
    """Configuration of one SSM layer."""

    features: int = 4
    state_size: int = 4
    mode: str = "none"  # one of MODES
    max_order: int = 2
    window: int = 8
    dt_min: float | None = None
    dt_max: float = DEFAULT_DT_MAX

    def __post_init__(self):
        if self.features < 1 or self.state_size < 1:
            raise DimensionError("features and state_size must be >= 1")
        if self.mode not in MODES:
            raise DimensionError(f"unknown mode {self.mode!r}")
        if self.mode != "none" and not 2 <= self.max_order <= MAX_ORDER:
            raise DimensionError(f"liquid order must lie in 2..{MAX_ORDER}")
        if self.mode != "none" and self.window < 1:
            raise DimensionError(f"liquid window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class ModelStack:
    """Layer list plus readout width; all layers must share a feature count."""

    layers: tuple[LayerConfig, ...]
    n_classes: int = 2

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise DimensionError("need at least one layer")
        if len({layer.features for layer in self.layers}) != 1:
            raise DimensionError("all layers must share the feature count")
        if self.n_classes < 2:
            raise DimensionError("need at least two classes")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def features(self) -> int:
        return self.layers[0].features


@dataclass(frozen=True)
class SyntheticTask:
    """Desk-scale dataset definition."""

    name: str = "adjacent-product-sign"
    length: int = 32
    n_classes: int = 2

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise DimensionError(f"unknown task {self.name!r}")
        if self.length < 2 or self.n_classes < 2:
            raise DimensionError("need length >= 2 and n_classes >= 2")
        if self.name == "adjacent-product-sign" and self.n_classes != 2:
            raise DimensionError(f"adjacent-product-sign has 2 classes, got n_classes={self.n_classes}")


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU-shaped smooth gate 0.5 x (1 + x / sqrt(1 + x^2)).

    The algebraic sigmoid keeps the forward pass free of transcendentals,
    which matters because finite-difference training re-runs it thousands of
    times; values track the usual tanh formulation to a few percent.
    """
    t = x * x  # the one temporary: every step below is the formula's own operation, in place
    t += 1.0
    np.sqrt(t, out=t)
    np.divide(x, t, out=t)
    t += 1.0
    out = 0.5 * x
    out *= t
    return out


def generate_task(task: SyntheticTask, n: int, seed: int) -> tuple[SequenceBatch, np.ndarray]:
    """Draw a labelled dataset; balanced within ``BALANCE`` per class.

    adjacent-product-sign: i.i.d. standard-normal sequences, label 1 when the
    summed lag-1 product sum_k u_k u_{k+1} is positive. The Bayes statistic is
    exactly an order-2 consecutive correlation.

    impulse-memory: a single unit impulse on a zero background, whose position
    bucket is the label.
    """
    if n < 2:
        raise DimensionError("need at least two samples")
    rng = np.random.default_rng(seed)
    l = task.length
    if task.name == "adjacent-product-sign":
        if n % 2 and 2 * n * BALANCE < 1:  # the closest split of an odd n is off by 1/(2n)
            raise DimensionError(
                f"adjacent-product-sign keeps each class share within {BALANCE} of 1/2, so an odd n "
                f"needs 1/(2n) <= {BALANCE} (n >= 11); got n={n}"
            )
        for _ in range(64):
            u = rng.standard_normal((n, l))
            labels = (np.sum(u[:, :-1] * u[:, 1:], axis=1) > 0).astype(int)
            frac = labels.mean()
            if abs(frac - 0.5) <= BALANCE:
                return SequenceBatch(u[:, :, None]), labels
        raise DimensionError("could not draw a balanced dataset")  # pragma: no cover
    # impulse-memory: round-robin bucket labels, then shuffled
    labels = np.arange(n) % task.n_classes
    rng.shuffle(labels)
    bucket = l // task.n_classes
    if bucket < 1:
        raise DimensionError("sequence too short for the class count")
    offsets = rng.integers(0, bucket, size=n)
    positions = labels * bucket + offsets
    u = np.zeros((n, l))
    u[np.arange(n), positions] = 1.0
    return SequenceBatch(u[:, :, None]), labels


class SequenceClassifier:
    """Stacked liquid-SSM classifier over single-channel sequences."""

    def __init__(self, stack: ModelStack, seq_length: int, seed: int = 0):
        self.stack = stack
        self.seq_length = int(seq_length)
        h = stack.features
        rng = np.random.default_rng(seed)

        self.params: dict[str, np.ndarray] = {"lift_w": rng.normal(0.0, 1.0, h), "lift_b": np.zeros(h)}
        # frozen per-layer Krylov bases, order 1 first: a^t b for the main taps, and
        # for each liquid order p, a^t b^p (KB) or b^p repeated (PB, identity transition)
        self._bases: list[list[np.ndarray]] = []  # [order - 1] -> (H, N, L_k)
        for li, layer in enumerate(stack.layers):
            if layer.mode != "none" and layer.window > self.seq_length:  # taps past L would enter the unit norm
                raise DimensionError(f"window {layer.window} exceeds sequence length {self.seq_length}")
            dts = init_dt_schedule(h, layer.dt_min, layer.dt_max, seed * 1000 + li, seq_length)
            bank = feature_systems(layer.state_size, h, seed * 1000 + 97 * li, dts)
            ds = [discretize_bilinear(sys_, dt) for sys_, dt in bank]
            eye = np.eye(layer.state_size)
            orders = range(2, layer.max_order + 1) if layer.mode != "none" else ()
            self._bases.append([np.stack([_krylov_block(d.a_bar, d.b_bar, seq_length).T for d in ds])] + [
                np.stack([
                    _krylov_block(d.a_bar if layer.mode == "kb" else eye, d.b_bar**p, layer.window).T for d in ds
                ])
                for p in orders
            ])
            cs = np.stack([sys_.c for sys_, _ in bank]) / np.sqrt(layer.state_size)
            self.params[f"c_re_{li}"] = cs.real.copy()
            self.params[f"c_im_{li}"] = cs.imag.copy()
            self.params[f"gain_{li}"] = np.ones((h, len(self._bases[li])))  # column p - 1: order p
        self.params["readout_w"] = rng.normal(0.0, 0.1, (h, stack.n_classes))
        self.params["readout_b"] = np.zeros(stack.n_classes)
        self._order = sorted(self.params)
        # the readout mixes the pooled features; every other parameter is indexed by channel on axis 0
        self._readout_names = ("readout_w", "readout_b")

    # -- parameter vector plumbing ------------------------------------------

    @property
    def param_count(self) -> int:
        return sum(self.params[k].size for k in self._order)

    def get_param_vector(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in self._order])

    def set_param_vector(self, vec: np.ndarray):
        if vec.size != self.param_count:
            raise DimensionError(
                f"parameter vector has length {vec.size}, expected {self.param_count}"
            )
        pos = 0
        for k in self._order:
            size = self.params[k].size
            self.params[k] = vec[pos : pos + size].reshape(self.params[k].shape).copy()
            pos += size

    # -- forward -------------------------------------------------------------

    def _unit_taps(self, li: int, channels: slice = slice(None)) -> list[np.ndarray]:
        """Per-order taps of layer li, orders 1..P, each (H, L_k), at unit energy: the taps before the gain.

        ``channels`` selects the rows (features) to build; the other rows are not computed.
        """
        c = self.params[f"c_re_{li}"][channels] + 1j * self.params[f"c_im_{li}"][channels]
        taps = [np.einsum("hn,hnt->ht", c.conj(), kry[channels]).real for kry in self._bases[li]]
        return [t / np.maximum(np.linalg.norm(t, axis=-1, keepdims=True), 1e-12) for t in taps]

    def _lift(self, u: np.ndarray, channels: slice = slice(None)) -> np.ndarray:
        """The 1 -> H input lift of raw sequences u (n, L), as (n, h, L) for the selected channels."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.seq_length:
            raise DimensionError(
                f"expected (n, {self.seq_length}) inputs, got {u.shape}"
            )
        return u[:, None, :] * self.params["lift_w"][channels, None] + self.params["lift_b"][channels, None]

    def _pass(self, u: np.ndarray) -> tuple[np.ndarray, list]:
        """Pooled features (n, H) of raw sequences u (n, L) and, for every layer, (signals, unit taps).

        The signals are the layer's correlation signals, order 1 being its
        input; the unit taps are its taps at unit energy, before the gain.
        """
        x, layers = self._lift(u), []
        for li in range(self.stack.depth):
            unit = self._unit_taps(li)
            signals = list(correlation_signals(x, len(unit)))
            layers.append((signals, unit))
            x = _layer_step(x, _gained(unit, self.params[f"gain_{li}"]), signals)
        return x.mean(axis=2), layers

    def features(self, u: np.ndarray) -> np.ndarray:
        """Pooled features (n, H) of raw sequences u (n, L): lift, every layer, mean over time."""
        return self._pass(u)[0]

    def readout(self, pooled: np.ndarray) -> np.ndarray:
        """Logits of pooled (n, H) features."""
        return pooled @ self.params["readout_w"] + self.params["readout_b"]

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Logits for a batch of raw sequences u (n, L)."""
        return self.readout(self.features(u))

    def loss_and_accuracy(self, u: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """Mean softmax cross-entropy and top-1 accuracy."""
        return _cross_entropy(self.forward(u), labels)

    def loss_and_gradient(self, u: np.ndarray, labels: np.ndarray) -> tuple[float, float, np.ndarray]:
        """Loss, accuracy and central finite-difference gradient at the current parameters.

        Probes run in the parameter-vector order, with the step and the central
        difference of ``finite_difference_gradient``. Each moves its entry in
        place by h = ``FD_STEP`` * max(1, |theta_i|) either way and restores it,
        also when the probe raises. The epoch's all-channel pass keeps, for
        every layer, its correlation signals (order 1 is the layer's input)
        and its unit-energy taps. A probe of row h of a per-channel parameter
        recomputes channel h's column of the pooled features from the first
        layer the parameter enters, and only what the probe changes there:
        a ``lift_*`` probe lifts channel h again and runs it through every
        layer; a ``c_re_<li>``/``c_im_<li>`` probe rebuilds channel h's
        layer-li unit taps and reuses the layer's cached signals; a
        ``gain_<li>`` probe reuses both and applies the probed gain. Later
        layers reuse their cached unit taps, with new signals of the new
        input. A readout probe reuses the pooled features as they are. Every
        probe's logits are stacked as (2 * ``param_count``, n, C) and scored
        by one ``_cross_entropy`` call.
        """
        pooled, cache = self._pass(u)
        loss, acc = _cross_entropy(self.readout(pooled), labels)
        logits, steps = [], []
        for name in self._order:
            values = self.params[name]
            for idx in np.ndindex(values.shape):
                old = values[idx]
                h = FD_STEP * max(1.0, abs(old))
                try:
                    for value in (old + h, old - h):
                        values[idx] = value
                        probe = pooled
                        if name not in self._readout_names:
                            probe = pooled.copy()
                            probe[:, idx[0] : idx[0] + 1] = self._probe_column(name, idx[0], u, cache)
                        logits.append(self.readout(probe))
                finally:
                    values[idx] = old
                steps.append(h)
        probed = _cross_entropy(np.stack(logits), labels)[0].reshape(-1, 2)
        return loss, acc, (probed[:, 0] - probed[:, 1]) / (2.0 * np.array(steps))

    def _probe_column(self, name: str, h: int, u: np.ndarray, cache: list) -> np.ndarray:
        """Pooled column (n, 1) of channel h after a probe of ``name``, recomputing only what it changes.

        ``cache`` holds each layer's (signals, unit taps) from the all-channel pass.
        """
        channel = slice(h, h + 1)
        lifted = name.startswith("lift")
        first = 0 if lifted else int(name.rsplit("_", 1)[1])
        x = self._lift(u, channel) if lifted else cache[first][0][0][:, channel]
        for li in range(first, self.stack.depth):
            signals, unit = cache[li]
            cached_input = li == first and not lifted
            if cached_input and name.startswith("c_"):
                unit = self._unit_taps(li, channel)
            else:
                unit = [t[channel] for t in unit]
            signals = [s[:, channel] for s in signals] if cached_input else correlation_signals(x, len(unit))
            x = _layer_step(x, _gained(unit, self.params[f"gain_{li}"][channel]), signals)
        return x.mean(axis=2)


def _gained(unit: list[np.ndarray], gains: np.ndarray) -> list[np.ndarray]:
    """Unit-energy taps (H, L_k) per order scaled by the gains (H, P), column p - 1 for order p."""
    return [t * g[:, None] for t, g in zip(unit, gains.T, strict=True)]


def _layer_step(x: np.ndarray, taps: list[np.ndarray], signals) -> np.ndarray:
    """One layer on its input x (n, h, L): x + gelu(sum_p taps_p * signals_p), signals of orders 1..P.

    The same arithmetic for every width, so channel h alone gives column h of
    the all-channel step bit for bit: ``causal_conv`` picks its branch per band.
    """
    return x + gelu(causal_conv(taps, signals))


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and top-1 accuracy of logits (..., n, classes).

    Reduces over the last two axes: logits (n, classes) give two floats, a
    stack (R, n, classes) gives two (R,) arrays, each entry equal to the call
    on its slice.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=-1))
    nll = logz - shifted[..., np.arange(len(labels)), labels]
    loss = np.mean(nll, axis=-1)
    acc = np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
    if logits.ndim == 2:
        return float(loss), float(acc)
    return loss, acc


def finite_difference_gradient(f, theta: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Central finite-difference gradient, step rel_step * max(1, |theta_i|).

    The black-box oracle for ``SequenceClassifier.loss_and_gradient``: every
    probe re-evaluates ``f`` on a perturbed copy of the whole vector.
    """
    grad = np.empty_like(theta)
    for i in range(theta.size):
        h = rel_step * max(1.0, abs(theta[i]))
        probe = theta.copy()
        probe[i] = theta[i] + h
        up = f(probe)
        probe[i] = theta[i] - h
        down = f(probe)
        grad[i] = (up - down) / (2.0 * h)
    return grad


def train_demo(
    model: SequenceClassifier,
    task: SyntheticTask,
    epochs: int,
    lr: float,
    seed: int,
    n_train: int = 200,
) -> dict:
    """Train by central finite differences with a plain momentum update.

    Refuses models over ``PARAM_BUDGET`` parameters or with fewer readout
    classes than the task, and raises ``DivergedStateError`` once a loss or
    the parameters stop being finite.
    Deterministic under a fixed seed: the dataset, the probe order, and the
    update rule contain no other randomness, and the forward pass has none.
    Returns a report with per-epoch loss/accuracy, final metrics, the seed,
    and a configuration echo.
    """
    if model.param_count > PARAM_BUDGET:
        raise ParameterBudgetError(model.param_count, PARAM_BUDGET)
    if task.n_classes > model.stack.n_classes:
        raise DimensionError(f"task has {task.n_classes} classes but the readout has {model.stack.n_classes}")
    batch, labels = generate_task(task, n_train, seed)
    u = batch.values[:, :, 0]
    theta = model.get_param_vector()
    velocity = np.zeros_like(theta)
    losses, accuracies = [], []

    def refuse_non_finite(epoch: int, loss: float):
        if not (np.isfinite(loss) and np.all(np.isfinite(theta))):
            raise DivergedStateError(epoch, f"training diverged at epoch {epoch}: non-finite loss or parameters")

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused instead
        for epoch in range(epochs):
            model.set_param_vector(theta)
            loss, acc, grad = model.loss_and_gradient(u, labels)
            velocity = MOMENTUM * velocity - lr * grad
            theta = theta + velocity
            refuse_non_finite(epoch, loss)
            losses.append(loss)
            accuracies.append(acc)
        model.set_param_vector(theta)
        final_loss, final_acc = model.loss_and_accuracy(u, labels)
        refuse_non_finite(epochs, final_loss)
    layer0 = model.stack.layers[0]
    return {
        "task": task.name,
        "seed": int(seed),
        "epochs": int(epochs),
        "lr": float(lr),
        "n_train": int(n_train),
        "param_count": int(model.param_count),
        "config": {
            "depth": model.stack.depth,
            "features": layer0.features,
            "state_size": layer0.state_size,
            "mode": layer0.mode,
            "max_order": layer0.max_order,
            "window": layer0.window,
            "length": model.seq_length,
            "classes": model.stack.n_classes,
        },
        "loss": [float(v) for v in losses],
        "accuracy": [float(v) for v in accuracies],
        "final_loss": float(final_loss),
        "final_accuracy": float(final_acc),
    }
