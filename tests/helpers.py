"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import settings

from liquid_ssm.conv import causal_conv
from liquid_ssm.kernel import _rel_linf as rel_linf  # noqa: F401
from liquid_ssm.liquid import correlation_signals
from liquid_ssm.model import FD_STEP, _cross_entropy, _gained
from liquid_ssm.ssm import DiscreteSystem
from liquid_ssm.verify import _random_system as random_stable_system  # noqa: F401

# the settings of the suite's hypothesis properties that draw 25 examples
PROPERTY = settings(max_examples=25, deadline=None)


def scalar_discrete(a: float, b: float, c: float) -> DiscreteSystem:
    return DiscreteSystem(
        a_bar=np.array([[a]], dtype=complex),
        b_bar=np.array([b], dtype=complex),
        c_bar=np.array([c], dtype=complex),
    )


def count_fft(monkeypatch, name: str = "irfft") -> list:
    """Record each call of the transform ``np.fft.<name>``; by default the inverse
    ``irfft``, the one inverse transform of ``causal_conv``'s FFT branch."""
    calls, transform = [], getattr(np.fft, name)

    def counted(*a, **k):
        calls.append(1)
        return transform(*a, **k)

    monkeypatch.setattr(np.fft, name, counted)
    return calls


def one_channel_features(model, u: np.ndarray, h: int) -> np.ndarray:
    """Pooled column h (n, 1) of ``model``'s features by a full one-channel pass: lift, every layer, mean."""
    channel = slice(h, h + 1)
    x = u[:, None, :] * model.params["lift_w"][channel, None] + model.params["lift_b"][channel, None]
    for li in range(model.stack.depth):
        taps = [t[channel] for t in _gained(model._unit_taps(li), model.params[f"gain_{li}"])]
        pre = causal_conv(taps, correlation_signals(x, len(taps)))
        x = x + 0.5 * pre * (1.0 + pre / np.sqrt(1.0 + pre * pre))  # gelu, as a formula
    return x.mean(axis=2)


def probe_gradient_reference(model, u: np.ndarray, labels: np.ndarray):
    """``loss_and_gradient`` with a full one-channel pass per probe of a per-channel parameter.

    The same probes, steps, stacked logits and one ``_cross_entropy`` call, but
    each probe of row h lifts channel h again and rebuilds the taps and its
    signals in every layer; nothing is kept from the all-channel pass but its
    pooled features.
    """
    pooled = model.features(u)
    loss, acc = _cross_entropy(model.readout(pooled), labels)
    logits, steps = [], []
    for name in model._order:
        values = model.params[name]
        for idx in np.ndindex(values.shape):
            old = values[idx]
            h = FD_STEP * max(1.0, abs(old))
            for value in (old + h, old - h):
                values[idx] = value
                probe = pooled
                if name not in model._readout_names:
                    probe = pooled.copy()
                    probe[:, idx[0] : idx[0] + 1] = one_channel_features(model, u, idx[0])
                logits.append(model.readout(probe))
            values[idx] = old
            steps.append(h)
    probed = _cross_entropy(np.stack(logits), labels)[0].reshape(-1, 2)
    return loss, acc, (probed[:, 0] - probed[:, 1]) / (2.0 * np.array(steps))
