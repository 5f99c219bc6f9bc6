"""Shared helpers for the test suite."""

import numpy as np

from liquid_ssm.kernel import _rel_linf as rel_linf  # noqa: F401
from liquid_ssm.ssm import DiscreteSystem
from liquid_ssm.verify import _random_system as random_stable_system  # noqa: F401


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
