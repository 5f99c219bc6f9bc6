"""Every causal convolution in the package, and the exact recurrent reference.

``causal_conv`` picks a banded matmul or ``causal_conv_fft`` from the input
size. The FFT path and the direct O(L^2) summation are deliberately independent
implementations of the same contract; tests hold them to 1e-10 of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DivergedStateError
from .ssm import DiscreteSystem

_DIVERGENCE_LIMIT = 1e100


@dataclass(frozen=True)
class SequenceBatch:
    """Real-valued sequences, shaped (batch, length, features)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise DimensionError("expected (batch, length, features) values")
        if not np.all(np.isfinite(v)):
            raise DimensionError("non-finite sequence values")
        object.__setattr__(self, "values", v)

    @property
    def batch(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    @property
    def features(self) -> int:
        return self.values.shape[2]


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (and >= 1)."""
    return 1 << max(0, int(n - 1).bit_length())


def _operands(taps: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    taps = np.asarray(taps, dtype=float)
    u = np.asarray(u, dtype=float)
    if taps.ndim not in (1, 2) or taps.shape[-1] == 0:
        raise DimensionError("taps must be a nonempty (L_k,) or (H, L_k) array")
    if taps.ndim == 2 and (u.ndim < 2 or u.shape[-2] != taps.shape[0]):
        raise DimensionError(f"per-feature taps {taps.shape} need u shaped (..., {taps.shape[0]}, L)")
    return taps, u


def causal_conv_fft(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Non-circular causal convolution, truncated to the input length.

    y[k] = sum_{d=0}^{min(k, L_k - 1)} taps[d] * u[k - d]

    Both operands are zero-padded to the next power of two at or above
    L + L_k - 1, so the circular transform realizes an exact linear
    convolution. Works on the last axis. Taps are either one (L_k,) sequence,
    against which the leading axes of ``u`` broadcast, or per-feature (H, L_k)
    taps against ``u`` shaped (..., H, L).
    """
    taps, u = _operands(taps, u)
    l = u.shape[-1]
    size = next_pow2(l + taps.shape[-1] - 1)
    y = np.fft.irfft(np.fft.rfft(u, n=size) * np.fft.rfft(taps, n=size), n=size)
    return y[..., :l]


@lru_cache(maxsize=32)
def _band_index(l: int, lk: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag and mask of the (L, L) band: entry [in, out] holds taps[out - in] where 0 <= out - in < lk."""
    lag = np.arange(l)[None, :] - np.arange(l)[:, None]
    valid = (lag >= 0) & (lag < lk)
    lag = np.clip(lag, 0, lk - 1)
    lag.flags.writeable = valid.flags.writeable = False
    return lag, valid


def causal_conv(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Causal convolution with the contract of ``causal_conv_fft``.

    Multiplies by the (L, L) Toeplitz band of the taps when L <= 64, or when
    L <= 256 and u holds at least L sequences to share the cost of building
    the band; longer or fewer sequences go through ``causal_conv_fft``.
    """
    taps, u = _operands(taps, u)
    l = u.shape[-1]
    if l > 64 and (l > 256 or u.size < l * l):
        return causal_conv_fft(taps, u)
    lag, valid = _band_index(l, taps.shape[-1])
    band = np.where(valid, np.take(taps, lag, axis=-1), 0.0)  # (L, L) or (H, L, L)
    if taps.ndim == 1:
        return u @ band
    x = u.swapaxes(0, -2)  # features first: each feature multiplies its own band
    return (x.reshape(taps.shape[0], -1, l) @ band).reshape(x.shape).swapaxes(0, -2)


def causal_conv_direct(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Direct-summation twin of ``causal_conv_fft`` (1-D only, O(L^2))."""
    taps = np.asarray(taps, dtype=float)
    u = np.asarray(u, dtype=float)
    l = u.shape[0]
    y = np.zeros(l)
    for d in range(min(taps.shape[0], l)):
        y[d:] += taps[d] * u[: l - d]
    return y


def _recurrence(d: DiscreteSystem, u: np.ndarray, liquid_b: np.ndarray | None) -> np.ndarray:
    """Step x_k = a_bar x_{k-1} [+ liquid_b * x_{k-1} * u_k] + b_bar u_k from x_{-1} = 0.

    The bracketed term is present when ``liquid_b`` is given. Returns Re <c_bar, x_k>.
    """
    u = np.asarray(u, dtype=float)
    x = np.zeros(d.n, dtype=complex)
    y = np.empty(u.shape[0])
    for k, uk in enumerate(u):
        ax = d.a_bar @ x
        if liquid_b is not None:
            ax += liquid_b * x * uk
        x = ax + d.b_bar * uk
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > _DIVERGENCE_LIMIT:
            raise DivergedStateError(k)
        y[k] = np.vdot(d.c_bar, x).real
    return y


def recurrent_s4(d: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Step the discrete SSM x_k = a_bar x_{k-1} + b_bar u_k, y_k = <c_bar, x_k>.

    Starts from x_{-1} = 0 and returns the real part of the output sequence.
    This is the exact reference dynamics every kernel path is checked against.
    """
    return _recurrence(d, u, None)
