"""Every causal convolution in the package, and the exact recurrent reference.

``causal_conv`` sums the convolutions of several (taps, signal) orders and
picks accumulated banded matmuls or one summed-spectrum FFT from the input
size. The FFT path and the direct O(L^2) summation are deliberately independent
implementations of the same contract; tests hold them to 1e-10 of each other.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import iadd

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


def _spectral_sum(pairs: Iterable[tuple[np.ndarray, np.ndarray]], l: int, lk: int) -> np.ndarray:
    """Summed causal convolution of (taps, signal) pairs by one inverse FFT of the summed spectra.

    Zero-padding to a power of two >= L + L_k - 1 makes the circular transform linear.
    """
    size = next_pow2(l + lk - 1)

    def term(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfft(x, n=size)
        spectrum *= np.fft.rfft(t, n=size)  # in place, like the sum: one spectrum per order at a time
        return spectrum

    return np.fft.irfft(reduce(iadd, (term(t, x) for t, x in pairs)), n=size)[..., :l]


def causal_conv_fft(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Non-circular causal convolution, truncated to the input length.

    y[k] = sum_{d=0}^{min(k, L_k - 1)} taps[d] * u[k - d]

    Works on the last axis. Taps are either one (L_k,) sequence, against
    which the leading axes of ``u`` broadcast, or per-feature (H, L_k) taps
    against ``u`` shaped (..., H, L).
    """
    taps, u = _operands(taps, u)
    return _spectral_sum([(taps, u)], u.shape[-1], taps.shape[-1])


@lru_cache(maxsize=32)
def _band_index(l: int, lk: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag and mask of the (L, L) band: entry [in, out] holds taps[out - in] where 0 <= out - in < lk."""
    lag = np.arange(l)[None, :] - np.arange(l)[:, None]
    valid = (lag >= 0) & (lag < lk)
    lag = np.clip(lag, 0, lk - 1)
    lag.flags.writeable = valid.flags.writeable = False
    return lag, valid


def _band_product(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Causal convolution as a product with the (L, L) Toeplitz band of the taps."""
    l = u.shape[-1]
    lag, valid = _band_index(l, taps.shape[-1])
    band = np.where(valid, np.take(taps, lag, axis=-1), 0.0)  # (L, L) or (H, L, L)
    if taps.ndim == 1:
        return u @ band
    x = u.swapaxes(0, -2)  # features first: each feature multiplies its own band
    return (x.reshape(taps.shape[0], -1, l) @ band).reshape(x.shape).swapaxes(0, -2)


def causal_conv(taps: np.ndarray | Sequence[np.ndarray], u: np.ndarray | Iterable[np.ndarray]) -> np.ndarray:
    """Summed causal convolution sum_p taps_p * u_p, each term with the contract of ``causal_conv_fft``.

    ``taps`` holds one (L_k,) or (H, L_k) tap set per order and ``u`` the
    matching signals of one shape, possibly from a generator; one tap array
    and one signal are the one-order case. Accumulates products with the
    (L, L) Toeplitz bands when L <= 64, or when L <= 256 and at least L
    sequences share each band (per-feature taps give every feature its own
    band); otherwise sums spectra.
    """
    if isinstance(taps, np.ndarray):
        taps, u = (taps,), (u,)
    signals = iter(u)
    first = np.asarray(next(signals), dtype=float)
    taps = [_operands(t, first)[0] for t in taps]
    rest = (np.asarray(x, dtype=float) for x in signals)
    pairs = zip(taps, itertools.chain([first], rest), strict=True)
    l = first.shape[-1]
    bands = max((t.shape[0] for t in taps if t.ndim == 2), default=1)
    if l > 64 and (l > 256 or first.size // bands < l * l):
        return _spectral_sum(pairs, l, max(t.shape[-1] for t in taps))
    return reduce(iadd, (_band_product(t, x) for t, x in pairs))  # summed in place


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
