"""Every causal convolution in the package, and the exact recurrent reference.

``causal_conv`` sums the convolutions of several (taps, signal) orders and
picks the algorithm per order. A small input puts every order through one
(L, L) Toeplitz band. Otherwise an order of at most ``BAND_TAPS`` taps (the
short liquid windows) goes through a blocked Toeplitz band, and the longer
orders (the main kernel) share one summed spectrum and its one inverse FFT;
the two partial sums are added in the time domain. Both algorithms and the
direct O(L^2) summation ``causal_conv_direct`` are deliberately independent
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
# longest taps that take the blocked band above the one-block size; longer taps are transformed
BAND_TAPS = 64


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


def _checked_taps(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``taps`` as a float array, after checking its shape against the signal ``u``."""
    taps = np.asarray(taps, dtype=float)
    if taps.ndim not in (1, 2) or taps.shape[-1] == 0:
        raise DimensionError("taps must be a nonempty (L_k,) or (H, L_k) array")
    if taps.ndim == 2 and (u.ndim < 2 or u.shape[-2] != taps.shape[0]):
        raise DimensionError(f"per-feature taps {taps.shape} need u shaped (..., {taps.shape[0]}, L)")
    return taps


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


@lru_cache(maxsize=32)
def _band_index(rows: int, cols: int, lk: int) -> tuple[np.ndarray, np.ndarray]:
    """Lag and mask of a (rows, cols) band: entry [in, out] holds taps[out - in] where 0 <= out - in < lk."""
    lag = np.arange(cols)[None, :] - np.arange(rows)[:, None]
    valid = (lag >= 0) & (lag < lk)
    lag = np.clip(lag, 0, lk - 1)
    lag.flags.writeable = valid.flags.writeable = False
    return lag, valid


def _band_product(taps: np.ndarray, u: np.ndarray, block: int) -> np.ndarray:
    """Causal convolution as a product with the Toeplitz band of the taps, ``block`` samples at a time.

    One block (``block >= L``) is one product with the (L, L) band. A shorter
    block, of at least L_k samples, cuts the zero-padded signal into blocks
    and multiplies all of them by the (block, 2 block) band pair
    [current | next], one row product per half: the left half gives each
    block's own output, the right half its spill into the next block, added
    after a shift of one block.
    """
    l = u.shape[-1]
    blocks = -(-l // block)
    width = block if blocks == 1 else 2 * block
    lag, valid = _band_index(block, width, taps.shape[-1])
    band = np.where(valid, np.take(taps, lag, axis=-1), 0.0)  # (block, width) or (H, block, width)
    x = u if taps.ndim == 1 else u.swapaxes(0, -2)  # features first: each feature multiplies its own band
    if blocks == 1:
        y = x @ band if taps.ndim == 1 else (x.reshape(taps.shape[0], -1, l) @ band).reshape(x.shape)
    else:
        if blocks * block > l:
            x = np.concatenate([x, np.zeros(x.shape[:-1] + (blocks * block - l,))], axis=-1)
        rows = x.reshape(taps.shape[:-1] + (-1, block))  # every block of every sequence, one row each
        y = (rows @ band[..., :block]).reshape(x.shape[:-1] + (blocks, block))
        y[..., 1:, :] += (rows @ band[..., block:]).reshape(y.shape)[..., :-1, :]
        y = y.reshape(x.shape)[..., :l]
    return y if taps.ndim == 1 else y.swapaxes(0, -2)


def causal_conv(taps: np.ndarray | Sequence[np.ndarray], u: np.ndarray | Iterable[np.ndarray]) -> np.ndarray:
    """Summed non-circular causal convolution sum_p taps_p * u_p, truncated to the input length.

    Each term is y[k] = sum_{d=0}^{min(k, L_k - 1)} taps[d] * u[k - d] along
    the last axis. ``taps`` holds one tap set per order: either one (L_k,)
    sequence, against which the leading axes of the signal broadcast, or
    per-feature (H, L_k) taps against a signal shaped (..., H, L). ``u``
    holds the matching signals of one shape, possibly from a generator; one
    tap array and one signal are the one-order case.

    Picks the algorithm per order. When L <= 64, or when L <= 256 and at
    least L sequences share each band (per-feature taps give every feature
    its own band), every order is one product with its (L, L) Toeplitz band.
    Otherwise an order of at most ``BAND_TAPS`` taps is a blocked product
    with a (L_k, 2 L_k) band, taken as soon as its signal arrives, and the
    longer orders add their spectra for one inverse FFT; the two partial
    sums are added in the time domain.
    """
    if isinstance(taps, np.ndarray):
        taps, u = (taps,), (u,)
    signals = iter(u)
    first = np.asarray(next(signals), dtype=float)
    taps = [_checked_taps(t, first) for t in taps]
    rest = (np.asarray(x, dtype=float) for x in signals)
    l = first.shape[-1]
    bands = max((t.shape[0] for t in taps if t.ndim == 2), default=1)
    if l <= 64 or (l <= 256 and first.size // bands >= l * l):
        pairs = zip(taps, itertools.chain([first], rest), strict=True)
        return reduce(iadd, (_band_product(t, x, l) for t, x in pairs))  # summed in place
    # the first signal is held anyway, so it comes last: no spectrum is alive while short orders are banded
    pairs = itertools.chain(zip(taps[1:], rest, strict=True), [(taps[0], first)])
    long_lk = max((t.shape[-1] for t in taps if t.shape[-1] > BAND_TAPS), default=0)
    if not long_lk:
        return reduce(iadd, (_band_product(t, x, t.shape[-1]) for t, x in pairs))
    banded = None

    def long_pairs():  # a short order met on the way is banded at once, so no signal is held
        nonlocal banded
        for t, x in pairs:
            if t.shape[-1] > BAND_TAPS:
                yield t, x
            else:
                part = _band_product(t, x, t.shape[-1])
                banded = part if banded is None else iadd(banded, part)

    y = _spectral_sum(long_pairs(), l, long_lk)
    return y if banded is None else iadd(y, banded)


def causal_conv_direct(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Direct-summation twin of one order of ``causal_conv`` (1-D only, O(L^2))."""
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
