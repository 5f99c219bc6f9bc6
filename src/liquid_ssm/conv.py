"""Every causal convolution in the package, and the exact recurrent reference.

``causal_conv`` sums the convolutions of several (taps, signal) orders in
one loop that picks the algorithm per order: a Toeplitz band product for a
small input or short taps (the liquid windows), and one summed spectrum with
one inverse FFT for long explicit taps. ``_chunked_scan`` convolves with a
system's own impulse response, the main order of a layer, without forming
it: a band product inside blocks of ``BAND_TAPS`` samples and a state
passed from block to block. Their oracles, the direct summation
``causal_conv_direct`` and the recurrence ``recurrent_s4``, take the same
(..., L) signals and per-feature taps but share none of their arithmetic;
tests hold the fast paths to them at 1e-10.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import iadd

import numpy as np

from .errors import DimensionError, DivergedStateError
from .kernel import _krylov_block
from .ssm import DiscreteSystem

_DIVERGENCE_LIMIT = 1e100
# longest taps that take the blocked band above the one-block size (longer taps are
# transformed), and the block of the chunked scan
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
    holds one signal per order, all of one shape, possibly from a generator;
    one tap array and one signal are the one-order case. Any other count or
    shape of signals raises ``DimensionError``.

    One loop walks the orders in the order given, draws each signal when
    its order comes and lets go of it once that order is summed: from a
    generator, only the previous signal is alive while the next is drawn.
    When L <= ``BAND_TAPS``, or when L <= 256 and at least L sequences share
    each band (per-feature taps give every feature its own band), every
    order is one product with its (L, L) Toeplitz band. Otherwise an order
    of at most ``BAND_TAPS`` taps is a blocked product with a (L_k, 2 L_k)
    band, and each longer order adds its spectrum to one sum, inverted once
    after the loop and added to the banded sum.
    """
    if isinstance(taps, np.ndarray):
        taps, u = (taps,), (u,)
    signals = iter(u)
    first = np.asarray(next(signals, None), dtype=float)  # no signal at all reads as 0-d
    if first.ndim == 0:
        raise DimensionError("need one signal per tap set, each with a time axis")
    taps = [_checked_taps(t, first) for t in taps]
    l = first.shape[-1]
    bands = max((t.shape[0] for t in taps if t.ndim == 2), default=1)
    one_block = l <= BAND_TAPS or (l <= 256 and first.size // bands >= l * l)
    # only the shape stays: an iterator, unlike a tuple in chain, lets go of the signal once drawn
    shape, first = first.shape, iter((first,))
    y = spectrum = None
    for t, x in itertools.zip_longest(taps, itertools.chain(first, signals)):
        x = np.asarray(x, dtype=float)
        if t is None or x.shape != shape:
            raise DimensionError(f"{len(taps)} tap sets need as many signals, all shaped {shape}")
        if one_block or t.shape[-1] <= BAND_TAPS:
            part = _band_product(t, x, l if one_block else t.shape[-1])
            y = part if y is None else iadd(y, part)
        else:
            size = next_pow2(l + max(t.shape[-1] for t in taps) - 1)  # padded: the transform is linear
            part = np.fft.rfft(x, n=size)
            part *= np.fft.rfft(t, n=size)  # in place, like the sums: one spectrum per order at a time
            spectrum = part if spectrum is None else iadd(spectrum, part)
        del part  # no partial outlives its sum
    if spectrum is not None:  # the spectrum is dropped before the sum, which takes a ufunc buffer
        part, spectrum = np.fft.irfft(spectrum, n=size)[..., :l], None
        y = part if y is None else iadd(y, part)
    return y


def _chunked_scan(d: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Re <c_bar, x_k> of x_k = a_bar x_{k-1} + b_bar u_k (x_{-1} = 0) along the last axis of u.

    The causal convolution of u with the system's taps, in blocks of
    T = min(BAND_TAPS, L) samples: inside a block one ``_band_product``
    with the (T, T) band of the first T taps; across blocks the state at
    the end of block j, S_j = a_bar^T S_{j-1} + X_j with X_j the block's own
    input state, adds Re <(a_bar*)^(i+1) c_bar, S_j> to sample i of block j + 1.
    No length-L kernel and no spectrum is formed, and the cost is
    O(T + 4N) per sample. The carries are added T blocks per sequence per
    product, so beyond the output and the block states the scan holds at
    most T^2 samples per sequence. Complex products are real ones on
    [Re | Im] stacks.
    """
    l = u.shape[-1]
    t = min(BAND_TAPS, l)
    blocks = -(-l // t)
    left = _krylov_block(d.a_bar.conj().T, d.c_bar, t + 1)  # row i: (a_bar*)^i c_bar
    x = u.reshape(-1, l)
    if blocks * t > l:
        x = np.concatenate([x, np.zeros((len(x), blocks * t - l))], axis=-1)
    rows = x.reshape(-1, t)  # every block of every sequence, one row each
    y = _band_product((left[:t].conj() @ d.b_bar).real, rows, t)
    if blocks > 1 and len(x):  # an empty batch has no carry
        right = _krylov_block(d.a_bar, d.b_bar, t)[::-1]  # row i: a_bar^(T-1-i) b_bar
        state = (rows @ np.hstack([right.real, right.imag])).reshape(len(x), blocks, 2 * d.n)
        q = np.linalg.matrix_power(d.a_bar, t).T
        step = np.block([[q.real, q.imag], [-q.imag, q.real]])  # [Re | Im] of S to that of a_bar^T S
        for j in range(1, blocks - 1):
            state[:, j] += state[:, j - 1] @ step
        # each block's carry goes to the next row of y, T blocks per sequence per product; a
        # sequence's last block has no block to go to, so its state is zeroed, not skipped
        state[:, -1] = 0.0
        state = state.reshape(len(rows), 2 * d.n)
        lift = np.vstack([left[1:].real.T, left[1:].imag.T])
        for j in range(0, len(rows) - 1, t * len(x)):
            k = min(j + t * len(x), len(rows) - 1)
            y[j + 1 : k + 1] += state[j:k] @ lift
    return y.reshape(x.shape)[:, :l].reshape(u.shape)


def causal_conv_direct(taps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Direct-summation twin of one order of ``causal_conv``, in its shapes: (L_k,) taps against
    u shaped (..., L), or per-feature (H, L_k) taps against (..., H, L)."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        raise DimensionError("the signal needs a time axis")
    taps, l = _checked_taps(taps, u), u.shape[-1]
    y = np.zeros(u.shape)
    for d in range(min(taps.shape[-1], l)):
        y[..., d:] += taps[..., d, None] * u[..., : l - d]
    return y


def _recurrence(d: DiscreteSystem, u: np.ndarray, liquid_b: np.ndarray | None) -> np.ndarray:
    """Step x_k = a_bar x_{k-1} [+ liquid_b * x_{k-1} * u_k] + b_bar u_k from x_{-1} = 0.

    The bracketed term is present when ``liquid_b`` is given. Steps u shaped
    (..., L) along its last axis with one (..., N) state, and returns Re <c_bar, x_k>
    shaped like u; raises ``DivergedStateError`` at the first step where any row diverges.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        raise DimensionError("the signal needs a time axis")
    x = np.zeros(u.shape[:-1] + (d.n,), dtype=complex)
    y = np.empty(u.shape)
    for k in range(u.shape[-1]):
        uk = u[..., k, None]
        ax = x @ d.a_bar.T
        if liquid_b is not None:
            ax += liquid_b * x * uk
        x = ax + d.b_bar * uk
        if not np.all(np.isfinite(x)) or np.max(np.abs(x), initial=0.0) > _DIVERGENCE_LIMIT:
            raise DivergedStateError(k)
        y[..., k] = (x @ d.c_bar.conj()).real
    return y


def recurrent_s4(d: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Step the discrete SSM x_k = a_bar x_{k-1} + b_bar u_k, y_k = <c_bar, x_k>.

    Starts from x_{-1} = 0 along the last axis of u shaped (..., L) and returns
    the real part of the outputs: the exact reference dynamics every kernel path is checked against.
    """
    return _recurrence(d, u, None)
