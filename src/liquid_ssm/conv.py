"""Every causal convolution in the package, and the exact recurrent reference.

``causal_conv`` sums the convolutions of several (taps, signal) orders in
one loop that picks the algorithm per order: a Toeplitz band product for a
small input or short taps (the liquid windows), and one summed spectrum with
one inverse FFT for long explicit taps. Its two halves are shared with
``pipeline.Layer``, which builds each order's band or spectrum once
(``_tap_operator``) and sums the orders per row group (``_order_sum``).
``_BlockScan`` convolves with a system's own impulse response, the main
order of a layer, without forming it: built once per (system, L), it runs a
band product inside blocks of ``BAND_TAPS`` samples and carries the block
states by doubling. Their oracles, the direct summation
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


def _band(taps: np.ndarray, block: int, width: int) -> np.ndarray:
    """The (block, width) Toeplitz band of the taps, (H, block, width) for per-feature (H, L_k) taps."""
    lag, valid = _band_index(block, width, taps.shape[-1])
    return np.where(valid, taps.take(lag, axis=-1), 0.0)


def _band_product(band: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Causal convolution of u, along its last axis, as a product with a band from ``_band``.

    A square (L, L) band is one product with the whole signal. A (block,
    2 block) band pair [current | next], of a block of at least L_k samples,
    cuts the zero-padded signal into blocks and multiplies all of them at
    once, one row product per half: the left half gives each block's own
    output, the right half its spill into the next block, added after a
    shift of one block. A (H, ., .) band convolves feature h of u shaped
    (..., H, L) with its own band h.
    """
    l, block = u.shape[-1], band.shape[-2]
    x = u if band.ndim == 2 else u.swapaxes(0, -2)  # features first: each feature multiplies its own band
    if band.shape[-1] == block:
        y = x @ band if band.ndim == 2 else (x.reshape(len(band), -1, l) @ band).reshape(x.shape)
    else:
        blocks = -(-l // block)
        if blocks * block > l:
            x = np.concatenate([x, np.zeros(x.shape[:-1] + (blocks * block - l,))], axis=-1)
        rows = x.reshape(band.shape[:-2] + (-1, block))  # every block of every sequence, one row each
        y = (rows @ band[..., :block]).reshape(x.shape[:-1] + (blocks, block))
        y[..., 1:, :] += (rows @ band[..., block:]).reshape(y.shape)[..., :-1, :]
        y = y.reshape(x.shape)[..., :l]
    return y if band.ndim == 2 else y.swapaxes(0, -2)


def _tap_operator(taps: np.ndarray, l: int, one_block: bool, size: int) -> tuple[np.ndarray, bool]:
    """What ``_order_sum`` applies for one order: (band, True), or (spectrum at ``size``, False)
    for taps longer than ``BAND_TAPS`` above the one-block size."""
    if one_block:
        return _band(taps, l, l), True
    if taps.shape[-1] <= BAND_TAPS:
        return _band(taps, taps.shape[-1], 2 * taps.shape[-1]), True
    return np.fft.rfft(taps, n=size), False


def _order_sum(
    operators: Iterable[tuple[np.ndarray, bool]], signals: Iterable, count: int, shape: tuple[int, ...], size: int
) -> np.ndarray:
    """Sum over the orders of each tap operator applied to its signal, all signals shaped ``shape``.

    Walks the signals and the operators together, in the order given,
    drawing each order's signal before its operator, and lets go of both
    once the order is summed. Banded orders add into the time-domain sum,
    transformed ones into one spectrum, inverted once after the loop.
    """
    y = spectrum = None
    for x, op in itertools.zip_longest(signals, operators):
        x = np.asarray(x, dtype=float)
        if op is None or x.shape != shape:
            raise DimensionError(f"{count} tap sets need as many signals, all shaped {shape}")
        operator, banded = op
        if banded:
            part = _band_product(operator, x)
            y = part if y is None else iadd(y, part)
        else:
            part = np.fft.rfft(x, n=size)
            part *= operator  # in place, like the sums: one spectrum per order at a time
            spectrum = part if spectrum is None else iadd(spectrum, part)
        del op, operator, part  # no partial outlives its sum, and no order's band or spectrum its order
    if spectrum is not None:  # the spectrum is dropped before the sum, which takes a ufunc buffer
        part, spectrum = np.fft.irfft(spectrum, n=size)[..., : shape[-1]], None
        y = part if y is None else iadd(y, part)
    return y


def causal_conv(taps: np.ndarray | Sequence[np.ndarray], u: np.ndarray | Iterable[np.ndarray]) -> np.ndarray:
    """Summed non-circular causal convolution sum_p taps_p * u_p, truncated to the input length.

    Each term is y[k] = sum_{d=0}^{min(k, L_k - 1)} taps[d] * u[k - d] along
    the last axis. ``taps`` holds one tap set per order: either one (L_k,)
    sequence, against which the leading axes of the signal broadcast, or
    per-feature (H, L_k) taps against a signal shaped (..., H, L). ``u``
    holds one signal per order, all of one shape, possibly from a generator;
    one tap array and one signal are the one-order case. Any other count or
    shape of signals raises ``DimensionError``.

    One loop walks the orders in the order given, draws each order's signal
    and builds its band or tap spectrum when that order comes, and lets go
    of both once the order is summed: from a generator, only the previous
    signal is alive while the next is drawn. When L <= ``BAND_TAPS``, or
    when L <= 256 and at least L sequences share each band (per-feature
    taps give every feature its own band), every order is one product with
    its (L, L) Toeplitz band. Otherwise an order of at most ``BAND_TAPS``
    taps is a blocked product with a (L_k, 2 L_k) band, and each longer
    order adds its spectrum to one sum, inverted once after the loop and
    added to the banded sum.
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
    # the padded transform size, for a linear (not circular) convolution
    size = 0 if one_block else next_pow2(l + max(t.shape[-1] for t in taps) - 1)
    # only the shape stays: an iterator, unlike a tuple in chain, lets go of the signal once drawn
    shape, first = first.shape, iter((first,))
    operators = map(_tap_operator, taps, itertools.repeat(l), itertools.repeat(one_block), itertools.repeat(size))
    return _order_sum(operators, itertools.chain(first, signals), len(taps), shape, size)


class _BlockScan:
    """Re <c_bar, x_k> of x_k = a_bar x_{k-1} + b_bar u_k (x_{-1} = 0) along the rows of (rows, L) arrays.

    The causal convolution with the taps of the discretized system ``d``, in
    blocks of T = min(BAND_TAPS, L) samples, without a length-L kernel or a
    spectrum. The state at the end of block j is S_j = a_bar^T S_{j-1} + X_j,
    with X_j the block's own input state (from the reversed right Krylov
    block). Sample i of block j + 1 is the band product of the block's own
    samples with the (T, T) band of the first T taps plus
    Re <(a_bar*)^(i+1) c_bar, S_j> (the lift, from the left block): one
    product of [block | S_j] with the band stacked on the lift. The states
    of a row's blocks are an associative scan, ceil(log2(blocks - 1))
    doubling steps S[k:] += S[:-k] step^k for k = 1, 2, 4, ..., each one
    product over the blocks of every row. Complex products are real ones on
    [Re | Im] stacks. The operators depend only on (d, L) and are built
    once; a call costs T + 4N + 4N^2 log2(L/T) / T multiply-adds per sample.
    """

    def __init__(self, d: DiscreteSystem, l: int):
        t = min(BAND_TAPS, l)
        self.l, self.t, self.blocks = l, t, -(-l // t)
        left = _krylov_block(d.a_bar.conj().T, d.c_bar, t + 1)  # row i: (a_bar*)^i c_bar
        band = _band((left[:t].conj() @ d.b_bar).real, t, t)
        if self.blocks > 1:
            right = _krylov_block(d.a_bar, d.b_bar, t)[::-1]  # row i: a_bar^(T-1-i) b_bar
            self.right = np.hstack([right.real, right.imag])
            band = np.vstack([band, left[1:].real.T, left[1:].imag.T])  # the lift below the band
            q = np.linalg.matrix_power(d.a_bar, t).T
            step = np.block([[q.real, q.imag], [-q.imag, q.real]])  # [Re | Im] of S to that of a_bar^T S
            self.powers = []  # step^k for k = 1, 2, 4, ... below blocks - 1
            while 1 << len(self.powers) < self.blocks - 1:
                self.powers.append(step)
                step = step @ step
        self.band = band

    def __call__(self, u: np.ndarray) -> np.ndarray:
        rows, l, t, blocks = len(u), self.l, self.t, self.blocks
        if blocks == 1:
            return u @ self.band
        # row (r, j) of x is [block j of row r, zero-padded | S_(j-1) of row r, zero for j = 0]
        x = np.empty((rows, blocks, len(self.band)))
        full = l // t
        x[:, :full, :t] = u[:, : full * t].reshape(rows, full, t)
        if full < blocks:
            x[:, full, : l - full * t] = u[:, full * t :]
            x[:, full, l - full * t : t] = 0.0
        x[:, 0, t:] = 0.0
        # the input states of the first blocks - 1 blocks (the last has no block to go to), blocks
        # first, so that a shift by k blocks is a shift by k * rows rows of one product
        n2 = self.right.shape[1]
        state = (x.reshape(-1, len(self.band))[:, :t] @ self.right).reshape(rows, blocks, n2)
        state = state[:, :-1].swapaxes(0, 1).copy()
        flat = state.reshape(-1, n2)
        for i, power in enumerate(self.powers):
            k = rows << i
            flat[k:] += flat[:-k] @ power
        x[:, 1:, t:] = state.swapaxes(0, 1)
        return (x.reshape(-1, len(self.band)) @ self.band).reshape(rows, blocks * t)[:, :l]


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
