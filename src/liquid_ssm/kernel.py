"""Convolution-kernel generation: naive power iteration and the Krylov-block
path.

The naive path materializes taps[i] = <c_bar, a_bar^i b_bar> one structured
matrix-vector product at a time and serves as the oracle. The fast path cuts
the L taps into rows of T = ceil(sqrt(L)): tap jT + i is
<(a_bar*)^i c_bar, (a_bar^T)^j b_bar>, so a left block of T Krylov vectors
of c_bar under a_bar*, a right block of ceil(L/T) Krylov vectors of b_bar
under one matrix power a_bar^T, and one complex matrix product give every
tap. This is the chunked form of the recurrent view; no frequency grid, pole
or rank-1 combination is involved, and it stays accurate at any step. Each
Krylov block of l rows is filled ceil(sqrt(l)) rows per product with one
matrix power (``_krylov_block``) when the power's squarings cost less than
the row matvecs they replace; the oracle keeps the one-matvec-per-tap chain
of ``_krylov``, so it shares no rounding with the blocks. The naive and fast
paths must agree to 1e-8 relative L-infinity on any stable system.
``bench_kernel`` times both with ``_best_of``, the one round-robin timer of
the package.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError
from .ssm import DiscreteSystem, DplrSystem, discretize_bilinear


@dataclass(frozen=True)
class Kernel:
    """Real tap sequence of a convolution kernel.

    ``residual_imag`` records the largest imaginary magnitude discarded when
    taking real parts; it stays below 1e-6 for any system equivalent to a
    real one (such as a LegS system rotated into its DPLR basis, whose
    output map is rotated the same way), where it measures rounding alone.
    """

    taps: np.ndarray
    residual_imag: float

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t)):
            raise DimensionError("taps must be a finite 1-D sequence")
        object.__setattr__(self, "taps", t)


def _rel_linf(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def _krylov(a: np.ndarray, x: np.ndarray, l: int) -> Iterator[np.ndarray]:
    """Yield the Krylov sequence x, a x, ..., a^(l-1) x, one matvec per step."""
    for _ in range(l):
        yield x
        x = a @ x


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """``np.empty``, raising ``MemoryError`` also for a size numpy refuses outright."""
    try:
        return np.empty(shape, dtype)
    except ValueError as exc:  # a dimension or byte count beyond the address space
        raise MemoryError(f"cannot allocate an array of shape {shape}: {exc}") from exc


def _krylov_block(a: np.ndarray, x: np.ndarray, l: int) -> np.ndarray:
    """The (l, N) block whose row i is a^i x, in steps of s = ceil(sqrt(l)) rows.

    The first s rows come from ``_krylov``; then every s rows at once are
    the s rows before them times (a^s)^T, one product each, from one
    ``matrix_power``. Its squarings cost log2(s) N^3 flops against the
    block's l N^2, so the product form is taken only when log2(s) N <= l;
    otherwise every row comes from ``_krylov``. Allocated first, so an l
    beyond memory fails before any step is taken.
    """
    block = _empty((l, len(x)), np.result_type(a, x))
    s = math.isqrt(max(l - 1, 0)) + 1  # ceil(sqrt(l))
    if s >= l or math.log2(s) * len(x) > l:  # no product pays: every row is a matvec
        s = l
    for row, v in zip(block[:s], _krylov(a, x, s)):
        row[...] = v
    if s < l:
        q = np.linalg.matrix_power(a, s).T
        for j in range(s, l, s):
            m = min(s, l - j)
            np.matmul(block[j - s : j - s + m], q, out=block[j : j + m])
    return block


def _impulse_response(d: DiscreteSystem, l: int) -> np.ndarray:
    """Oracle complex taps <c_bar, a_bar^i b_bar> for i = 0..l-1, streamed from ``_krylov``."""
    return np.fromiter((np.vdot(d.c_bar, x) for x in _krylov(d.a_bar, d.b_bar, l)), complex, l)


def _complex_kernel(taps: np.ndarray) -> Kernel:
    return Kernel(taps=taps.real, residual_imag=float(np.max(np.abs(taps.imag))))


def kernel_naive(d: DiscreteSystem, l: int) -> Kernel:
    """Oracle kernel: l structured matrix-vector products, O(l * N^2)."""
    if l < 1:
        raise DimensionError(f"need l >= 1, got {l}")
    return _complex_kernel(_impulse_response(d, l))


def _genfn_kernel(d: DiscreteSystem, l: int) -> Kernel:
    """``kernel_genfn`` on the discretized system ``d``.

    With T = ceil(sqrt(l)), row i of the left block is (a_bar*)^i c_bar and
    row j of the right block (a_bar^T)^j b_bar, so entry (j, i) of their
    product is tap jT + i; the last row is cut at l.
    """
    if l < 1:
        raise DimensionError(f"need l >= 1, got {l}")
    t = math.isqrt(l - 1) + 1
    taps = _empty((-(-l // t), t), complex)  # first, so an l beyond memory fails before any work
    left = _krylov_block(d.a_bar.conj().T, d.c_bar, t)
    right = _krylov_block(np.linalg.matrix_power(d.a_bar, t), d.b_bar, len(taps))
    np.matmul(right, left.conj().T, out=taps)
    return _complex_kernel(taps.ravel()[:l])


def kernel_genfn(sys: DplrSystem, dt: float, l: int) -> Kernel:
    """Krylov-block kernel generation, O(N^3 log L + sqrt(L) N^2 + L N) after an O(N^2) step.

    Each Krylov block is O(L^(1/4)) sequential matvecs and as many block
    products when log2(ceil(L^(1/4))) N <= sqrt(L), else O(sqrt(L)) matvecs.
    Discretizes ``sys`` at ``dt`` and returns its first l taps
    <c_bar, a_bar^k b_bar> from one left Krylov block of T = ceil(sqrt(l))
    rows, one right block of ceil(l/T) rows under a_bar^T, and their
    product. The name is kept from the generating-function pass it replaced.
    """
    return _genfn_kernel(discretize_bilinear(sys, dt), l)


def _best_of(calls: list[Callable[[], object]], rounds: int) -> list[float]:
    """Best wall time in seconds of each call over ``rounds`` round-robin passes.

    Every pass runs each call once, so a slow spell of the host lands on all
    calls alike instead of on the one that happened to be running.
    """
    best = [np.inf] * len(calls)
    for _ in range(rounds):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def bench_kernel(
    sys: DplrSystem,
    dt: float,
    l_list: list[int],
    repeats: int = 3,
) -> dict:
    """Time the naive and Krylov-block paths over a length sweep.

    The agreement check runs first and doubles as the warm-up; then
    ``_best_of`` takes ``repeats`` round-robin passes over every (path, L)
    pair. Returns a report with one record per (path, L) pair -- fields
    ``path, L, N, millis`` -- plus a summary holding the fitted log-log
    growth exponent per path and the worst cross-path disagreement.
    """
    if not l_list:
        raise DimensionError("l_list must be nonempty")
    d = discretize_bilinear(sys, dt)
    agreement = max(_rel_linf(kernel_genfn(sys, dt, l).taps, kernel_naive(d, l).taps) for l in l_list)
    paths = {"naive": partial(kernel_naive, d), "genfn": partial(kernel_genfn, sys, dt)}
    pairs = [(path, l) for l in l_list for path in paths]
    best = _best_of([partial(paths[path], l) for path, l in pairs], repeats)
    records = [
        {"path": path, "L": int(l), "N": int(sys.n), "millis": 1e3 * t}
        for (path, l), t in zip(pairs, best)
    ]
    times = {path: best[i :: len(paths)] for i, path in enumerate(paths)}
    summary = {
        "lengths": [int(l) for l in l_list],
        "state_size": int(sys.n),
        "max_rel_disagreement": agreement,
    }
    if len(l_list) >= 2:
        logl = np.log(np.asarray(l_list, dtype=float))
        for path, t in times.items():
            slope = np.polyfit(logl, np.log(np.maximum(t, 1e-9)), 1)[0]
            summary[f"{path}_growth_exponent"] = float(slope)
    return {"records": records, "summary": summary}
