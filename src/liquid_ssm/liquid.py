"""Input auto-correlation signals and the order-p liquid kernels.

The tractable realization restricts correlation terms to products of p
*consecutive* input samples, so each order-p signal has the input length and
the kernel carries a short window of taps. Two kernel modes exist:

* KB: lag-indexed taps tap(d) = <c_bar, a_bar^d (b_bar ** p)>, the structured
  analogue of the main kernel with an elementwise-powered input map;
* PB: the KB kernel with the transition replaced by the identity, which
  collapses every tap to the constant kappa_p = <c_bar, b_bar ** p>.

Brute-force companions (`liquid_oracle`, `liquid_expansion_oracle`) pin the
semantics at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .conv import _recurrence, causal_conv
from .errors import DimensionError
from .kernel import _impulse_response
from .ssm import DiscreteSystem, DplrSystem, discretize_bilinear

DEFAULT_WINDOW_DIVISOR = 64
MIN_WINDOW = 8


def default_window(l: int) -> int:
    """Default liquid window: L/64 rounded up, never below 8, never above L."""
    return min(l, max(MIN_WINDOW, -(-l // DEFAULT_WINDOW_DIVISOR)))


@dataclass(frozen=True)
class LiquidKernelSet:
    """Per-order liquid tap sequences (orders 2..max_order, each length window)."""

    mode: str
    max_order: int
    window: int
    taps: tuple[np.ndarray, ...]
    residual_imag: float

    def __post_init__(self):
        if self.mode not in ("kb", "pb"):
            raise DimensionError(f"unknown liquid mode {self.mode!r}")
        if self.max_order < 2:
            raise DimensionError("max_order must be at least 2")
        if len(self.taps) != self.max_order - 1:
            raise DimensionError("need one tap sequence per order 2..max_order")

    def order_taps(self, p: int) -> np.ndarray:
        return self.taps[p - 2]


def correlation_signal(u: np.ndarray, p: int) -> np.ndarray:
    """Order-p consecutive-window correlation signal along the last axis of u.

    Products of p consecutive samples, zero-padded on the left:
    out[k] = u[k] * u[k-1] * ... * u[k-p+1] for k >= p-1, else 0.
    """
    u = np.asarray(u, dtype=float)
    l = u.shape[-1]
    if p < 2:
        raise DimensionError(f"invalid order p={p}; need p >= 2")
    if p > l:
        raise DimensionError(f"order p={p} exceeds sequence length {l}")
    values = np.zeros_like(u)
    window = u[..., : l - p + 1]
    for j in range(1, p):
        window = window * u[..., j : l - p + 1 + j]
    values[..., p - 1 :] = window
    return values


def _kb_taps_discrete(d: DiscreteSystem, p: int, window: int) -> np.ndarray:
    """Complex lag-ordered KB taps: the impulse response with b_bar ** p as input map."""
    return _impulse_response(replace(d, b_bar=d.b_bar**p), window)


def _pb_taps_discrete(d: DiscreteSystem, p: int, window: int) -> np.ndarray:
    """Complex PB taps: the scalar contraction kappa_p repeated window times."""
    kappa = np.vdot(d.c_bar, d.b_bar**p)
    return np.full(window, kappa)


def _check_liquid_args(p: int, window: int):
    if p < 2:
        raise DimensionError(f"invalid order p={p}; need p >= 2")
    if window < 1:
        raise DimensionError(f"need window >= 1, got {window}")


def liquid_kernel_kb(
    sys: DplrSystem, dt: float, p: int, window: int, ordering: str = "lag"
) -> np.ndarray:
    """Order-p KB liquid kernel taps.

    ``ordering='lag'`` returns tap(d) = <c_bar, a_bar^d (b_bar ** p)> for
    d = 0..window-1; ``ordering='descending'`` returns the same taps under the
    backward-identity flip (largest transition power first). The two are exact
    reverses of one another.
    """
    _check_liquid_args(p, window)
    taps = _kb_taps_discrete(discretize_bilinear(sys, dt), p, window).real
    if ordering == "lag":
        return taps
    if ordering == "descending":
        return taps[::-1].copy()
    raise DimensionError(f"unknown ordering {ordering!r}")


def build_liquid_kernels(
    sys: DplrSystem, dt: float, mode: str, max_order: int, window: int
) -> LiquidKernelSet:
    """Assemble the per-order kernels for orders 2..max_order."""
    if mode not in ("kb", "pb"):
        raise DimensionError(f"unknown liquid mode {mode!r}")
    _check_liquid_args(2, window)
    if max_order < 2:
        raise DimensionError("max_order must be at least 2")
    d = discretize_bilinear(sys, dt)
    compute = _kb_taps_discrete if mode == "kb" else _pb_taps_discrete
    complex_taps = [compute(d, p, window) for p in range(2, max_order + 1)]
    residual = max(float(np.max(np.abs(t.imag))) for t in complex_taps)
    return LiquidKernelSet(
        mode=mode,
        max_order=max_order,
        window=window,
        taps=tuple(t.real for t in complex_taps),
        residual_imag=residual,
    )


def apply_liquid(kset: LiquidKernelSet, u: np.ndarray) -> np.ndarray:
    """Total liquid contribution along the last axis: sum over orders of taps_p * corr_p(u)."""
    u = np.asarray(u, dtype=float)
    l = u.shape[-1]
    if kset.window > l:
        raise DimensionError(f"window {kset.window} exceeds sequence length {l}")
    out = np.zeros_like(u)
    for p in range(2, kset.max_order + 1):
        out += causal_conv(kset.order_taps(p), correlation_signal(u, p))
    return out


def liquid_oracle(
    d: DiscreteSystem, u: np.ndarray, max_order: int, window: int
) -> np.ndarray:
    """Brute-force sum of the consecutive-window term set, vanilla part included.

    For each output index k this adds every term
    <c_bar, a_bar^d b_bar> u[k-d] (d < L) and, for p = 2..max_order,
    <c_bar, a_bar^d (b_bar ** p)> u[k-d] ... u[k-d-p+1] (d < window), using
    dense matrix powers throughout. ``max_order=1`` reduces to the plain
    recurrence. Guarded to small sizes; term count is L * window * max_order.
    """
    u = np.asarray(u, dtype=float)
    l = u.shape[0]
    if l > 64 or max_order > 5:
        raise DimensionError(
            f"oracle guard: need L <= 64 and max_order <= 5, got L={l}, P={max_order}"
        )
    if max_order < 1:
        raise DimensionError("max_order must be at least 1")
    powers = [np.eye(d.n, dtype=complex)]
    for _ in range(l - 1):
        powers.append(d.a_bar @ powers[-1])
    y = np.zeros(l)
    for k in range(l):
        acc = 0.0
        for lag in range(k + 1):
            acc += np.vdot(d.c_bar, powers[lag] @ d.b_bar).real * u[k - lag]
        for p in range(2, max_order + 1):
            bp = d.b_bar**p
            for lag in range(min(window, k - p + 2)):
                coeff = np.vdot(d.c_bar, powers[lag] @ bp).real
                acc += coeff * np.prod(u[k - lag - p + 1 : k - lag + 1])
        y[k] = acc
    return y


def recurrent_liquid(d: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Exact reference dynamics of the liquid recurrence.

    x_k = a_bar x_{k-1} + b_bar * x_{k-1} * u_k + b_bar u_k,  y_k = <c_bar, x_k>

    with x_{-1} = 0. The input-dependent term is the Hadamard product of
    b_bar with the previous state, scaled by the current sample.
    """
    return _recurrence(d, u, d.b_bar)


def liquid_expansion_oracle(d: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Full combinatorial expansion of the liquid recurrence.

    Enumerates, for every injection time j and every binary choice of
    transition-vs-correlation step in between, the product it contributes to
    x_k. Exponential in the length (2^(k-j) paths per injection), so guarded
    to L <= 12; at that scale it covers every auto-correlation term of the
    unrolled dynamics, consecutive or not.
    """
    u = np.asarray(u, dtype=float)
    l = u.shape[0]
    if l > 12:
        raise DimensionError(f"expansion oracle guard: need L <= 12, got {l}")
    y = np.zeros(l)
    for k in range(l):
        xk = np.zeros(d.n, dtype=complex)
        for j in range(k + 1):
            for choices in product((0, 1), repeat=k - j):
                vec = d.b_bar * u[j]
                for t, pick in zip(range(j + 1, k + 1), choices):
                    vec = d.a_bar @ vec if pick == 0 else d.b_bar * vec * u[t]
                xk += vec
        y[k] = np.vdot(d.c_bar, xk).real
    return y
