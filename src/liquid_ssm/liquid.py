"""Input auto-correlation signals and the order-p liquid kernels.

The tractable realization restricts correlation terms to products of p
*consecutive* input samples, so each order-p signal has the input length and
the kernel carries a short window of taps. Two kernel modes exist:

* KB: lag-indexed taps tap(d) = <c_bar, a_bar^d (b_bar ** p)>, the structured
  analogue of the main kernel with an elementwise-powered input map;
* PB: the KB kernel with the transition replaced by the identity, which
  collapses every tap to the constant kappa_p = <c_bar, b_bar ** p>.

``build_liquid_kernels`` (through its core ``_liquid_kernels``, which takes a
discretized system) alone checks a mode, an order and a window. The kernels
enter a layer's output as orders 2..P, which ``pipeline.forward_liquid_s4``
sums in one ``conv.causal_conv`` call and adds to the scanned main order.

Brute-force companions (`liquid_oracle`, its PB form
`liquid_oracle_pb_reference`, `liquid_expansion_oracle`) pin the semantics at
desk scale.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import accumulate, product

import numpy as np

from .conv import _recurrence
from .errors import DimensionError
from .kernel import _impulse_response, _krylov_block
from .ssm import DiscreteSystem, DplrSystem, discretize_bilinear

DEFAULT_WINDOW_DIVISOR = 64
MIN_WINDOW = 8
MAX_ORDER = 10  # highest liquid order a layer or a run may ask for


def default_window(l: int) -> int:
    """Default liquid window: L/64 rounded up, never below 8, never above L."""
    return min(l, max(MIN_WINDOW, -(-l // DEFAULT_WINDOW_DIVISOR)))


@dataclass(frozen=True)
class LiquidKernelSet:
    """Per-order liquid tap sequences: ``taps[p - 2]`` holds order p, each of length window."""

    taps: tuple[np.ndarray, ...]
    residual_imag: float

    def __post_init__(self):
        if not self.taps:
            raise DimensionError("need the taps of at least one order")

    def order_taps(self, p: int) -> np.ndarray:
        return self.taps[p - 2]


def correlation_signals(u: np.ndarray, max_order: int) -> Iterator[np.ndarray]:
    """Iterator over the consecutive-window correlation signals of orders 1..max_order of u.

    Order p, along the last axis, is out[k] = u[k] * u[k-1] * ... * u[k-p+1]
    for k >= p-1, else 0; order 1 is u itself. Each order is built on demand
    from the one before, times u delayed by p - 1 samples.
    """
    u = np.asarray(u, dtype=float)
    l = u.shape[-1]
    if max_order < 1:
        raise DimensionError(f"invalid order p={max_order}; need p >= 1")
    if max_order > l:
        raise DimensionError(f"order p={max_order} exceeds sequence length {l}")

    def times_delayed(signal: np.ndarray, p: int) -> np.ndarray:
        out = np.empty_like(u)
        out[..., : p - 1] = 0.0
        np.multiply(signal[..., p - 1 :], u[..., : l - p + 1], out=out[..., p - 1 :])
        return out

    return accumulate(range(2, max_order + 1), times_delayed, initial=u)


def _kb_taps_discrete(d: DiscreteSystem, p: int, window: int) -> np.ndarray:
    """Oracle complex KB taps: the impulse response with b_bar ** p as input map."""
    return _impulse_response(replace(d, b_bar=d.b_bar**p), window)


def _pb_taps_discrete(d: DiscreteSystem, p: int, window: int) -> np.ndarray:
    """Oracle complex PB taps: the scalar contraction kappa_p repeated window times."""
    kappa = np.vdot(d.c_bar, d.b_bar**p)
    return np.full(window, kappa)


def build_liquid_kernels(
    sys: DplrSystem, dt: float, mode: str, max_order: int, window: int
) -> LiquidKernelSet:
    """Assemble the per-order kernels for orders 2..max_order."""
    return _liquid_kernels(discretize_bilinear(sys, dt), mode, max_order, window)


def _liquid_kernels(d: DiscreteSystem, mode: str, max_order: int, window: int) -> LiquidKernelSet:
    """``build_liquid_kernels`` on the discretized system ``d``.

    Row i of the left Krylov block is (a_bar*)^i c_bar, as in the main
    kernel, so its product with b_bar ** p gives the KB taps of order p; the
    PB taps are row 0 of that product, repeated.
    """
    if mode not in ("kb", "pb"):
        raise DimensionError(f"unknown liquid mode {mode!r}")
    if max_order < 2:
        raise DimensionError("max_order must be at least 2")
    if window < 1:
        raise DimensionError(f"need window >= 1, got {window}")
    left = _krylov_block(d.a_bar.conj().T, d.c_bar, window if mode == "kb" else 1)
    powers = np.stack([d.b_bar**p for p in range(2, max_order + 1)])
    complex_taps = powers @ left.conj().T
    if mode == "pb":
        complex_taps = np.repeat(complex_taps, window, axis=1)
    return LiquidKernelSet(
        taps=tuple(complex_taps.real), residual_imag=float(np.max(np.abs(complex_taps.imag)))
    )


def liquid_oracle(d: DiscreteSystem, u: np.ndarray, max_order: int, window: int) -> np.ndarray:
    """Brute-force sum of the consecutive-window term set, vanilla part included.

    For each output index k this adds every term
    <c_bar, a_bar^d b_bar> u[k-d] (d < L) and, for p = 2..max_order,
    <c_bar, a_bar^d (b_bar ** p)> u[k-d] ... u[k-d-p+1] (d < window), using
    dense matrix powers throughout. ``max_order=1`` reduces to the plain
    recurrence. Guarded to small sizes; term count is L * window * max_order.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or len(u) > 64 or not 1 <= max_order <= 5:
        raise DimensionError(f"oracle guard: need 1-D u, L <= 64, 1 <= P <= 5; got {u.shape}, P={max_order}")
    l = u.shape[0]
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


def liquid_oracle_pb_reference(d: DiscreteSystem, u: np.ndarray, max_order: int, window: int) -> np.ndarray:
    """``liquid_oracle`` for the PB mode: the liquid part runs on the identity transition."""
    ident = replace(d, a_bar=np.eye(d.n))
    vanilla = liquid_oracle(d, u, 1, window)
    return vanilla + (liquid_oracle(ident, u, max_order, window) - liquid_oracle(ident, u, 1, window))


def recurrent_liquid(d: DiscreteSystem, u: np.ndarray) -> np.ndarray:
    """Exact reference dynamics of the liquid recurrence.

    x_k = a_bar x_{k-1} + b_bar * x_{k-1} * u_k + b_bar u_k,  y_k = <c_bar, x_k>

    with x_{-1} = 0, stepped along the last axis of u shaped (..., L). The
    input-dependent term is the Hadamard product of b_bar with the previous
    state, scaled by the current sample.
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
    if u.ndim != 1 or len(u) > 12:
        raise DimensionError(f"expansion oracle guard: need a 1-D u of L <= 12, got {u.shape}")
    l = u.shape[0]
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
