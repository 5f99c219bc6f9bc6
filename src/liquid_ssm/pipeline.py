"""End-to-end forward path: the main order scanned, the liquid orders in one convolution.

Order 1 runs through ``conv._chunked_scan`` straight from the discretized
system; orders 2..P go through one order-summed ``causal_conv`` call. A
large state puts the main kernel back into that call as order 1.

``MODES`` is the package's one list of liquid modes.
"""

from __future__ import annotations

import numpy as np

from .conv import BAND_TAPS, _chunked_scan, causal_conv
from .errors import DimensionError
from .kernel import _genfn_kernel
from .liquid import _liquid_kernels, correlation_signals, default_window
from .ssm import DplrSystem, discretize_bilinear, init_dt_schedule, nplr_decompose

MODES = ("kb", "pb", "none")


def forward_liquid_s4(
    sys: DplrSystem,
    dt: float,
    u: np.ndarray,
    mode: str = "none",
    max_order: int = 2,
    window: int | None = None,
) -> np.ndarray:
    """Run single-feature sequences through the convolutional path.

    y = sum_p K_p * corr_p(u) along the last axis of one sequence (L,) or a
    batch (..., L). The main order (corr_1 = u) is the system's own response,
    scanned block by block without a length-L kernel; the liquid kernels of
    orders 2..max_order, when ``mode`` is ``'kb'`` or ``'pb'``, are summed by
    one ``causal_conv`` call, made before the scan so that a transformed
    order's spectrum is freed first. A state of more than half the scan
    block sends the main kernel into that call as order 1 instead. With
    ``mode='none'`` this must agree with the recurrent reference to 1e-8.
    The system is discretized once, for both.
    """
    if mode not in MODES:
        raise DimensionError(f"unknown mode {mode!r}")
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] == 0:
        raise DimensionError(f"need sequences with a nonempty time axis, got shape {u.shape}")
    l = u.shape[-1]
    d = discretize_bilinear(sys, dt)
    taps = ()
    if mode != "none":
        window = default_window(l) if window is None else window
        if window > l:  # causal_conv would accept the longer taps
            raise DimensionError(f"window {window} exceeds sequence length {l}")
        taps = _liquid_kernels(d, mode, max_order, window).taps
    signals = correlation_signals(u, len(taps) + 1)
    # the scan costs T + 4N per sample (T = min(BAND_TAPS, L)); above N = T/2 a transform is cheaper
    if 2 * d.n > min(BAND_TAPS, l):
        return causal_conv([_genfn_kernel(d, l).taps, *taps], signals)
    if not taps:
        return _chunked_scan(d, u)
    next(signals)  # order 1 is u itself, scanned after the liquid orders
    y = causal_conv(taps, signals)
    y += _chunked_scan(d, u)
    return y


def feature_systems(
    n: int, h: int, seed: int, dts: np.ndarray | None = None, seq_length: int | None = None
) -> list[tuple[DplrSystem, float]]:
    """One SISO system per feature: shared LegS core, per-feature output map and step.

    Feature i is ``nplr_decompose(n, seed + i)`` with step ``dts[i]``, so the
    h systems share the decomposed diagonal-plus-low-rank core. Without
    ``dts`` the steps are drawn by ``init_dt_schedule`` over its default range.
    """
    if dts is None:
        dts = init_dt_schedule(h, seed=seed, seq_length=seq_length)
    if np.shape(dts) != (h,):
        raise DimensionError("need one step per feature")
    return [(nplr_decompose(n, seed + i), float(dts[i])) for i in range(h)]
