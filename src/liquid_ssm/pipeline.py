"""End-to-end forward path: one order-summed convolution, main kernel as order 1.

``MODES`` is the package's one list of liquid modes.
"""

from __future__ import annotations

import numpy as np

from .conv import causal_conv
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
    batch (..., L): the main kernel is order 1 (corr_1 = u), and the liquid
    kernels of orders 2..max_order join it when ``mode`` is ``'kb'`` or
    ``'pb'``. With ``mode='none'`` this must agree with the recurrent
    reference to 1e-8. The system is discretized once, for both kernels.
    """
    if mode not in MODES:
        raise DimensionError(f"unknown mode {mode!r}")
    u = np.asarray(u, dtype=float)
    l = u.shape[-1]
    d = discretize_bilinear(sys, dt)
    taps = [_genfn_kernel(d, l).taps]
    if mode != "none":
        window = default_window(l) if window is None else window
        if window > l:  # causal_conv would accept the longer taps
            raise DimensionError(f"window {window} exceeds sequence length {l}")
        taps += _liquid_kernels(d, mode, max_order, window).taps
    return causal_conv(taps, correlation_signals(u, len(taps)))


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
