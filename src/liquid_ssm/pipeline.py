"""End-to-end forward path: one prepared layer per feature, run over row groups.

A ``Layer`` is built once from (system, dt, L, mode, order, window): the
discretized system, the liquid taps and their bands (or, above
``conv.BAND_TAPS`` taps, their spectra), and the block scan of the main
order. It then runs on (rows, L) groups of at most ``group_rows(L)`` rows,
so each temporary of a call holds one group, of about ``GROUP_BYTES``,
whatever the batch. Order 1 is scanned; orders 2..P go through one order
sum. A large state puts the main kernel into that sum as order 1 instead.
``forward_liquid_s4`` is a layer applied over the rows of its input.

``MODES`` is the package's one list of liquid modes.
"""

from __future__ import annotations

import numpy as np

from .conv import BAND_TAPS, _BlockScan, _order_sum, _tap_operator, next_pow2
from .errors import DimensionError
from .kernel import _genfn_kernel
from .liquid import _liquid_kernels, correlation_signals, default_window
from .ssm import DplrSystem, discretize_bilinear, init_dt_schedule, nplr_decompose

MODES = ("kb", "pb", "none")
# bytes of one (rows, L) float64 array of a row group (12 rows at L = 2048): a layer call's few
# such arrays (its input, signals, scan blocks and output) stay within a 2 MiB L2 cache, yet the
# group is large enough that the call's fixed cost is small; of 128, 192 and 256 KiB, 192 read
# best or tied on the forward-batch benchmark
GROUP_BYTES = 3 << 16


def group_rows(l: int) -> int:
    """Rows of one group of L-sample sequences: as many as fit ``GROUP_BYTES``, at least one."""
    return max(1, GROUP_BYTES // (8 * l))


class Layer:
    """One feature's Liquid-S4 layer for L-sample sequences, built once and applied per row group.

    y = sum_p K_p * corr_p(u) along the rows of a (rows, L) group. The main
    order (corr_1 = u) is the system's own response, scanned block by block
    without a length-L kernel (``conv._BlockScan``); the liquid kernels of
    orders 2..max_order, when ``mode`` is ``'kb'`` or ``'pb'``, are summed
    by one order sum, made before the scan so that a transformed order's
    spectrum is freed first. A state of more than half the scan block sends
    the main kernel into that sum as order 1 instead (the scan costs about
    T + 4N per sample, T = min(BAND_TAPS, L); above N = T/2 a transform is
    cheaper). Each order's band or tap spectrum is built here, for groups of
    ``group_rows(L)`` rows.
    """

    def __init__(self, sys: DplrSystem, dt: float, l: int, mode: str = "none", max_order: int = 2,
                 window: int | None = None):
        if mode not in MODES:
            raise DimensionError(f"unknown mode {mode!r}")
        if l < 1:
            raise DimensionError(f"need sequences with a nonempty time axis, got length {l}")
        d = discretize_bilinear(sys, dt)  # once, for the scan or the main kernel and the liquid taps
        taps = ()
        if mode != "none":
            window = default_window(l) if window is None else window
            if window > l:  # the order sum would accept the longer taps
                raise DimensionError(f"window {window} exceeds sequence length {l}")
            taps = _liquid_kernels(d, mode, max_order, window).taps
            if max_order > l:
                raise DimensionError(f"order p={max_order} exceeds sequence length {l}")
        self.l, self.rows, self.orders = l, group_rows(l), len(taps) + 1
        self.scan = None
        if 2 * d.n > min(BAND_TAPS, l):
            taps = (_genfn_kernel(d, l).taps, *taps)
        else:
            self.scan = _BlockScan(d, l)
        self.size = next_pow2(l + max((len(t) for t in taps), default=1) - 1)
        # causal_conv's one-block rule, for groups of self.rows rows; above L = BAND_TAPS it takes only
        # long taps (a main kernel, a long window): a short window costs less as a blocked band
        whole = l <= 256 and self.rows >= l
        self.operators = tuple(
            _tap_operator(t, l, l <= BAND_TAPS or (whole and len(t) > BAND_TAPS), self.size) for t in taps
        )

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The layer's output for a (rows, L) group of sequences."""
        u = np.ascontiguousarray(u, dtype=float)
        if not self.operators:
            return self.scan(u)
        signals = correlation_signals(u, self.orders)
        if self.scan is None:
            return _order_sum(self.operators, signals, self.orders, u.shape, self.size)
        next(signals)  # order 1 is u itself, scanned after the liquid orders
        y = _order_sum(self.operators, signals, self.orders - 1, u.shape, self.size)
        y += self.scan(u)
        return y


def forward_liquid_s4(
    sys: DplrSystem,
    dt: float,
    u: np.ndarray,
    mode: str = "none",
    max_order: int = 2,
    window: int | None = None,
) -> np.ndarray:
    """Run single-feature sequences, one (L,) or a batch (..., L), through a ``Layer``.

    The layer is built once and applied to groups of ``group_rows(L)`` rows
    of u, so besides u and the output the call holds one group's
    temporaries. With ``mode='none'`` this must agree with the recurrent
    reference to 1e-8.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[-1] == 0:
        raise DimensionError(f"need sequences with a nonempty time axis, got shape {u.shape}")
    layer = Layer(sys, dt, u.shape[-1], mode, max_order, window)
    rows = u.reshape(-1, layer.l)
    y = np.empty(rows.shape)
    for j in range(0, len(rows), layer.rows):
        y[j : j + layer.rows] = layer(rows[j : j + layer.rows])
    return y.reshape(u.shape)


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
