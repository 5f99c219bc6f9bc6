"""Convolution-kernel generation: naive power iteration and the
generating-function path.

The naive path materializes taps[i] = <c_bar, a_bar^i b_bar> one structured
matrix-vector product at a time and serves as the oracle. The fast path
evaluates the truncated generating function at the unit roots of a frequency
grid through one blocked Cauchy pass -- one reciprocal block and one
(N, 4) weight matmul per block of nodes -- plus a rank-1 Woodbury
combination, then recovers the taps with an inverse transform. A system
with a LegS ``basis`` (set only by ``nplr_decompose``, dropped by any edit)
has a real response: only its size//2 + 1 non-negative frequencies are
evaluated and a real inverse FFT recovers the taps; any other system is
evaluated on the full grid. The naive and fast paths must agree to 1e-8
relative L-infinity on any stable system. ``bench_kernel`` times both with
``_best_of``, the one round-robin timer of the package.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .conv import next_pow2
from .errors import DimensionError, PoleError, WoodburySingularError
from .ssm import DiscreteSystem, DplrSystem, discretize_bilinear

POLE_TOLERANCE = 1e-14
CAUCHY_BLOCK = 2**16  # (node, pole) grid entries per block of the Cauchy pass


@dataclass(frozen=True)
class Kernel:
    """Real tap sequence of a convolution kernel.

    ``residual_imag`` records the largest imaginary magnitude discarded when
    taking real parts; it stays below 1e-6 for any system equivalent to a
    real one (conjugate-symmetric spectrum with a rotated real output map).
    It is 0.0 by construction for a generating-function kernel of a system
    with a LegS ``basis``, whose half-spectrum inverse FFT is real.
    """

    taps: np.ndarray
    residual_imag: float

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=float)
        if t.ndim != 1 or not np.all(np.isfinite(t)):
            raise DimensionError("taps must be a finite 1-D sequence")
        object.__setattr__(self, "taps", t)


def unit_roots(l: int, count: int | None = None) -> np.ndarray:
    """The first ``count`` (default all L) nodes omega_k = exp(2 pi i k / L) of the frequency grid."""
    if l < 1:
        raise DimensionError(f"need l >= 1, got {l}")
    return np.exp(2j * np.pi * np.arange(l if count is None else count) / l)


def _rel_linf(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def _krylov(a: np.ndarray, x: np.ndarray, l: int) -> Iterator[np.ndarray]:
    """Yield the Krylov sequence x, a x, ..., a^(l-1) x, one matvec per step."""
    for _ in range(l):
        yield x
        x = a @ x


def _impulse_response(d: DiscreteSystem, l: int) -> np.ndarray:
    """Complex taps <c_bar, a_bar^i b_bar> for i = 0..l-1, streamed from ``_krylov``."""
    return np.fromiter((np.vdot(d.c_bar, x) for x in _krylov(d.a_bar, d.b_bar, l)), complex, l)


def kernel_naive(d: DiscreteSystem, l: int) -> Kernel:
    """Oracle kernel: l structured matrix-vector products, O(l * N^2)."""
    if l < 1:
        raise DimensionError(f"need l >= 1, got {l}")
    taps = _impulse_response(d, l)
    return Kernel(taps=taps.real, residual_imag=float(np.max(np.abs(taps.imag))))


def truncate_generating_c(d: DiscreteSystem, l: int) -> np.ndarray:
    """Output map of the length-l truncated generating function.

    Returns c~ = (I - a_bar^l)* c_bar with the matrix power computed by
    repeated squaring. For a contractive a_bar, ||c~ - c_bar|| is bounded by
    ||a_bar^l|| ||c_bar|| and vanishes as l grows.
    """
    if l < 1:
        raise DimensionError(f"need l >= 1, got {l}")
    m = np.eye(d.n) - np.linalg.matrix_power(d.a_bar, l)
    return m.conj().T @ d.c_bar


def _cauchy_grid(w: np.ndarray, nodes: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Cauchy sums sum_n w[n, j] / (z - lam_n) at each node z, one column per weight.

    Walks the nodes in blocks of about ``CAUCHY_BLOCK`` grid entries, so no (L, N)
    array is built: each block's z - lam is formed once, pole-checked, inverted in
    place and contracted with every weight column in one BLAS matmul.
    """
    out = np.empty((len(nodes), w.shape[1]), dtype=complex)
    rows = max(1, CAUCHY_BLOCK // len(lam))
    for start in range(0, len(nodes), rows):
        diff = nodes[start : start + rows, None] - lam
        if np.any(diff.real**2 + diff.imag**2 < POLE_TOLERANCE**2):
            raise PoleError("a frequency node hit an eigenvalue of the diagonal part")
        np.reciprocal(diff, out=diff)
        np.matmul(diff, w, out=out[start : start + rows])
    return out


def _genfn_kernel(sys: DplrSystem, d: DiscreteSystem, l: int) -> Kernel:
    """``kernel_genfn`` on the discretization ``d`` of ``sys``."""
    if l < 1:
        raise DimensionError(f"need l >= 1, got {l}")
    dt, size = d.dt, next_pow2(l)
    ct = truncate_generating_c(d, size)
    # a LegS basis proves a real response; nodes 0..size//2 fix its conjugate-symmetric spectrum
    omega = unit_roots(size, size // 2 + 1 if sys.basis is not None else size)
    half = size // 2 if size % 2 == 0 else None  # omega = -1 node, singular prefactor
    w = np.stack([np.conj(v) * x for v in (ct, sys.p) for x in (sys.b, sys.p)], axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        g = (2.0 / dt) * (1.0 - omega) / (1.0 + omega)
        k00, k01, k10, k11 = _cauchy_grid(w, g, sys.lam).T
        denom = 1.0 + k11
        singular = np.abs(denom) < POLE_TOLERANCE
        if half is not None:
            singular[half] = False
        if np.any(singular):
            raise WoodburySingularError("1 + k11 vanished at a frequency node")
        khat = 2.0 / (1.0 + omega) * (k00 - k01 * k10 / denom)
    if half is not None:
        # Analytic value at omega = -1: the resolvent collapses to (dt/2) B
        # there, so the sample is (dt/2) <c~, B> (finite limit of the
        # divergent-prefactor product).
        khat[half] = 0.5 * dt * np.vdot(ct, sys.b)
    # Samples live at omega^{+i}, so the forward transform (scaled) inverts
    # the evaluation map; on the half grid that is the real inverse transform
    # of the conjugate spectrum.
    if sys.basis is not None:
        return Kernel(taps=np.fft.irfft(np.conj(khat), n=size)[:l], residual_imag=0.0)
    taps = (np.fft.fft(khat) / size)[:l]
    return Kernel(taps=taps.real, residual_imag=float(np.max(np.abs(taps.imag))))


def kernel_genfn(sys: DplrSystem, dt: float, l: int) -> Kernel:
    """Frequency-domain kernel generation.

    Computes the truncated generating function, samples it at the unit roots
    (only the non-negative frequencies when ``sys.basis`` is set) through
    one blocked Cauchy pass combined by the rank-1 Woodbury identity, and
    recovers the taps with an inverse transform. Non-power-of-two lengths
    are generated at the next power of two and truncated, which is exact
    because tap i never depends on the requested length.
    """
    return _genfn_kernel(sys, discretize_bilinear(sys, dt), l)


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
    """Time the naive and generating-function paths over a length sweep.

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
