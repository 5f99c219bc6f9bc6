"""Continuous-time state-space construction and discretization.

Builds the HiPPO-LegS state matrix, its diagonal-plus-low-rank (DPLR)
decomposition, the matching input/low-rank initialization vectors, the
bilinear (trapezoidal) discretization used by every downstream kernel path,
and the per-feature steps, a plain (h,) array drawn by ``init_dt_schedule``.

Conventions used throughout the package:

* the effective state matrix of a ``DplrSystem`` is ``A = diag(lam) - p p*``
  (rank-1 correction of a diagonal), which keeps every eigenvalue in the
  left half plane regardless of ``p``;
* the output map is the complex inner product ``y = conj(c) . x``, so a
  system rotated out of a real basis by a unitary ``V`` keeps bit-for-bit
  real input-output behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DecompositionError, DimensionError, DiscretizationError

DEFAULT_DT_MAX = 0.2


@dataclass(frozen=True)
class DplrSystem:
    """Continuous-time SSM in diagonal-plus-low-rank form.

    Attributes:
        lam: (N,) complex diagonal of the normal part.
        p:   (N,) complex rank-1 correction; the state matrix is
             ``diag(lam) - p p*``.
        b:   (N,) complex input map.
        c:   (N,) complex output map, applied as ``y = conj(c) . x``.
        basis: optional (N, N) unitary relating this system to an original
             real basis (kept for reconstruction checks and for drawing
             output maps that preserve real input-output behaviour).
        real_response: the impulse response is real, so its spectrum is
             conjugate-symmetric and the generating-function kernel needs
             only the non-negative frequencies. Set by ``nplr_decompose``,
             which draws a real output map in the real LegS basis, and kept
             by ``with_output_map``; never inferred from the values.
    """

    lam: np.ndarray
    p: np.ndarray
    b: np.ndarray
    c: np.ndarray
    basis: np.ndarray | None = None
    real_response: bool = False

    def __post_init__(self):
        for name in ("lam", "p", "b", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        n = self.lam.shape[0]
        if n == 0 or any(getattr(self, name).shape != (n,) for name in ("p", "b", "c")):
            raise DimensionError("lam, p, b, c must share one nonzero length")
        for name in ("lam", "p", "b", "c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DimensionError(f"non-finite entries in {name}")

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    def a_dense(self) -> np.ndarray:
        """Materialize the (N, N) state matrix ``diag(lam) - p p*``."""
        return np.diag(self.lam) - np.outer(self.p, self.p.conj())


@dataclass(frozen=True)
class DiscreteSystem:
    """Discrete-time transition operators produced by the bilinear transform.

    ``a_bar`` is kept dense (N, N); at desk scale this doubles as the oracle
    representation for every recurrent reference path.
    """

    a_bar: np.ndarray
    b_bar: np.ndarray
    c_bar: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "a_bar", np.asarray(self.a_bar, dtype=complex))
        object.__setattr__(self, "b_bar", np.asarray(self.b_bar, dtype=complex))
        object.__setattr__(self, "c_bar", np.asarray(self.c_bar, dtype=complex))
        n = self.b_bar.shape[0]
        if self.a_bar.shape != (n, n) or self.c_bar.shape != (n,):
            raise DimensionError("inconsistent operator shapes")
        if not self.dt > 0:
            raise DimensionError("dt must be positive")

    @property
    def n(self) -> int:
        return self.b_bar.shape[0]


def hippo_legs(n: int) -> np.ndarray:
    """Construct the scaled-Legendre (LegS) memory matrix.

    Entries (0-indexed):

        A[i, k] = -(2i+1)^{1/2} (2k+1)^{1/2}   if i > k
        A[i, k] = -(i+1)                        if i = k
        A[i, k] = 0                             if i < k

    Args:
        n: state dimension, at least 1.

    Returns:
        (n, n) float64 matrix, lower triangular with negative diagonal.
    """
    if n < 1:
        raise DimensionError(f"invalid dimension n={n}; need n >= 1")
    root = np.sqrt(2.0 * np.arange(n) + 1.0)
    a = np.tril(-np.outer(root, root), -1)  # negate before masking: keeps +0.0 above
    return a - np.diag(np.arange(n) + 1.0)


def legs_init_vectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Input map B_k = (2k+1)^{1/2} and rank-1 factor P_k = (k+1/2)^{1/2}.

    Returned as complex vectors with zero imaginary parts, matching the
    storage convention of DplrSystem.
    """
    if n < 1:
        raise DimensionError(f"invalid dimension n={n}; need n >= 1")
    k = np.arange(n)
    b = np.sqrt(2.0 * k + 1.0).astype(complex)
    p = np.sqrt(k + 0.5).astype(complex)
    return b, p


@lru_cache(maxsize=16)
def _legs_core(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seed-independent DPLR core (lam, p, b, V) of the LegS matrix, one eigensolve per n.

    Cached, so every caller shares the returned arrays; they are read-only.
    """
    a = hippo_legs(n)
    b0, p0 = legs_init_vectors(n)
    s = a + np.outer(p0.real, p0.real)
    skew = s + 0.5 * np.eye(n)
    try:
        mu, v = np.linalg.eigh(-1j * skew)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc
    lam = -0.5 + 1j * mu
    vh = v.conj().T
    b = vh @ b0
    p = vh @ p0
    rec = v @ (np.diag(lam) - np.outer(p, p.conj())) @ vh
    residual = float(np.linalg.norm(rec - a))
    if residual > 1e-6 * max(1.0, float(np.linalg.norm(a))):
        raise DecompositionError(
            f"DPLR reconstruction residual {residual:.3e} exceeds tolerance"
        )
    for arr in (lam, p, b, v):
        arr.flags.writeable = False
    return lam, p, b, v


def nplr_decompose(n: int, seed: int = 0) -> DplrSystem:
    """Decompose the LegS matrix into diagonal-plus-low-rank form.

    With B, P from ``legs_init_vectors``, the matrix ``S = hippo_legs(n) + P P^T``
    equals ``-I/2`` plus a skew-symmetric part, so ``i * skew`` is Hermitian and
    a Hermitian eigensolve yields an exactly unitary basis V with eigenvalues
    ``lam = -1/2 + i mu`` sorted by imaginary part ascending. B and P are
    rotated by ``V*``; the output map c is a fresh standard-normal real vector
    rotated the same way (seeded), which keeps kernels of the rotated system
    real to machine precision. The eigensolve does not depend on the seed and
    runs once per n (``_legs_core``); the returned system shares its
    read-only lam, p, b and basis arrays with every other system of that n.

    Args:
        n: state dimension.
        seed: RNG seed for the output map.

    Returns:
        DplrSystem with ``basis`` set to V and ``real_response`` set, satisfying
        ``V (diag(lam) - (V* P)(V* P)*) V* ~= hippo_legs(n)``.
    """
    lam, p, b, v = _legs_core(n)
    c = v.conj().T @ np.random.default_rng(seed).standard_normal(n).astype(complex)
    return DplrSystem(lam=lam, p=p, b=b, c=c, basis=v, real_response=True)


def with_output_map(sys: DplrSystem, seed: int) -> DplrSystem:
    """Redraw the output map of a decomposed system (fresh seed, same basis).

    Draws real standard-normal coefficients in the original basis and rotates
    them. A real output map keeps a real response real, so the result keeps
    the ``real_response`` flag of ``sys`` (set for every ``nplr_decompose``
    system); the basis alone does not make the state and input maps real.
    """
    if sys.basis is None:
        raise DimensionError("system carries no basis; cannot redraw output map")
    c = sys.basis.conj().T @ np.random.default_rng(seed).standard_normal(sys.n)
    return replace(sys, c=c)


def discretize_bilinear(sys: DplrSystem, dt: float) -> DiscreteSystem:
    """Discretize by the trapezoidal rule.

        a_bar = (I - dt/2 A)^{-1} (I + dt/2 A)
        b_bar = (I - dt/2 A)^{-1} dt B
        c_bar = C

    with A = diag(lam) - p p*. Eigenvalues with nonpositive real part map
    into the closed unit disk for any dt > 0.
    """
    if not dt > 0:
        raise DimensionError(f"dt must be positive, got {dt}")
    a = sys.a_dense()
    n = sys.n
    m = np.eye(n) - 0.5 * dt * a
    try:
        a_bar = np.linalg.solve(m, np.eye(n) + 0.5 * dt * a)
        b_bar = np.linalg.solve(m, dt * sys.b)
    except np.linalg.LinAlgError as exc:
        raise DiscretizationError(f"(I - dt/2 A) is singular for dt={dt}") from exc
    if not (np.all(np.isfinite(a_bar)) and np.all(np.isfinite(b_bar))):
        raise DiscretizationError(f"discretization produced non-finite values at dt={dt}")
    return DiscreteSystem(a_bar=a_bar, b_bar=b_bar, c_bar=sys.c, dt=dt)


def woodbury_input_map(sys: DplrSystem, dt: float) -> np.ndarray:
    """Structured evaluation of b_bar: diagonal solve plus rank-1 correction.

    Solves (D + (dt/2) p p*) x = dt B with D = I - (dt/2) diag(lam) using the
    rank-1 Woodbury identity, avoiding any dense factorization. Must agree
    with the dense path of ``discretize_bilinear`` to 1e-10.
    """
    if not dt > 0:
        raise DimensionError(f"dt must be positive, got {dt}")
    d = 1.0 - 0.5 * dt * sys.lam
    if np.any(np.abs(d) < 1e-300):
        raise DiscretizationError("diagonal factor vanished in structured solve")
    y = dt * sys.b / d
    w = sys.p / d
    denom = 2.0 / dt + np.vdot(sys.p, w)
    if abs(denom) < 1e-300:
        raise DiscretizationError("rank-1 correction denominator vanished")
    return y - w * (np.vdot(sys.p, y) / denom)


def init_dt_schedule(
    h: int,
    dt_min: float | None = None,
    dt_max: float = DEFAULT_DT_MAX,
    seed: int = 0,
    seq_length: int | None = None,
) -> np.ndarray:
    """Draw one discretization step per feature, log-uniform in [dt_min, dt_max].

    Returns the (h,) float array of steps, clipped into the range.
    ``dt_min`` defaults to 1/seq_length when a sequence length is supplied.
    Deterministic under a fixed seed.
    """
    if h < 1:
        raise DimensionError(f"need at least one feature, got h={h}")
    if dt_min is None:
        if seq_length is None:
            raise DimensionError("provide dt_min or seq_length")
        # 1/L proportionality rule, capped so short sequences keep a valid range
        dt_min = min(1.0 / float(seq_length), dt_max)
    if not 0 < dt_min:
        raise DimensionError(f"invalid range: dt_min={dt_min} must be positive")
    if dt_min > dt_max:
        raise DimensionError(f"invalid range: dt_min={dt_min} > dt_max={dt_max}")
    rng = np.random.default_rng(seed)
    log_dt = rng.uniform(np.log(dt_min), np.log(dt_max), size=h)
    # clip fp spill so every step lies in [dt_min, dt_max] even at degenerate ranges
    return np.clip(np.exp(log_dt), dt_min, dt_max)
