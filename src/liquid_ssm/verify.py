"""Self-contained invariant suite behind the ``verify`` command.

Every check reduces to a single residual compared against a fixed tolerance,
so the report stays machine-readable: one (name, residual, tolerance, passed)
row per invariant. The ``poison`` flag flips one kernel tap before the
cross-path comparison, which must trip the suite -- a self-test that the
harness can actually fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import causal_conv, causal_conv_direct, recurrent_s4
from .kernel import _rel_linf, kernel_genfn, kernel_naive
from .liquid import (
    build_liquid_kernels,
    correlation_signals,
    liquid_expansion_oracle,
    liquid_oracle,
    liquid_oracle_pb_reference,
    recurrent_liquid,
    _liquid_kernels,
)
from .pipeline import forward_liquid_s4
from .ssm import (
    DiscreteSystem,
    DplrSystem,
    discretize_bilinear,
    hippo_legs,
    legs_init_vectors,
    nplr_decompose,
    _discretize_dense,
    _legs_core,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    residual = float(residual)
    return CheckResult(name, residual, tolerance, bool(residual <= tolerance))


def _random_system(rng: np.random.Generator, n: int) -> DplrSystem:
    """Random stable system: Re(lam) < 0 keeps it contractive for any p."""
    lam = -np.exp(rng.normal(-1.0, 0.7, n)) + 1j * rng.normal(0.0, 2.0, n)
    p = rng.normal(0.0, 0.5, n) + 1j * rng.normal(0.0, 0.5, n)
    b = rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n)
    c = rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n)
    return DplrSystem(lam=lam, p=p, b=b, c=c)


def run_suite(seed: int = 0, poison: bool = False) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    # -- construction ---------------------------------------------------------
    res = 0.0
    for n in (1, 2, 3, 8, 32):
        a = hippo_legs(n)
        res = max(res, float(np.max(np.abs(np.triu(a, 1)))))
        if np.any(np.diag(a) >= 0):
            res = max(res, 1.0)
    results.append(_result("hippo_lower_triangular_negative_diagonal", res, 0.0))

    res = 0.0
    for n in (2, 8, 64, 256):
        b0, p0 = legs_init_vectors(n)
        s = hippo_legs(n) + np.outer(p0.real, p0.real)
        res = max(res, float(np.linalg.norm(s + s.T + np.eye(n))))
    results.append(_result("legs_skew_plus_half_identity", res, 1e-10))

    rec_res, spec_res = 0.0, -np.inf
    for n in (2, 4, 16, 64):
        sys = nplr_decompose(n, seed=seed)
        v = _legs_core(n)[3]
        rec = v @ sys.a_dense() @ v.conj().T
        rec_res = max(rec_res, float(np.linalg.norm(rec - hippo_legs(n))))
        spec_res = max(spec_res, float(np.max(np.linalg.eigvals(sys.a_dense()).real)))
    results.append(_result("dplr_reconstruction", rec_res, 1e-8))
    results.append(_result("dplr_spectrum_left_half_plane", spec_res, 1e-8))

    # -- discretization -------------------------------------------------------
    disk_res = -np.inf
    for n in (2, 8, 32):
        sys = _random_system(rng, n)
        for dt in rng.uniform(1e-3, 1.0, 3):
            d = discretize_bilinear(sys, float(dt))
            radius = float(np.max(np.abs(np.linalg.eigvals(d.a_bar))))
            disk_res = max(disk_res, radius - 1.0)
    results.append(_result("bilinear_maps_into_unit_disk", disk_res, 1e-8))

    # -- kernel paths ---------------------------------------------------------
    cases = [
        (nplr_decompose(int(rng.integers(1, 33)), seed=seed + 7 * i), float(rng.uniform(1e-3, 0.2)), l)
        for i, l in enumerate((16, 64, 256))
    ]
    cases.append((nplr_decompose(8, seed=seed), 1e-12, 64))  # a tiny step, where b_bar ~ dt B
    res, imag_res = 0.0, 0.0
    for i, (sys, dt, l) in enumerate(cases):
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        fast = kernel_genfn(sys, dt, l)
        taps = fast.taps.copy()
        if poison and i == 0:
            taps[0] = -taps[0] - 1.0  # injected fault: one flipped tap
        res = max(res, _rel_linf(taps, naive.taps))
        imag_res = max(imag_res, naive.residual_imag, fast.residual_imag)
    results.append(_result("genfn_matches_naive_kernel", res, 1e-8))
    results.append(_result("legs_kernel_imag_leak", imag_res, 1e-6))

    sys = nplr_decompose(6, seed=seed + 1)
    d = discretize_bilinear(sys, 0.05)
    impulse = np.zeros(48)
    impulse[0] = 1.0
    res = float(np.max(np.abs(recurrent_s4(d, impulse) - kernel_naive(d, 48).taps)))
    results.append(_result("impulse_response_equals_taps", res, 1e-12))

    # one 128-sample sequence, above the one-block size: 96 taps take the FFT, 24 the blocked band
    taps = rng.normal(0.0, 1.0, 24)
    u = rng.normal(0.0, 1.0, 128)
    long_taps = rng.normal(0.0, 1.0, 96)
    res = float(np.max(np.abs(causal_conv(long_taps, u) - causal_conv_direct(long_taps, u))))
    results.append(_result("fft_conv_matches_direct_sum", res, 1e-10))
    res = float(np.max(np.abs(causal_conv(taps, u) - causal_conv_direct(taps, u))))
    results.append(_result("band_conv_matches_direct_sum", res, 1e-10))

    u = rng.normal(0.0, 1.0, 64)
    res = _rel_linf(forward_liquid_s4(sys, 0.05, u, mode="none"), recurrent_s4(d, u))
    results.append(_result("forward_none_matches_recurrent", res, 1e-8))

    # -- liquid kernels -------------------------------------------------------
    kset = build_liquid_kernels(sys, 0.05, "kb", 3, 12)
    res = max(
        abs(kset.order_taps(p)[i] - np.vdot(d.c_bar, np.linalg.matrix_power(d.a_bar, i) @ d.b_bar**p).real)
        for p in (2, 3)
        for i in range(12)
    )
    results.append(_result("kb_taps_match_dense_powers", res, 1e-12))

    ident = DiscreteSystem(a_bar=np.eye(4), b_bar=d.b_bar[:4], c_bar=d.c_bar[:4])
    kb, pb = (_liquid_kernels(ident, mode, 4, 9).taps for mode in ("kb", "pb"))
    res = max(float(np.max(np.abs(k - p))) for k, p in zip(kb, pb))
    results.append(_result("kb_with_identity_transition_equals_pb", res, 1e-12))

    res = 0.0
    u = rng.normal(0.0, 1.0, 32)
    for mode, oracle in (("kb", liquid_oracle), ("pb", liquid_oracle_pb_reference)):
        got = forward_liquid_s4(sys, 0.05, u, mode, 4, 8)
        res = max(res, float(np.max(np.abs(got - oracle(d, u, 4, 8)))))
    results.append(_result("kernel_path_matches_liquid_oracle", res, 1e-10))

    sys3 = nplr_decompose(3, seed=seed + 2)
    d3 = discretize_bilinear(sys3, 0.15)
    u5 = rng.normal(0.0, 1.0, 5)
    res = float(np.max(np.abs(recurrent_liquid(d3, u5) - liquid_expansion_oracle(d3, u5))))
    results.append(_result("recurrence_matches_term_enumeration", res, 1e-10))

    res = 0.0
    u = rng.normal(0.0, 1.0, 24)
    for p in (2, 3):
        # the order-p term alone is homogeneous of degree p in the input
        taps = build_liquid_kernels(sys, 0.05, "kb", p, 6).order_taps(p)
        *_, corr = correlation_signals(u, p)
        base = causal_conv(taps, corr)
        for alpha in (2.0, -1.0):
            *_, corr = correlation_signals(alpha * u, p)
            res = max(res, float(np.max(np.abs(causal_conv(taps, corr) - alpha**p * base))))
    results.append(_result("liquid_degree_scaling", res, 1e-9))

    # three orders in one sum, the 96-tap one second: causal_conv's blocked band and FFT share one call
    taps = [rng.normal(0.0, 1.0, lk) for lk in (24, 96, 8)]
    signals = rng.normal(0.0, 1.0, (3, 128))
    want = sum(causal_conv_direct(t, x) for t, x in zip(taps, signals))
    res = np.max(np.abs(causal_conv(taps, signals) - want))
    results.append(_result("summed_conv_matches_direct_sum", res, 1e-10))

    # a (3, 200) batch: the scanned main order over four blocks of 64, the last one partial
    u = rng.normal(0.0, 1.0, (3, 200))
    res = max(map(_rel_linf, forward_liquid_s4(sys, 0.05, u, mode="none"), recurrent_s4(d, u)))
    results.append(_result("forward_scan_matches_recurrent", res, 1e-8))

    # last, so no other check's draws move: the structured step against one dense LU solve
    res = 0.0
    for sys, dt in [(nplr_decompose(64, seed=seed), 0.01), (_random_system(rng, 16), 1e3)] + [
        (_random_system(rng, n), float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))) for n in (1, 8, 32)
    ]:
        fast, dense = discretize_bilinear(sys, dt), _discretize_dense(sys, dt)
        res = max(res, _rel_linf(fast.a_bar, dense.a_bar), _rel_linf(fast.b_bar, dense.b_bar))
    results.append(_result("discretize_matches_dense_solve", res, 1e-10))

    return results

