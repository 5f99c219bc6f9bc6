"""Self-contained invariant suite behind the ``verify`` command.

Every check reduces to a single residual compared against a fixed tolerance,
so the report stays machine-readable: one (name, residual, tolerance, passed)
row per invariant. The ``poison`` flag flips one kernel tap before the
cross-path comparison, which must trip the suite -- a self-test that the
harness can actually fail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conv import causal_conv_direct, causal_conv_fft, recurrent_s4
from .kernel import _rel_linf, kernel_genfn, kernel_naive
from .liquid import (
    apply_liquid,
    build_liquid_kernels,
    liquid_expansion_oracle,
    liquid_kernel_kb,
    liquid_oracle,
    liquid_oracle_pb_reference,
    recurrent_liquid,
    _kb_taps_discrete,
    _pb_taps_discrete,
)
from .pipeline import forward_liquid_s4
from .ssm import (
    DiscreteSystem,
    DplrSystem,
    discretize_bilinear,
    hippo_legs,
    legs_init_vectors,
    nplr_decompose,
    with_output_map,
    woodbury_input_map,
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
        rec = sys.basis @ sys.a_dense() @ sys.basis.conj().T
        rec_res = max(rec_res, float(np.linalg.norm(rec - hippo_legs(n))))
        spec_res = max(spec_res, float(np.max(np.linalg.eigvals(sys.a_dense()).real)))
    results.append(_result("dplr_reconstruction", rec_res, 1e-8))
    results.append(_result("dplr_spectrum_left_half_plane", spec_res, 1e-8))

    # -- discretization -------------------------------------------------------
    disk_res, wood_res = -np.inf, 0.0
    for n in (2, 8, 32):
        sys = _random_system(rng, n)
        for dt in rng.uniform(1e-3, 1.0, 3):
            d = discretize_bilinear(sys, float(dt))
            radius = float(np.max(np.abs(np.linalg.eigvals(d.a_bar))))
            disk_res = max(disk_res, radius - 1.0)
            wood_res = max(
                wood_res,
                float(np.max(np.abs(d.b_bar - woodbury_input_map(sys, float(dt))))),
            )
    results.append(_result("bilinear_maps_into_unit_disk", disk_res, 1e-8))
    results.append(_result("woodbury_matches_dense_input_map", wood_res, 1e-10))

    # -- kernel paths ---------------------------------------------------------
    res, imag_res = 0.0, 0.0
    for i, l in enumerate((16, 64, 256)):
        n = int(rng.integers(1, 33))
        sys = with_output_map(nplr_decompose(n, seed=seed), seed + 7 * i)
        dt = float(rng.uniform(1e-3, 0.2))
        naive = kernel_naive(discretize_bilinear(sys, dt), l)
        taps = kernel_genfn(sys, dt, l).taps.copy()
        if poison and i == 0:
            taps[0] = -taps[0] - 1.0  # injected fault: one flipped tap
        res = max(res, _rel_linf(taps, naive.taps))
        # the half grid's taps are real by construction; the full grid shows the leak
        full = kernel_genfn(replace(sys, real_response=False), dt, l)
        imag_res = max(imag_res, naive.residual_imag, full.residual_imag)
    results.append(_result("genfn_matches_naive_kernel", res, 1e-8))
    results.append(_result("legs_kernel_imag_leak", imag_res, 1e-6))

    sys = with_output_map(nplr_decompose(6, seed=seed), seed + 1)
    d = discretize_bilinear(sys, 0.05)
    impulse = np.zeros(48)
    impulse[0] = 1.0
    res = float(np.max(np.abs(recurrent_s4(d, impulse) - kernel_naive(d, 48).taps)))
    results.append(_result("impulse_response_equals_taps", res, 1e-12))

    taps = rng.normal(0.0, 1.0, 24)
    u = rng.normal(0.0, 1.0, 128)
    res = float(np.max(np.abs(causal_conv_fft(taps, u) - causal_conv_direct(taps, u))))
    results.append(_result("fft_conv_matches_direct_sum", res, 1e-10))

    u = rng.normal(0.0, 1.0, 64)
    res = _rel_linf(forward_liquid_s4(sys, 0.05, u, mode="none"), recurrent_s4(d, u))
    results.append(_result("forward_none_matches_recurrent", res, 1e-8))

    # -- liquid kernels -------------------------------------------------------
    lag = liquid_kernel_kb(sys, 0.05, 3, 12, ordering="lag")
    desc = liquid_kernel_kb(sys, 0.05, 3, 12, ordering="descending")
    res = float(np.max(np.abs(desc[::-1] - lag)))
    results.append(_result("liquid_flip_identity", res, 0.0))

    ident = DiscreteSystem(a_bar=np.eye(4), b_bar=d.b_bar[:4], c_bar=d.c_bar[:4], dt=0.05)
    res = max(
        float(np.max(np.abs(_kb_taps_discrete(ident, p, 9).real - _pb_taps_discrete(ident, p, 9).real)))
        for p in (2, 3, 4)
    )
    results.append(_result("kb_with_identity_transition_equals_pb", res, 1e-12))

    res = 0.0
    u = rng.normal(0.0, 1.0, 32)
    for mode, oracle in (("kb", liquid_oracle), ("pb", liquid_oracle_pb_reference)):
        kset = build_liquid_kernels(sys, 0.05, mode, 4, 8)
        full = causal_conv_fft(kernel_naive(d, 32).taps, u) + apply_liquid(kset, u)
        res = max(res, float(np.max(np.abs(full - oracle(d, u, 4, 8)))))
    results.append(_result("kernel_path_matches_liquid_oracle", res, 1e-10))

    sys3 = with_output_map(nplr_decompose(3, seed=seed), seed + 2)
    d3 = discretize_bilinear(sys3, 0.15)
    u5 = rng.normal(0.0, 1.0, 5)
    res = float(np.max(np.abs(recurrent_liquid(d3, u5) - liquid_expansion_oracle(d3, u5))))
    results.append(_result("recurrence_matches_term_enumeration", res, 1e-10))

    res = 0.0
    u = rng.normal(0.0, 1.0, 24)
    for p in (2, 3):
        kset = build_liquid_kernels(sys, 0.05, "kb", p, 6)
        # orders below p zeroed: the set is homogeneous of degree p
        single = replace(kset, taps=tuple(np.zeros_like(t) for t in kset.taps[:-1]) + kset.taps[-1:])
        base = apply_liquid(single, u)
        for alpha in (2.0, -1.0):
            res = max(res, float(np.max(np.abs(apply_liquid(single, alpha * u) - alpha**p * base))))
    results.append(_result("liquid_degree_scaling", res, 1e-9))

    return results

