"""Acceptance suite: every shipped correctness criterion at its frozen tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on a
green run). Thresholds for the training demonstration were pinned from
three-seed calibration runs on this implementation before freezing:
PB finals 0.86/0.915/0.94 against none finals 0.655/0.69/0.72 at
lr=0.15, 180 epochs, 200 training sequences.
"""

import time
from functools import partial

import numpy as np

from liquid_ssm.cli import main as cli_main
from liquid_ssm.conv import causal_conv, recurrent_s4
from liquid_ssm.kernel import kernel_genfn, kernel_naive
from liquid_ssm.liquid import (
    build_liquid_kernels,
    correlation_signals,
    liquid_expansion_oracle,
    liquid_oracle,
    liquid_oracle_pb_reference,
    recurrent_liquid,
)
from liquid_ssm.model import (
    LayerConfig,
    ModelStack,
    SequenceClassifier,
    SyntheticTask,
    train_demo,
)
from liquid_ssm.kernel import _best_of, bench_kernel
from liquid_ssm.pipeline import forward_liquid_s4
from liquid_ssm.ssm import (
    DiscreteSystem,
    _legs_core,
    discretize_bilinear,
    hippo_legs,
    nplr_decompose,
)
from liquid_ssm.verify import run_suite

from helpers import random_stable_system, rel_linf


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_hippo_dplr_correctness():
    t0 = time.perf_counter()
    rec_res, spec_res = 0.0, -np.inf
    for n in (2, 4, 16, 64):
        sys_ = nplr_decompose(n, seed=0)
        v = _legs_core(n)[3]
        rec = v @ sys_.a_dense() @ v.conj().T
        rec_res = max(rec_res, float(np.linalg.norm(rec - hippo_legs(n))))
        spec_res = max(spec_res, float(np.max(np.linalg.eigvals(sys_.a_dense()).real)))
    wall = time.perf_counter() - t0
    ok = rec_res < 1e-8 and spec_res <= 1e-8 and wall < 5.0
    report(
        "criterion-1 hippo/dplr-correctness",
        ok,
        f"reconstruction={rec_res:.3e} (tol 1e-8), max Re eig={spec_res:.3e} (tol 1e-8), wall={wall:.2f}s (<5s)",
    )


def test_criterion_2_kernel_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for l in (16, 64, 256, 1024):
        for _ in range(52):
            n = int(rng.integers(1, 65))
            dt = float(rng.uniform(1e-3, 0.2))
            sys_ = random_stable_system(rng, n)
            naive = kernel_naive(discretize_bilinear(sys_, dt), l)
            fast = kernel_genfn(sys_, dt, l)
            worst = max(worst, rel_linf(fast.taps, naive.taps))
            count += 1
    wall = time.perf_counter() - t0
    ok = worst < 1e-8 and count >= 200 and wall < 60.0
    report(
        "criterion-2 kernel-path-equivalence",
        ok,
        f"{count} systems, worst rel Linf={worst:.3e} (tol 1e-8), wall={wall:.1f}s (<60s)",
    )


def test_criterion_3_recurrent_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_forward = 0.0
    worst_impulse = 0.0
    for l in (16, 64, 256, 1024):
        for _ in range(6):
            n = int(rng.integers(1, 65))
            dt = float(rng.uniform(1e-3, 0.2))
            sys_ = random_stable_system(rng, n)
            d = discretize_bilinear(sys_, dt)
            u = rng.normal(size=l)
            worst_forward = max(
                worst_forward,
                rel_linf(forward_liquid_s4(sys_, dt, u, mode="none"), recurrent_s4(d, u)),
            )
            impulse = np.zeros(l)
            impulse[0] = 1.0
            worst_impulse = max(
                worst_impulse,
                float(np.max(np.abs(recurrent_s4(d, impulse) - kernel_naive(d, l).taps))),
            )
    ok = worst_forward < 1e-8 and worst_impulse < 1e-12
    report(
        "criterion-3 recurrent-oracle-equivalence",
        ok,
        f"forward-vs-recurrent={worst_forward:.3e} (tol 1e-8), impulse-vs-taps={worst_impulse:.3e} (tol 1e-12)",
    )


def test_criterion_4_unrolled_expansion_fidelity():
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(1, 4))
        sys_ = nplr_decompose(n, seed=trial)
        d = discretize_bilinear(sys_, float(rng.uniform(0.02, 0.3)))
        u = rng.normal(size=5)
        worst = max(
            worst,
            float(np.max(np.abs(recurrent_liquid(d, u) - liquid_expansion_oracle(d, u)))),
        )
    ok = worst < 1e-10
    report(
        "criterion-4 unrolled-expansion-fidelity",
        ok,
        f"25 systems at L=5, N<=3: worst abs err={worst:.3e} (tol 1e-10)",
    )


def test_criterion_5_liquid_kernel_semantics():
    rng = np.random.default_rng(13)
    worst_oracle = 0.0
    for trial in range(12):
        n = int(rng.integers(1, 9))
        sys_ = nplr_decompose(n, seed=trial + 50)
        dt = float(rng.uniform(0.02, 0.2))
        d = discretize_bilinear(sys_, dt)
        l = int(rng.choice([16, 32, 64]))
        window = int(rng.integers(1, min(17, l + 1)))
        max_order = int(rng.integers(2, 5))
        u = rng.normal(size=l)
        main = kernel_naive(d, l).taps
        for mode in ("kb", "pb"):
            kset = build_liquid_kernels(sys_, dt, mode, max_order, window)
            got = causal_conv([main, *kset.taps], correlation_signals(u, max_order))
            if mode == "kb":
                want = liquid_oracle(d, u, max_order, window)
            else:
                want = liquid_oracle_pb_reference(d, u, max_order, window)
            worst_oracle = max(worst_oracle, float(np.max(np.abs(got - want))))

    sys_ = nplr_decompose(6, seed=3)
    d = discretize_bilinear(sys_, 0.1)
    kset = build_liquid_kernels(sys_, 0.1, "kb", 3, 10)
    worst_powers = max(
        abs(kset.order_taps(p)[i] - np.vdot(d.c_bar, np.linalg.matrix_power(d.a_bar, i) @ d.b_bar**p).real)
        for p in (2, 3)
        for i in range(10)
    )

    from liquid_ssm.liquid import _liquid_kernels

    worst_kb_pb = 0.0
    for trial in range(8):
        n = int(rng.integers(1, 9))
        ident = DiscreteSystem(
            a_bar=np.eye(n),
            b_bar=rng.normal(size=n) + 1j * rng.normal(size=n),
            c_bar=rng.normal(size=n) + 1j * rng.normal(size=n),
        )
        kb, pb = (_liquid_kernels(ident, mode, 4, 7).taps for mode in ("kb", "pb"))
        worst_kb_pb = max(worst_kb_pb, *(float(np.max(np.abs(k - p))) for k, p in zip(kb, pb)))

    ok = worst_oracle < 1e-10 and worst_powers <= 1e-12 and worst_kb_pb < 1e-12
    report(
        "criterion-5 liquid-kernel-semantics",
        ok,
        f"kernel-path-vs-oracle={worst_oracle:.3e} (tol 1e-10), "
        f"kb-vs-dense-powers={worst_powers:.3e} (tol 1e-12), "
        f"kb(identity)-vs-pb={worst_kb_pb:.3e} (tol 1e-12)",
    )


def test_criterion_6_complexity_shape():
    t0 = time.perf_counter()
    sys_ = nplr_decompose(64, seed=0)
    lengths = [1024, 2048, 4096, 8192, 16384]
    bench = bench_kernel(sys_, 0.01, lengths, repeats=3)
    exponent = bench["summary"]["genfn_growth_exponent"]

    # window stays fixed while the sweep length grows; one warm-up call, then
    # best of 15 per sweep point taken round-robin, so a slow spell of the
    # host lands on every point instead of one
    build = partial(build_liquid_kernels, sys_, 0.01, "kb", 3, 256)
    build()
    liquid_times = _best_of([build] * len(lengths), 15)
    ratio = max(liquid_times) / min(liquid_times)
    wall = time.perf_counter() - t0
    ok = exponent <= 1.4 and ratio <= 1.5 and wall < 300.0
    report(
        "criterion-6 complexity-shape",
        ok,
        f"genfn growth exponent={exponent:.3f} (<=1.4), liquid time ratio={ratio:.3f} (<=1.5), wall={wall:.1f}s (<300s)",
    )


def test_criterion_7_mechanism_demonstration():
    t0 = time.perf_counter()
    task = SyntheticTask(name="adjacent-product-sign", length=32)
    finals = {}
    for mode in ("pb", "none"):
        accs = []
        for seed in (0, 1, 2):
            layer = LayerConfig(features=4, state_size=4, mode=mode, max_order=2, window=8)
            model = SequenceClassifier(ModelStack(layers=(layer,)), seq_length=32, seed=seed)
            assert model.param_count <= 2000
            rep = train_demo(model, task, epochs=180, lr=0.15, seed=seed, n_train=200)
            accs.append(rep["final_accuracy"])
        finals[mode] = accs
    pb_median = float(np.median(finals["pb"]))
    none_median = float(np.median(finals["none"]))
    wall = time.perf_counter() - t0
    ok = pb_median >= 0.85 and pb_median - none_median >= 0.10 and wall < 900.0
    report(
        "criterion-7 mechanism-demonstration",
        ok,
        f"PB median={pb_median:.3f} (>=0.85, seeds {finals['pb']}), none median={none_median:.3f}, "
        f"gap={pb_median - none_median:.3f} (>=0.10), wall={wall:.0f}s (<900s)",
    )


def test_criterion_8_harness_integrity(capsys):
    clean = run_suite(seed=0)
    poisoned = run_suite(seed=0, poison=True)
    clean_ok = all(c.passed for c in clean) and len(clean) >= 10
    poison_trips = not all(c.passed for c in poisoned)
    cli_clean = cli_main(["verify"]) == 0
    cli_poisoned = cli_main(["verify", "--poison"]) == 1
    capsys.readouterr()  # swallow the suite's own report lines
    ok = clean_ok and poison_trips and cli_clean and cli_poisoned
    report(
        "criterion-8 harness-integrity",
        ok,
        f"{len(clean)} invariants pass, poison trips={poison_trips}, "
        f"cli exit codes clean/poisoned = {0 if cli_clean else 'x'}/{1 if cli_poisoned else 'x'}",
    )
