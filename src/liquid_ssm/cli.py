"""Command-line surface: kernel generation, convolution, verification,
benchmarking, and the training demo.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 I/O error. Reports are JSON documents; every command is deterministic
under a fixed seed and config apart from fields under ``timing_ms``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import dataclass, replace

import numpy as np

from . import errors, seqio
from .kernel import _rel_linf, bench_kernel, kernel_genfn, kernel_naive
from .liquid import build_liquid_kernels, default_window
from .model import (
    LayerConfig,
    ModelStack,
    SequenceClassifier,
    SyntheticTask,
    train_demo,
)
from .pipeline import feature_systems, forward_liquid_s4
from .ssm import DplrSystem, discretize_bilinear, hippo_legs, init_dt_schedule, nplr_decompose
from .verify import run_suite

BENCH_LENGTHS = (1024, 2048, 4096, 8192, 16384)
KERNEL_AGREEMENT_TOL = 1e-8


@dataclass
class RunConfig:
    """Flat run configuration; JSON keys match field names."""

    seed: int = 0
    state: int = 8
    features: int = 1
    length: int = 64
    window: int | None = None
    order: int = 3
    mode: str = "pb"
    dt_min: float | None = None
    dt_max: float = 0.2
    depth: int = 1
    classes: int = 2
    task: str = "adjacent-product-sign"
    epochs: int = 180
    lr: float = 0.15
    n_train: int = 200

    def validate(self):
        if not all(math.isfinite(v) for v in (self.dt_max, self.lr, self.dt_min or 1.0)):
            raise errors.ConfigError("dt_min, dt_max and lr must be finite")
        if self.state < 1:
            raise errors.ConfigError(f"invalid dimension: state={self.state}")
        if self.length < 1:
            raise errors.ConfigError(f"invalid length: {self.length}")
        if self.features < 1:
            raise errors.ConfigError(f"invalid feature count: {self.features}")
        if self.mode not in ("kb", "pb", "none"):
            raise errors.ConfigError(f"invalid mode: {self.mode!r}")
        if self.mode != "none" and not 2 <= self.order <= 10:
            raise errors.ConfigError(f"invalid liquid order: {self.order}")
        if self.window is not None and self.window < 1:
            raise errors.ConfigError(f"invalid window: {self.window}")
        if self.dt_min is not None and self.dt_min <= 0:
            raise errors.ConfigError(f"invalid dt_min: {self.dt_min}")
        if self.dt_max <= 0 or (self.dt_min or 0.0) > self.dt_max:
            raise errors.ConfigError("invalid dt range")
        if self.depth < 1:
            raise errors.ConfigError(f"invalid depth: {self.depth}")

    def resolved_window(self) -> int:
        return self.window if self.window is not None else default_window(self.length)


_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _check_type(name: str, hint, value):
    """Raise ConfigError unless a JSON value fits its RunConfig field type.

    int fields reject bool and float, float fields take int or float, and
    None is allowed only for Optional fields.
    """
    args = typing.get_args(hint) or (hint,)
    if value is None and type(None) in args:
        return
    accepted = {int: (int,), float: (int, float), str: (str,)}[args[0]]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise errors.ConfigError(f"config key {name!r} needs {args[0].__name__}, got {value!r}")


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise errors.ConfigError(f"malformed config file: {exc}") from exc
        if not isinstance(data, dict):
            raise errors.ConfigError("config file must hold a JSON object")
        unknown = set(data) - set(_FIELD_TYPES)
        if unknown:
            raise errors.ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            _check_type(name, _FIELD_TYPES[name], value)
        cfg = replace(cfg, **data)
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    cfg.validate()
    return cfg


def emit(document: dict, out_path: str | None):
    text = json.dumps(document, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_hippo(args) -> int:
    cfg = load_config(args)
    a = hippo_legs(cfg.state)
    sys_ = nplr_decompose(cfg.state, seed=cfg.seed)
    rec = sys_.basis @ sys_.a_dense() @ sys_.basis.conj().T
    doc = {
        "command": "hippo",
        "state_size": cfg.state,
        "seed": cfg.seed,
        "matrix": a.tolist(),
        "dplr": {
            "lambda_re": sys_.lam.real.tolist(),
            "lambda_im": sys_.lam.imag.tolist(),
            "p_re": sys_.p.real.tolist(),
            "p_im": sys_.p.imag.tolist(),
            "b_re": sys_.b.real.tolist(),
            "b_im": sys_.b.imag.tolist(),
            "reconstruction_residual": float(np.linalg.norm(rec - a)),
            "max_spectrum_real_part": float(np.max(np.linalg.eigvals(sys_.a_dense()).real)),
        },
    }
    emit(doc, args.out)
    return 0


def _systems(cfg: RunConfig, h: int, length: int) -> list[tuple[DplrSystem, float]]:
    """The run's h per-feature systems, with steps drawn over the config's dt range."""
    schedule = init_dt_schedule(h, cfg.dt_min, cfg.dt_max, cfg.seed, length)
    return feature_systems(cfg.state, h, cfg.seed, schedule)


def cmd_kernel(args) -> int:
    cfg = load_config(args)
    (sys_, dt), = _systems(cfg, 1, cfg.length)
    t0 = time.perf_counter()
    fast = kernel_genfn(sys_, dt, cfg.length)
    genfn_ms = 1e3 * (time.perf_counter() - t0)
    doc = {
        "command": "kernel",
        "seed": cfg.seed,
        "state_size": cfg.state,
        "length": cfg.length,
        "dt": dt,
        "mode": cfg.mode,
        "kernel": {"taps": fast.taps.tolist(), "residual_imag": fast.residual_imag},
    }
    if cfg.mode != "none":
        window = cfg.resolved_window()
        kset = build_liquid_kernels(sys_, dt, cfg.mode, cfg.order, window)
        doc["liquid"] = {
            "mode": cfg.mode,
            "window": window,
            "residual_imag": kset.residual_imag,
            "orders": {str(p): kset.order_taps(p).tolist() for p in range(2, cfg.order + 1)},
        }
    status = 0
    if args.verify:
        t0 = time.perf_counter()
        naive = kernel_naive(discretize_bilinear(sys_, dt), cfg.length)
        naive_ms = 1e3 * (time.perf_counter() - t0)
        rel = _rel_linf(fast.taps, naive.taps)
        doc["verify"] = {
            "rel_linf": rel,
            "tolerance": KERNEL_AGREEMENT_TOL,
            "passed": rel < KERNEL_AGREEMENT_TOL,
        }
        doc["timing_ms"] = {"genfn": genfn_ms, "naive": naive_ms}
        status = 0 if doc["verify"]["passed"] else 1
    else:
        doc["timing_ms"] = {"genfn": genfn_ms}
    emit(doc, args.out)
    return status


def cmd_convolve(args) -> int:
    cfg = load_config(args)
    if not args.out:
        raise errors.ConfigError("convolve requires --out PATH for the sequence output")
    values = seqio.read_sequences(args.input)
    _, length, h = values.shape
    try:
        seqio.check_writable(args.out, h)
    except errors.DimensionError as exc:
        raise errors.ConfigError(f"--out {args.out}: {exc}") from exc
    cfg = replace(cfg, length=length, features=h)
    cfg.validate()
    window = min(cfg.resolved_window(), length)
    out = np.empty_like(values)
    for i, (sys_, dt) in enumerate(_systems(cfg, h, length)):
        out[:, :, i] = forward_liquid_s4(sys_, dt, values[:, :, i], cfg.mode, cfg.order, window)
    seqio.write_sequences(args.out, out)
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args)
    checks = run_suite(seed=cfg.seed, poison=args.poison)
    for chk in checks:
        flag = "PASS" if chk.passed else "FAIL"
        print(f"{flag} {chk.name} residual={chk.residual:.6e} tolerance={chk.tolerance:.1e}")
    doc = {
        "command": "verify",
        "seed": cfg.seed,
        "poison": bool(args.poison),
        "checks": [
            {
                "name": c.name,
                "residual": c.residual,
                "tolerance": c.tolerance,
                "passed": c.passed,
            }
            for c in checks
        ],
        "max_residual": max(c.residual for c in checks),
        "passed": all(c.passed for c in checks),
    }
    if args.out:
        emit(doc, args.out)
    if not doc["passed"]:
        failing = [c.name for c in checks if not c.passed]
        print(f"FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    cfg = load_config(args)
    (sys_, dt), = _systems(cfg, 1, BENCH_LENGTHS[0])
    report = bench_kernel(sys_, dt, list(BENCH_LENGTHS), repeats=3)
    window = cfg.window if cfg.window is not None else 256
    order = cfg.order if cfg.mode != "none" else 3
    liquid_times = []
    for l in BENCH_LENGTHS:
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            build_liquid_kernels(sys_, dt, "kb", order, window)
            best = min(best, time.perf_counter() - t0)
        liquid_times.append(best)
        report["records"].append(
            {"path": "liquid_kb", "L": int(l), "N": int(cfg.state), "millis": 1e3 * best}
        )
    print("path,L,N,millis")
    for rec in report["records"]:
        print(f"{rec['path']},{rec['L']},{rec['N']},{rec['millis']:.3f}")
    summary = report["summary"]
    doc = {
        "command": "bench",
        "seed": cfg.seed,
        "state_size": cfg.state,
        # deterministic part of the report
        "summary": {
            "lengths": summary["lengths"],
            "liquid_window": window,
            "liquid_max_order": order,
            "max_rel_disagreement": summary["max_rel_disagreement"],
        },
        # measured values all live under timing_ms (excluded from the
        # byte-identical determinism contract)
        "timing_ms": {
            "records": report["records"],
            "naive_growth_exponent": summary["naive_growth_exponent"],
            "genfn_growth_exponent": summary["genfn_growth_exponent"],
            "liquid_time_ratio": float(max(liquid_times) / max(min(liquid_times), 1e-12)),
        },
    }
    if args.out:
        emit(doc, args.out)
    return 0


def cmd_train_demo(args) -> int:
    cfg = load_config(args)
    layer = LayerConfig(
        features=cfg.features,
        state_size=cfg.state,
        mode=cfg.mode,
        max_order=cfg.order if cfg.mode != "none" else 2,
        window=min(cfg.resolved_window(), cfg.length),
        dt_min=cfg.dt_min,
        dt_max=cfg.dt_max,
    )
    stack = ModelStack(layers=tuple(layer for _ in range(cfg.depth)), n_classes=cfg.classes)
    task = SyntheticTask(name=cfg.task, length=cfg.length, n_classes=cfg.classes)
    model = SequenceClassifier(stack, seq_length=cfg.length, seed=cfg.seed)
    t0 = time.perf_counter()
    report = train_demo(
        model, task, epochs=cfg.epochs, lr=cfg.lr, seed=cfg.seed, n_train=cfg.n_train
    )
    report["command"] = "train-demo"
    report["timing_ms"] = {"total": 1e3 * (time.perf_counter() - t0)}
    emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquid-ssm",
        description="Liquid state-space kernel toolkit: generation, convolution, verification, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON file of flat RunConfig keys")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--mode", choices=["kb", "pb", "none"], help="liquid kernel mode")
        p.add_argument("--order", type=int, help="maximum liquid order P")
        p.add_argument("--window", type=int, help="liquid kernel window length")
        p.add_argument("--length", type=int, help="sequence length L")
        p.add_argument("--state", type=int, help="state size N")
        p.add_argument("--features", type=int, help="feature count H")
        p.add_argument("--out", help="output path (stdout when omitted)")

    p = sub.add_parser("hippo", help="emit the LegS matrix and its DPLR decomposition")
    add_common(p)
    p.set_defaults(func=cmd_hippo)

    p = sub.add_parser("kernel", help="generate main and liquid kernel taps")
    add_common(p)
    p.add_argument("--verify", action="store_true", help="cross-check against the naive path")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("convolve", help="run sequences from a file through the forward path")
    add_common(p)
    p.add_argument("input", help="sequence file (.csv or binary)")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("verify", help="run the full invariant suite")
    add_common(p)
    p.add_argument("--poison", action="store_true", help="inject a fault (self-test)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time kernel generation across a length sweep")
    add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train-demo", help="finite-difference training demonstration")
    add_common(p)
    for name, typ in (
        ("depth", int),
        ("classes", int),
        ("epochs", int),
        ("n-train", int),
    ):
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=typ)
    p.add_argument("--lr", type=float)
    p.add_argument("--task", choices=["adjacent-product-sign", "impulse-memory"])
    p.set_defaults(func=cmd_train_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.SequenceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except errors.LiquidSsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
