"""Command-line surface: kernel generation, convolution, verification,
benchmarking, and the training demo.

Each command takes only the flags it reads (``COMMANDS``); a config file may
hold any ``RunConfig`` key, and a command ignores the keys it does not read.
Exit codes: 0 success, 1 verification failure, 2 usage/config error, an
input too large for memory or a diverged training run, 3 I/O error. Reports
are strict JSON documents (no NaN or Infinity); every command is
deterministic under a fixed seed, config and BLAS thread count apart from
fields under ``timing_ms`` (``kernel_genfn`` taps move by 4.8e-14
relative between one and two OpenBLAS threads at N = 256, L = 16384).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, replace
from functools import cache, partial

import numpy as np

from . import errors, seqio
from .kernel import _best_of, _genfn_kernel, _rel_linf, bench_kernel, kernel_naive
from .liquid import MAX_ORDER, _liquid_kernels, build_liquid_kernels, default_window
from .model import TASK_NAMES, LayerConfig, ModelStack, SequenceClassifier, SyntheticTask, train_demo
from .pipeline import MODES, feature_systems, forward_liquid_s4
from .ssm import (
    DEFAULT_DT_MAX,
    DplrSystem,
    _legs_core,
    discretize_bilinear,
    hippo_legs,
    init_dt_schedule,
    nplr_decompose,
)
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
    dt_max: float = DEFAULT_DT_MAX
    depth: int = 1
    classes: int = 2
    task: str = "adjacent-product-sign"
    epochs: int = 180
    lr: float = 0.15
    n_train: int = 200

    def validate(self):
        if not all(math.isfinite(v) for v in (self.dt_max, self.lr, self.dt_min or 1.0)):
            raise errors.ConfigError("dt_min, dt_max and lr must be finite")
        if self.seed < 0:
            raise errors.ConfigError(f"invalid seed: {self.seed}")
        if self.epochs < 0:
            raise errors.ConfigError(f"invalid epoch count: {self.epochs}")
        if self.lr < 0:
            raise errors.ConfigError(f"invalid learning rate: {self.lr}")
        if self.state < 1:
            raise errors.ConfigError(f"invalid dimension: state={self.state}")
        if self.length < 1:
            raise errors.ConfigError(f"invalid length: {self.length}")
        if self.features < 1:
            raise errors.ConfigError(f"invalid feature count: {self.features}")
        if self.mode not in MODES:
            raise errors.ConfigError(f"invalid mode: {self.mode!r}")
        if not 2 <= self.order <= MAX_ORDER:
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
        """The liquid window, never longer than the sequence."""
        return min(self.window if self.window is not None else default_window(self.length), self.length)


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
    if "input" not in args:  # convolve validates once its input has given the length and feature count
        cfg.validate()
    return cfg


def emit(document: dict, out_path: str | None):
    text = json.dumps(document, indent=2, allow_nan=False)  # strict JSON: no NaN or Infinity
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_hippo(cfg: RunConfig, args) -> int:
    a = hippo_legs(cfg.state)
    sys_ = nplr_decompose(cfg.state)
    v = _legs_core(cfg.state)[3]
    rec = v @ sys_.a_dense() @ v.conj().T
    doc = {
        "command": "hippo",
        "state_size": cfg.state,
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
    dts = init_dt_schedule(h, cfg.dt_min, cfg.dt_max, cfg.seed, length)
    return feature_systems(cfg.state, h, cfg.seed, dts)


def cmd_kernel(cfg: RunConfig, args) -> int:
    (sys_, dt), = _systems(cfg, 1, cfg.length)
    t0 = time.perf_counter()
    d = discretize_bilinear(sys_, dt)  # once, for the kernel, the liquid taps and the oracle
    t1 = time.perf_counter()
    fast = _genfn_kernel(d, cfg.length)
    timing = {"discretize": 1e3 * (t1 - t0), "genfn": 1e3 * (time.perf_counter() - t1)}
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
        kset = _liquid_kernels(d, cfg.mode, cfg.order, window)
        doc["liquid"] = {
            "mode": cfg.mode,
            "window": window,
            "residual_imag": kset.residual_imag,
            "orders": {str(p): kset.order_taps(p).tolist() for p in range(2, cfg.order + 1)},
        }
    status = 0
    if args.verify:
        t0 = time.perf_counter()
        naive = kernel_naive(d, cfg.length)
        timing["naive"] = 1e3 * (time.perf_counter() - t0)
        rel = _rel_linf(fast.taps, naive.taps)
        doc["verify"] = {
            "rel_linf": rel,
            "tolerance": KERNEL_AGREEMENT_TOL,
            "passed": rel < KERNEL_AGREEMENT_TOL,
        }
        status = 0 if doc["verify"]["passed"] else 1
    doc["timing_ms"] = timing
    emit(doc, args.out)
    return status


def cmd_convolve(cfg: RunConfig, args) -> int:
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
    window = cfg.resolved_window()
    out = np.empty_like(values)
    for i, (sys_, dt) in enumerate(_systems(cfg, h, length)):
        out[:, :, i] = forward_liquid_s4(sys_, dt, values[:, :, i], cfg.mode, cfg.order, window)
    seqio.write_sequences(args.out, out)
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    checks = run_suite(seed=cfg.seed, poison=args.poison)
    for chk in checks:
        flag = "PASS" if chk.passed else "FAIL"
        print(f"{flag} {chk.name} residual={chk.residual:.6e} tolerance={chk.tolerance:.1e}")
    doc = {
        "command": "verify",
        "seed": cfg.seed,
        "poison": bool(args.poison),
        "checks": [asdict(c) for c in checks],
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


def cmd_bench(cfg: RunConfig, args) -> int:
    (sys_, dt), = _systems(cfg, 1, BENCH_LENGTHS[0])
    report = bench_kernel(sys_, dt, list(BENCH_LENGTHS), repeats=3)
    window = cfg.window if cfg.window is not None else 256
    # the window stays fixed while the sweep length grows: one warm-up call,
    # then round-robin passes, so host noise lands on every sweep point alike
    build = partial(build_liquid_kernels, sys_, dt, "kb", cfg.order, window)
    build()
    liquid_times = _best_of([build] * len(BENCH_LENGTHS), 15)
    for l, best in zip(BENCH_LENGTHS, liquid_times):
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
            "liquid_max_order": cfg.order,
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


def cmd_train_demo(cfg: RunConfig, args) -> int:
    layer = LayerConfig(
        features=cfg.features,
        state_size=cfg.state,
        mode=cfg.mode,
        max_order=cfg.order if cfg.mode != "none" else 2,
        window=cfg.resolved_window(),
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
    total = 1e3 * (time.perf_counter() - t0)
    report["timing_ms"] = {"total": total}
    if cfg.epochs:  # per_epoch spreads the dataset draw and the final loss over the epochs too
        report["timing_ms"]["per_epoch"] = total / cfg.epochs
    emit(report, args.out)
    return 0


# argparse keyword arguments of every flag; each command takes the ones it reads
FLAGS = {
    "config": {"help": "JSON file of flat RunConfig keys, shared by every command"},
    "seed": {"type": int, "help": "RNG seed"},
    "mode": {"choices": MODES, "help": "liquid kernel mode"},
    "order": {"type": int, "help": "maximum liquid order P"},
    "window": {"type": int, "help": "liquid kernel window length"},
    "length": {"type": int, "help": "sequence length L"},
    "state": {"type": int, "help": "state size N"},
    "features": {"type": int, "help": "feature count H"},
    "depth": {"type": int, "help": "number of model layers"},
    "classes": {"type": int, "help": "number of task classes"},
    "epochs": {"type": int, "help": "training epochs"},
    "n-train": {"type": int, "help": "training set size"},
    "lr": {"type": float, "help": "learning rate"},
    "task": {"choices": TASK_NAMES, "help": "synthetic task"},
    "out": {"help": "output path (stdout when omitted)"},
}

# (name, help, flags read); main looks up the handler cmd_<name> on the module at dispatch
COMMANDS = (
    ("hippo", "emit the LegS matrix and its DPLR decomposition",
     ("config", "state", "out")),
    ("kernel", "generate main and liquid kernel taps",
     ("config", "seed", "mode", "order", "window", "length", "state", "out")),
    ("convolve", "run sequences from a file through the forward path",
     ("config", "seed", "mode", "order", "window", "state", "out")),
    ("verify", "run the full invariant suite", ("config", "seed", "out")),
    ("bench", "time kernel generation across a length sweep",
     ("config", "seed", "order", "window", "state", "out")),
    ("train-demo", "finite-difference training demonstration",
     ("config", "seed", "mode", "order", "window", "length", "state", "features", "depth",
      "classes", "epochs", "n-train", "lr", "task", "out")),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liquid-ssm",
        description="Liquid state-space kernel toolkit: generation, convolution, verification, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, flags in COMMANDS:
        commands[name] = sub.add_parser(name, help=help_text)
        for flag in flags:
            commands[name].add_argument(f"--{flag}", **FLAGS[flag])
    commands["kernel"].add_argument("--verify", action="store_true", help="cross-check against the naive path")
    commands["convolve"].add_argument("input", help="sequence file (.csv or binary)")
    commands["verify"].add_argument("--poison", action="store_true", help="inject a fault (self-test)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]  # looked up now, so a patched one runs
    try:
        return handler(load_config(args), args)
    except errors.SequenceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (errors.LiquidSsmError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
