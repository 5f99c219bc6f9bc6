"""Oracle-gated benchmark of the liquid-ssm library.

    python3 perfbench/run.py --workload kernel-long --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from the ``src/`` directory next
to this one. One process runs one workload as a closed loop: a single client
issues operations back to back, with BLAS pinned to one thread. Every
operation's output is checked against the library's oracles; a failed check
or an exception counts as a failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced, then wraps the library's public functions in span recorders
for the other half and reports per-layer metrics; the spans are written to
``.perfbench_run/`` at the root of the checkout.

The last line of standard output is the result object; the line before it
records the seed, the environment and the self-tests.
"""

import os

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # must precede the first numpy import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
LIBRARY_MODULES = ("ssm", "kernel", "liquid", "conv", "pipeline", "seqio", "cli", "model")
# set-ups per batch; an untraced run sets up once before its timed loop and
# once after it, so the set-up median samples the machine at both ends
SETUP_REPEATS = 5
WARMUP_OPS = 2

# per-layer metrics read from the span summary: op_* fields are per traced
# operation, setup_* fields per traced set-up
_FIELDS = {"calls": ("op_calls", "calls/op"), "self_ms": ("op_self_ms", "ms/op"), "bytes": ("op_value", "B/op")}
_SPAN_METRICS = [
    (f"{span}.{kind}", span, *_FIELDS[kind])
    for span, kinds in (
        ("ssm.nplr_decompose", ("calls", "self_ms")),
        ("ssm.discretize_bilinear", ("calls", "self_ms")),
        ("kernel.kernel_genfn", ("calls", "self_ms")),
        ("kernel.truncate_generating_c", ("calls", "self_ms")),
        ("liquid.build_liquid_kernels", ("calls", "self_ms")),
        ("liquid.apply_liquid", ("calls", "self_ms")),
        ("liquid.correlation_signal", ("calls", "self_ms")),
        ("conv.causal_conv_fft", ("calls", "self_ms")),
        ("pipeline.feature_systems", ("calls", "self_ms")),
        ("seqio.read_sequences", ("self_ms", "bytes")),
        ("seqio.write_sequences", ("self_ms", "bytes")),
        ("cli.cmd_convolve", ("self_ms",)),
        ("model.SequenceClassifier.forward", ("calls", "self_ms")),
        ("model.SequenceClassifier.layer_contributions", ("self_ms",)),
        ("model.finite_difference_gradient", ("self_ms",)),
        ("model.train_demo", ("self_ms",)),
    )
    for kind in kinds
] + [
    (f"setup.{span}.self_ms", span, "setup_self_ms", "ms/setup")
    for span in ("ssm.nplr_decompose", "ssm.discretize_bilinear", "model.SequenceClassifier.__init__")
]


def import_library() -> SimpleNamespace:
    """Import liquid_ssm afresh from this checkout's src/, so set-up pays for it."""
    for name in [n for n in sys.modules if n == "liquid_ssm" or n.startswith("liquid_ssm.")]:
        del sys.modules[name]
    pkg = importlib.import_module("liquid_ssm")
    if Path(pkg.__file__).resolve().parent != SRC / "liquid_ssm":
        raise ImportError(f"liquid_ssm was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"liquid_ssm.{m}") for m in LIBRARY_MODULES})


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": PINNED_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "warmup_ops_excluded": WARMUP_OPS,
    }


class Gate:
    """Counts operations attempted and failed, and keeps the last good output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.worst = 0.0  # largest residual / tolerance seen
        self.last_output = None
        self.last_error = None

    def attempt(self, recorder=None):
        """One checked operation; returns its wall time, or None when it raised."""
        self.attempted += 1
        root = recorder.open("op") if recorder else None
        try:
            t0 = time.perf_counter()
            result = self.workload.run()
            elapsed = time.perf_counter() - t0
            if recorder:
                recorder.close(root)
                root = None
            out = self.workload.output(result)
            checks = self.workload.check(out)
        except Exception as exc:  # any exception is a failed operation, counted and reported
            if root is not None:
                recorder.close(root, failed=True)
            self.failed += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            return None
        self.worst = max([self.worst] + [r / t for r, t in checks])
        if all(r <= t for r, t in checks):
            self.last_output = out
        else:
            self.failed += 1
            self.last_error = f"oracle check failed: {checks}"
        return elapsed

    def measure(self, seconds: float, recorder=None) -> list[float]:
        times = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            elapsed = self.attempt(recorder)
            if elapsed is not None:
                times.append(elapsed)
        return times

    def poison_detected(self) -> bool:
        """Self-test: a perturbed output must fail the same check."""
        if self.last_output is None:
            return False
        checks = self.workload.check(self.workload.poison(self.last_output))
        return not all(r <= t for r, t in checks)


def set_up(workload, seed: int, workdir: str, recorder=None) -> tuple[list[float], SimpleNamespace]:
    """Set up SETUP_REPEATS times; the library of the last set-up is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_library()
        patches, _ = tracer.install(lib, recorder) if recorder else ([], [])
        root = recorder.open("setup") if recorder else None
        workload.setup(lib, seed, workdir)
        if recorder:
            recorder.close(root)
            tracer.uninstall(patches)
        times.append(time.perf_counter() - t0)
    return times, lib


def require_unwrapped():
    left = tracer.installed_wrappers()
    if left:
        raise RuntimeError(f"span wrappers still installed: {left}")


def end_to_end(workload, setup_times, op_times) -> dict:
    ms = 1e3 * np.asarray(op_times)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "samples_per_s": (workload.work_per_op * len(op_times) / sum(op_times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(summary: dict, unique_ratio: float, untraced: list[float], traced: list[float]) -> dict:
    empty = {"op_calls": 0.0, "op_self_ms": 0.0, "op_value": 0.0, "setup_self_ms": 0.0, "errors": 0}
    metrics = {
        name: (summary.get(span, empty)[field], unit) for name, span, field, unit in _SPAN_METRICS
    }
    metrics["ssm.discretize_bilinear.unique_ratio"] = (unique_ratio, "ratio")
    for layer in tracer.LAYERS:
        errors = sum(rec["errors"] for span, rec in summary.items() if span.startswith(f"{layer}."))
        metrics[f"{layer}.errors"] = (errors, "count")
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def write_spans(path: Path, info: dict, summary: dict, recorder: tracer.SpanRecorder):
    t0 = recorder.spans[0][1] if recorder.spans else 0.0
    spans = [[name, round(1e3 * (s - t0), 4), round(1e3 * (e - t0), 4), parent, value]
             for name, s, e, parent, value in recorder.spans]
    with open(path, "w") as fh:
        json.dump({**info, "per_span": summary, "span_fields": ["name", "start_ms", "end_ms", "parent", "value"],
                   "spans": spans}, fh, separators=(",", ":"))


def run(args, workdir: str) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    recorder = tracer.SpanRecorder() if args.trace else None
    require_unwrapped()
    setup_times, lib = set_up(workload, args.seed, workdir, recorder)
    workload.reference()
    gate = Gate(workload)
    for _ in range(WARMUP_OPS):
        gate.attempt()
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "env": environment()}
    if not args.trace:
        require_unwrapped()
        op_times = gate.measure(args.seconds)
        require_unwrapped()
        setup_times += set_up(WORKLOADS[args.workload](), args.seed, workdir)[0]
        info["setup_samples"] = len(setup_times)
        metrics = end_to_end(workload, setup_times, op_times) if op_times else {}
        info["op_samples"] = len(op_times)
    else:
        require_unwrapped()
        untraced = gate.measure(args.seconds / 2)
        patches, info["missing_targets"] = tracer.install(lib, recorder)
        traced = gate.measure(args.seconds / 2, recorder)
        tracer.uninstall(patches)
        require_unwrapped()
        summary = tracer.summarize(recorder, SETUP_REPEATS, len(traced))
        metrics = per_layer(summary, tracer.unique_ratio(recorder), untraced, traced) if untraced and traced else {}
        info["op_samples"] = {"untraced": len(untraced), "traced": len(traced)}
        info["spans_file"] = str((RUN_DIR / f"trace-{workload.name}-seed{args.seed}.json").relative_to(ROOT))
        write_spans(ROOT / info["spans_file"], info, summary, recorder)
    info["poison_detected"] = gate.poison_detected()
    info["worst_residual_over_tolerance"] = gate.worst
    info["last_error"] = gate.last_error
    result = {
        "correct": gate.failed == 0 and info["poison_detected"] and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "liquid_ssm" / "__init__.py").is_file():
        print(f"error: no liquid_ssm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        info, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
