"""Span recorder and the wrappers that feed it.

The traced run replaces the library's public functions with thin wrappers on
the module attributes through which other modules call them (``liquid``
imports ``causal_conv_fft`` by name, so ``liquid.causal_conv_fft`` is patched
alongside ``conv.causal_conv_fft``). Methods are patched on their class. Each
wrapper records one span: name, start, end, parent span and, for a few
targets, a value (bytes moved, or a key identifying the discretized system).
Spans stay in memory and are summarised and written when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from collections import defaultdict
from time import perf_counter

MARKER = "__perfbench_span__"


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _system_key(args, kwargs, result):
    """Digest of the (system, dt) pair a discretization was asked for."""
    sys_ = args[0] if args else kwargs["sys"]
    dt = args[1] if len(args) > 1 else kwargs["dt"]
    h = hashlib.blake2b(digest_size=8)
    for v in (sys_.lam, sys_.p, sys_.b, sys_.c):
        h.update(v.tobytes())
    h.update(repr(float(dt)).encode())
    return h.hexdigest()


# (layer, attribute) pairs; a dotted attribute names a method on a class.
# The third field derives the span's value from the call, when it has one.
TARGETS = (
    ("ssm", "nplr_decompose", None),
    ("ssm", "discretize_bilinear", _system_key),
    ("kernel", "kernel_genfn", None),
    ("kernel", "truncate_generating_c", None),
    ("liquid", "build_liquid_kernels", None),
    ("liquid", "apply_liquid", None),
    ("liquid", "correlation_signal", None),
    ("conv", "causal_conv_fft", None),
    ("pipeline", "feature_systems", None),
    ("seqio", "read_sequences", _file_bytes),
    ("seqio", "write_sequences", _file_bytes),
    ("cli", "cmd_convolve", None),
    ("model", "SequenceClassifier.__init__", None),
    ("model", "SequenceClassifier.forward", None),
    ("model", "SequenceClassifier.layer_contributions", None),
    ("model", "finite_difference_gradient", None),
    ("model", "train_demo", None),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


class SpanRecorder:
    """In-memory spans: ``[name, start, end, parent, value]``, parent -1 at a root."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.errors: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1, None])
        self._open.append(sid)
        return sid

    def close(self, sid: int, failed: bool = False):
        self.spans[sid][2] = perf_counter()
        self._open.pop()
        if failed:
            self.errors[self.spans[sid][0]] += 1

    def call(self, name: str, fn, args, kwargs, value=None):
        sid = self.open(name)
        try:
            result = fn(*args, **kwargs)
            if value is not None:
                self.spans[sid][4] = value(args, kwargs, result)
        except BaseException:
            self.close(sid, failed=True)
            raise
        self.close(sid)
        return result

    def roots(self) -> list[int]:
        """Index of the root span each span belongs to."""
        root = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def self_ms(self) -> list[float]:
        """Span duration minus the time its (synchronously nested) children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [1e3 * (end - start - c) for (_, start, end, _, _), c in zip(self.spans, child)]


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "liquid_ssm" or name.startswith("liquid_ssm."))]


def install(lib, recorder: SpanRecorder) -> tuple[list[tuple], list[str]]:
    """Wrap every target the library still has.

    Returns the patches that ``uninstall`` reverts and the names of targets
    not found, whose metrics then read zero.
    """
    patches, missing = [], []
    modules = _library_modules()
    for layer, attr, value in TARGETS:
        name = f"{layer}.{attr}"
        owner = getattr(lib, layer)
        if "." in attr:
            cls_name, attr_name = attr.split(".")
            owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr_name) if owner is not None else None
            owners = [(owner, attr_name)]
        else:
            original = getattr(owner, attr, None)
            owners = [(m, key) for m in modules for key, v in vars(m).items() if v is original]
        if original is None:
            missing.append(name)
            continue

        def wrapper(*args, _fn=original, _name=name, _value=value, **kwargs):
            return recorder.call(_name, _fn, args, kwargs, _value)

        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARKER, name)
        for owner, key in owners:
            setattr(owner, key, wrapper)
            patches.append((owner, key, original))
    return patches, missing


def uninstall(patches: list[tuple]):
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


def installed_wrappers() -> list[str]:
    """Names of span wrappers still reachable from the library's modules."""
    found = []
    for m in _library_modules():
        for value in vars(m).values():
            spaces = [value] + (list(vars(value).values()) if isinstance(value, type) else [])
            found += [getattr(v, MARKER) for v in spaces if hasattr(v, MARKER)]
    return found


def summarize(recorder: SpanRecorder, n_setups: int, n_ops: int) -> dict:
    """Per-name figures per traced op and per traced set-up.

    Also the median inclusive time and the count of exceptions that left
    the span.
    """
    roots = recorder.roots()
    self_ms = recorder.self_ms()
    per = defaultdict(lambda: {"op_calls": 0, "op_self_ms": 0.0, "op_value": 0.0,
                               "setup_calls": 0, "setup_self_ms": 0.0, "incl_ms": []})
    for i, (name, start, end, _, value) in enumerate(recorder.spans):
        phase = recorder.spans[roots[i]][0]
        rec = per[name]
        rec[f"{phase}_calls"] += 1
        rec[f"{phase}_self_ms"] += self_ms[i]
        rec["incl_ms"].append(1e3 * (end - start))
        if phase == "op" and isinstance(value, int):
            rec["op_value"] += value
    out = {}
    for name, rec in per.items():
        incl = sorted(rec.pop("incl_ms"))
        out[name] = {
            "op_calls": rec["op_calls"] / max(n_ops, 1),
            "op_self_ms": rec["op_self_ms"] / max(n_ops, 1),
            "op_value": rec["op_value"] / max(n_ops, 1),
            "setup_calls": rec["setup_calls"] / max(n_setups, 1),
            "setup_self_ms": rec["setup_self_ms"] / max(n_setups, 1),
            "incl_ms_p50": incl[len(incl) // 2],
            "errors": recorder.errors.get(name, 0),
        }
    return out


def unique_ratio(recorder: SpanRecorder) -> float:
    """Distinct (system, dt) pairs over discretize calls, within each set-up or op.

    1.0 when nothing was discretized: no call was redundant.
    """
    roots = recorder.roots()
    per_unit: dict[int, list] = defaultdict(list)
    for i, (name, _, _, _, value) in enumerate(recorder.spans):
        if name == "ssm.discretize_bilinear":
            per_unit[roots[i]].append(value)
    calls = sum(len(keys) for keys in per_unit.values())
    return sum(len(set(keys)) for keys in per_unit.values()) / calls if calls else 1.0
