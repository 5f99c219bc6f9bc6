"""The three closed-loop workloads.

Each workload has four steps. ``setup`` makes the program's own set-up calls
and the seeded inputs; it is what ``setup_s`` times. ``reference`` builds the
oracle answer once, untimed. ``run`` is one timed operation through the
library's public functions. ``output`` turns its result into what ``check``
compares with the oracle, untimed. A check returns (residual, tolerance)
pairs; the operation passes when every residual is within its tolerance.
"""

from __future__ import annotations

import struct

import numpy as np

LSQ4_HEADER = struct.Struct("<4sIIIII")  # magic, version, batch, length, features, reserved


def rel_linf(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def write_lsq4(path: str, values: np.ndarray):
    """LSQ4 file: 24-byte header, then (batch, time, feature) little-endian float64."""
    b, l, h = values.shape
    with open(path, "wb") as fh:
        fh.write(LSQ4_HEADER.pack(b"LSQ4", 1, b, l, h, 0))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_lsq4(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, version, b, l, h, _ = LSQ4_HEADER.unpack_from(raw, 0)
    if magic != b"LSQ4" or version != 1 or len(raw) != LSQ4_HEADER.size + 8 * b * l * h:
        raise ValueError(f"{path}: not an LSQ4 v1 file of its declared shape")
    return np.frombuffer(raw, dtype="<f8", offset=LSQ4_HEADER.size).reshape(b, l, h)


def consecutive_products(u: np.ndarray, p: int) -> np.ndarray:
    """u[k] u[k-1] ... u[k-p+1], zero for k < p-1."""
    out = np.zeros_like(u)
    out[p - 1 :] = np.prod([u[j : len(u) - p + 1 + j] for j in range(p)], axis=0)
    return out


def flip_first(values: np.ndarray) -> np.ndarray:
    """Copy with one entry flipped, the fault ``liquid-ssm verify --poison`` injects."""
    bad = np.array(values, dtype=float, copy=True)
    bad.flat[0] = -bad.flat[0] - 1.0
    return bad


class KernelLong:
    """One long main kernel plus the KB liquid taps of the same system."""

    name = "kernel-long"
    STATE, DT, LENGTH, ORDER, WINDOW = 64, 0.01, 65536, 3, 256
    work_per_op = LENGTH + (ORDER - 1) * WINDOW

    def setup(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.sys = lib.ssm.nplr_decompose(self.STATE, seed=seed)

    def reference(self):
        lib = self.lib
        d = lib.ssm.discretize_bilinear(self.sys, self.DT)
        self.ref = [lib.kernel.kernel_naive(d, self.LENGTH).taps] + [
            lib.liquid._kb_taps_discrete(d, p, self.WINDOW).real
            for p in range(2, self.ORDER + 1)
        ]

    def run(self):
        k = self.lib.kernel.kernel_genfn(self.sys, self.DT, self.LENGTH)
        kset = self.lib.liquid.build_liquid_kernels(self.sys, self.DT, "kb", self.ORDER, self.WINDOW)
        return k, kset

    def output(self, result):
        k, kset = result
        return [k.taps] + [kset.order_taps(p) for p in range(2, self.ORDER + 1)]

    def check(self, out):
        tolerances = [1e-8] + [1e-10] * (self.ORDER - 1)
        return [(rel_linf(o, r), tol) for o, r, tol in zip(out, self.ref, tolerances)]

    def poison(self, out):
        return [flip_first(out[0])] + out[1:]


class ForwardBatch:
    """``liquid-ssm convolve`` on a seeded LSQ4 batch, in process."""

    name = "forward-batch"
    BATCH, LENGTH, FEATURES, STATE, ORDER = 64, 2048, 4, 8, 3
    work_per_op = BATCH * LENGTH * FEATURES

    def setup(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.inp, self.out = f"{workdir}/in.lsq4", f"{workdir}/out.lsq4"
        rng = np.random.default_rng(seed)
        self.values = rng.standard_normal((self.BATCH, self.LENGTH, self.FEATURES))
        write_lsq4(self.inp, self.values)

    def reference(self):
        """Oracle taps convolved by direct summation, feature by feature."""
        lib = self.lib
        # the systems `convolve` derives at its default seed (0)
        bank = lib.pipeline.feature_systems(self.STATE, self.FEATURES, 0, seq_length=self.LENGTH)
        window = min(lib.liquid.default_window(self.LENGTH), self.LENGTH)
        self.ref = np.empty_like(self.values)
        for i, (sys_, dt) in enumerate(bank):
            d = lib.ssm.discretize_bilinear(sys_, dt)
            main = lib.kernel.kernel_naive(d, self.LENGTH).taps
            liquid = {p: lib.liquid._kb_taps_discrete(d, p, window).real for p in range(2, self.ORDER + 1)}
            for b in range(self.BATCH):
                u = self.values[b, :, i]
                y = lib.conv.causal_conv_direct(main, u)
                for p, taps in liquid.items():
                    y += lib.conv.causal_conv_direct(taps, consecutive_products(u, p))
                self.ref[b, :, i] = y

    def run(self):
        argv = ["convolve", self.inp, "--mode", "kb", "--order", str(self.ORDER),
                "--state", str(self.STATE), "--out", self.out]
        status = self.lib.cli.main(argv)
        if status != 0:
            raise RuntimeError(f"convolve exited with status {status}")

    def output(self, result):
        return read_lsq4(self.out)

    def check(self, out):
        return [(rel_linf(out, self.ref), 1e-8)]

    def poison(self, out):
        return flip_first(out)


class TrainFd:
    """Finite-difference training epochs in the acceptance criterion-7 configuration."""

    name = "train-fd"
    FEATURES, STATE, ORDER, WINDOW, LENGTH = 4, 4, 2, 8, 32
    N_TRAIN, LR, EPOCHS = 200, 0.15, 1
    MOMENTUM, FD_STEP = 0.9, 1e-4  # train_demo's defaults, restated for the reference loop
    work_per_op = N_TRAIN * LENGTH * EPOCHS

    def setup(self, lib, seed: int, workdir: str):
        self.lib, self.seed = lib, seed
        m = lib.model
        layer = m.LayerConfig(features=self.FEATURES, state_size=self.STATE, mode="pb",
                              max_order=self.ORDER, window=self.WINDOW)
        self.task = m.SyntheticTask(name="adjacent-product-sign", length=self.LENGTH)
        self.model = m.SequenceClassifier(m.ModelStack(layers=(layer,)), seq_length=self.LENGTH, seed=seed)
        self.theta0 = self.model.get_param_vector()

    def reference(self):
        """The training loop restated with the public gradient and loss calls."""
        m, model = self.lib.model, self.model
        batch, labels = m.generate_task(self.task, self.N_TRAIN, self.seed)
        u = batch.values[:, :, 0]

        def objective(theta):
            model.set_param_vector(theta)
            return model.loss_and_accuracy(u, labels)[0]

        theta, velocity, losses = self.theta0.copy(), np.zeros_like(self.theta0), []
        for _ in range(self.EPOCHS):
            losses.append(objective(theta))
            grad = m.finite_difference_gradient(objective, theta, rel_step=self.FD_STEP)
            velocity = self.MOMENTUM * velocity - self.LR * grad
            theta = theta + velocity
        losses.append(objective(theta))
        self.ref = np.array(losses)

    def run(self):
        self.model.set_param_vector(self.theta0)
        return self.lib.model.train_demo(self.model, self.task, epochs=self.EPOCHS, lr=self.LR,
                                         seed=self.seed, n_train=self.N_TRAIN)

    def output(self, report):
        return np.array(report["loss"] + [report["final_loss"]])

    def check(self, out):
        return [(rel_linf(out, self.ref), 1e-9)]

    def poison(self, out):
        return flip_first(out)


WORKLOADS = {w.name: w for w in (KernelLong, ForwardBatch, TrainFd)}
