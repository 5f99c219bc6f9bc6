import json
import math

import numpy as np
import pytest

from liquid_ssm import cli, errors, seqio
from liquid_ssm.cli import main
from liquid_ssm.conv import recurrent_s4
from liquid_ssm.liquid import default_window
from liquid_ssm.pipeline import feature_systems, forward_liquid_s4
from liquid_ssm.ssm import discretize_bilinear, init_dt_schedule


def run(argv):
    return main(argv)


def scrub_timing(doc):
    doc = dict(doc)
    doc.pop("timing_ms", None)
    return doc


class TestHippoCommand:
    def test_n3_matrix(self, tmp_path):
        out = tmp_path / "hippo.json"
        assert run(["hippo", "--state", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        want = [
            [-1.0, 0.0, 0.0],
            [-math.sqrt(3.0), -2.0, 0.0],
            [-math.sqrt(5.0), -math.sqrt(15.0), -3.0],
        ]
        assert np.asarray(doc["matrix"]) == pytest.approx(np.asarray(want))

    def test_invalid_dimension_exit_2(self, capsys):
        assert run(["hippo", "--state", "0"]) == 2
        assert "invalid dimension" in capsys.readouterr().err

    def test_n64_reconstruction_residual(self, tmp_path):
        out = tmp_path / "hippo64.json"
        assert run(["hippo", "--state", "64", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["dplr"]["reconstruction_residual"] < 1e-8
        assert doc["dplr"]["max_spectrum_real_part"] <= 1e-8


class TestKernelCommand:
    def test_mode_none_tap_count(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--mode", "none", "--length", "64", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["kernel"]["taps"]) == 64
        assert "liquid" not in doc

    def test_pb_order3_has_two_arrays(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(
            ["kernel", "--mode", "pb", "--order", "3", "--length", "64", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["liquid"]["orders"]) == ["2", "3"]

    def test_window_capped_at_length(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--length", "16", "--window", "64", "--mode", "kb", "--out", str(out)]) == 0
        liquid = json.loads(out.read_text())["liquid"]
        assert liquid["window"] == 16
        assert [len(t) for t in liquid["orders"].values()] == [16, 16]

    def test_oversized_length_exit_2(self, capsys):
        # 2**50 taps need petabytes, more than any 47-bit address space holds
        assert run(["kernel", "--length", str(2**50), "--state", "4", "--mode", "none"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verify_flag_exit_0(self, tmp_path):
        out = tmp_path / "k.json"
        assert run(["kernel", "--length", "128", "--state", "16", "--verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["verify"]["passed"] is True
        assert doc["verify"]["rel_linf"] < 1e-8


class TestConvolveCommand:
    def test_impulse_reproduces_kernel(self, tmp_path):
        # the kernel and convolve commands share seed/config defaults, so
        # convolving a unit impulse must reproduce the emitted taps
        impulse = np.zeros((1, 32, 1))
        impulse[0, 0, 0] = 1.0
        src = tmp_path / "impulse.lsq4"
        seqio.write_sequences(str(src), impulse)
        kout = tmp_path / "k.json"
        out = tmp_path / "y.lsq4"
        assert run(["kernel", "--mode", "none", "--length", "32", "--out", str(kout)]) == 0
        assert run(["convolve", str(src), "--mode", "none", "--out", str(out)]) == 0
        taps = np.asarray(json.loads(kout.read_text())["kernel"]["taps"])
        got = seqio.read_sequences(str(out))[0, :, 0]
        assert got == pytest.approx(taps, abs=1e-12)

    def test_output_matches_recurrent_oracle(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(2, 48, 1))
        src = tmp_path / "u.lsq4"
        seqio.write_sequences(str(src), values)
        out = tmp_path / "y.lsq4"
        assert run(["convolve", str(src), "--mode", "none", "--seed", "5", "--out", str(out)]) == 0
        got = seqio.read_sequences(str(out))
        (sys_, dt), = feature_systems(8, 1, 5, seq_length=48)
        d = discretize_bilinear(sys_, dt)
        for bi in range(2):
            want = recurrent_s4(d, values[bi, :, 0])
            err = np.max(np.abs(got[bi, :, 0] - want)) / np.max(np.abs(want))
            assert err < 1e-8

    def test_dt_range_config_applies(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(2, 40, 2))
        src = tmp_path / "u.lsq4"
        seqio.write_sequences(str(src), values)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt_min": 0.01, "dt_max": 0.05}))
        outs = {}
        for name, extra in (("default", []), ("ranged", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.lsq4"
            assert run(["convolve", str(src), "--mode", "kb", "--order", "3", "--out", str(out)] + extra) == 0
            outs[name] = seqio.read_sequences(str(out))
        assert not np.array_equal(outs["default"], outs["ranged"])
        schedule = init_dt_schedule(2, 0.01, 0.05, 0, 40)
        for i, (sys_, dt) in enumerate(feature_systems(8, 2, 0, schedule)):
            want = forward_liquid_s4(sys_, dt, values[:, :, i], "kb", 3, default_window(40))
            np.testing.assert_array_equal(outs["ranged"][:, :, i], want)

    def test_csv_roundtrip(self, tmp_path):
        src = tmp_path / "u.csv"
        src.write_text("1.0,0.0,0.0,0.0\n")
        out = tmp_path / "y.csv"
        assert run(["convolve", str(src), "--mode", "pb", "--order", "2", "--window", "2", "--out", str(out)]) == 0
        got = seqio.read_sequences(str(out))
        assert got.shape == (1, 4, 1)

    def test_zero_length_file_exit_3(self, tmp_path, capsys):
        src = tmp_path / "empty.csv"
        src.write_text("")
        assert run(["convolve", str(src), "--out", str(tmp_path / "y.csv")]) == 3
        assert "byte offset" in capsys.readouterr().err

    def test_malformed_binary_names_offset(self, tmp_path, capsys):
        src = tmp_path / "bad.lsq4"
        src.write_bytes(b"LSQ4" + b"\x00" * 10)
        assert run(["convolve", str(src), "--out", str(tmp_path / "y.lsq4")]) == 3
        assert "byte offset" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        assert run(["convolve", str(tmp_path / "nope.lsq4"), "--out", str(tmp_path / "y.lsq4")]) == 3

    def test_missing_out_exit_2_before_reading(self, tmp_path, capsys):
        assert run(["convolve", str(tmp_path / "nope.lsq4")]) == 2
        assert "--out" in capsys.readouterr().err

    def test_multi_feature_csv_out_exit_2(self, tmp_path, capsys):
        src = tmp_path / "u.lsq4"
        seqio.write_sequences(str(src), np.ones((1, 8, 2)))
        out = tmp_path / "y.csv"
        assert run(["convolve", str(src), "--out", str(out)]) == 2
        assert "2 features" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_exit_0_and_enough_invariants(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run(["verify", "--out", str(out)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 10
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert len(doc["checks"]) >= 10
        assert "max_residual" in doc
        assert all("residual" in c for c in doc["checks"])

    def test_poison_exit_1(self, capsys):
        assert run(["verify", "--poison"]) == 1
        err = capsys.readouterr()
        assert "genfn_matches_naive_kernel" in err.err


class TestBenchCommand:
    def test_record_lines_and_schema(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run(["bench", "--state", "8", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "path,L,N,millis"
        paths = {line.split(",")[0] for line in lines[1:]}
        assert paths == {"naive", "genfn", "liquid_kb"}
        doc = json.loads(out.read_text())
        assert doc["summary"]["max_rel_disagreement"] < 1e-8
        timing = doc["timing_ms"]
        assert {"naive_growth_exponent", "genfn_growth_exponent", "liquid_time_ratio"} <= set(timing)
        assert len(timing["records"]) == 15  # three paths, five lengths

    def test_deterministic_outside_timing(self, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["bench", "--state", "4", "--out", str(out)]) == 0
            docs.append(scrub_timing(json.loads(out.read_text())))
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


class TestTrainDemoCommand:
    def test_report_persisted(self, tmp_path):
        out = tmp_path / "train.json"
        assert run(
            [
                "train-demo",
                "--length", "16",
                "--state", "4",
                "--features", "2",
                "--mode", "pb",
                "--order", "2",
                "--epochs", "2",
                "--lr", "0.05",
                "--n-train", "30",
                "--out", str(out),
            ]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "train-demo"
        assert len(doc["loss"]) == 2

    def test_budget_guard_exit_2(self, tmp_path, capsys):
        assert run(
            [
                "train-demo",
                "--length", "16",
                "--state", "16",
                "--features", "64",
                "--mode", "pb",
                "--epochs", "1",
                "--out", str(tmp_path / "t.json"),
            ]
        ) == 2
        assert "budget" in capsys.readouterr().err

    def test_unbalanceable_n_train_exit_2(self, tmp_path, capsys):
        # adjacent-product-sign cannot split an odd n below 11 within 5 percent of half
        out = tmp_path / "t.json"
        assert run(["train-demo", "--n-train", "3", "--epochs", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n=3" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_diverged_run_exit_2(self, tmp_path, capsys, source):
        # a huge step overflows the parameters: no report with NaN losses
        argv = ["train-demo", "--epochs", "2"]
        if source == "flag":
            argv += ["--lr", "1e300"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lr": 1e300}))
            argv += ["--config", str(cfg)]
        out = tmp_path / "t.json"
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "diverged" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestConfigHandling:
    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": 5, "length": 16, "mode": "none"}))
        out = tmp_path / "k.json"
        assert run(["kernel", "--config", str(cfg), "--length", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["state_size"] == 5
        assert doc["length"] == 8

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stat": 5}))
        assert run(["kernel", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_mode_value_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "wet"}))
        assert run(["kernel", "--config", str(cfg)]) == 2

    def test_order_range_checked_in_every_mode(self, tmp_path, capsys):
        # bench times KB taps at the configured order whatever the mode
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "none", "order": 40}))
        assert run(["bench", "--config", str(cfg)]) == 2
        assert "invalid liquid order" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"state": "8"}',
            '{"window": "8"}',
            '{"dt_max": null}',
            '{"seed": "x"}',
            '{"state": true}',
            '{"length": 2.5}',
            '{"epochs": "3"}',
            '{"dt_max": NaN}',
            "[1]",
        ],
    )
    def test_wrongly_typed_value_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["kernel", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["kernel", "--seed", "-1"], ["verify", "--seed", "-1"], ["train-demo", "--epochs", "-3"]],
    )
    def test_negative_seed_or_epochs_exit_2(self, tmp_path, capsys, argv):
        assert run(argv + ["--out", str(tmp_path / "o.json")]) == 2
        assert "error: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_lr_exit_2(self, tmp_path, capsys, source):
        argv = ["train-demo", "--epochs", "1", "--n-train", "20", "--length", "8"]
        if source == "flag":
            argv += ["--lr", "-5"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"lr": -5.0}))
            argv += ["--config", str(cfg)]
        assert run(argv + ["--out", str(tmp_path / "o.json")]) == 2
        assert "error: invalid learning rate" in capsys.readouterr().err

    def test_determinism_excluding_timing(self, tmp_path):
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(["kernel", "--mode", "pb", "--length", "32", "--seed", "7", "--verify", "--out", str(out)]) == 0
            docs.append(scrub_timing(json.loads(out.read_text())))
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True)


def _error(cls):
    """An instance of cls carrying one message, whatever its constructor takes."""
    exc = cls.__new__(cls)
    Exception.__init__(exc, "injected fault")
    return exc


@pytest.mark.parametrize(
    "cls", errors.LiquidSsmError.__subclasses__() + [OSError, MemoryError], ids=lambda c: c.__name__
)
def test_every_error_class_has_its_exit_code(cls, monkeypatch, capsys):
    def fail(n):
        raise _error(cls)

    monkeypatch.setattr(cli, "hippo_legs", fail)
    io_error = cls is OSError or issubclass(cls, errors.SequenceParseError)
    assert run(["hippo", "--state", "3"]) == (3 if io_error else 2)
    captured = capsys.readouterr()
    assert captured.out == ""
    # exactly one line on stderr, so no traceback
    prefix = "I/O error: " if cls is OSError else "error: "
    assert captured.err == prefix + "injected fault\n"


def test_handler_looked_up_on_the_module(monkeypatch):
    # a patched cmd_* (a tracer's wrapper, say) is the handler main calls
    calls = []
    monkeypatch.setattr(cli, "cmd_hippo", lambda cfg, args: calls.append(args.command) or 0)
    assert main(["hippo"]) == 0
    assert calls == ["hippo"]


UNREAD_FLAGS = (
    [("hippo", f) for f in ("mode", "order", "window", "length", "features")]
    + [("kernel", "features"), ("convolve", "length"), ("convolve", "features")]
    + [("verify", f) for f in ("state", "mode", "order", "window", "length", "features")]
    + [("bench", f) for f in ("mode", "length", "features")]
)


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_flag_the_command_does_not_read_is_rejected(command, flag, capsys):
    argv = [command] + (["in.lsq4"] if command == "convolve" else [])
    with pytest.raises(SystemExit) as exc:
        run(argv + [f"--{flag}", "kb" if flag == "mode" else "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
