from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liquid_ssm.errors import SequenceParseError
from liquid_ssm import seqio


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 17, 2))
        path = str(tmp_path / "seq.lsq4")
        seqio.write_sequences_binary(path, values)
        back = seqio.read_sequences_binary(path)
        assert np.array_equal(values, back)

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "seq.lsq4")
        seqio.write_sequences_binary(path, np.zeros((2, 3, 1)))
        raw = Path(path).read_bytes()
        assert raw[:4] == b"LSQ4"
        assert len(raw) == 24 + 8 * 6

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.lsq4"
        path.write_bytes(b"")
        with pytest.raises(SequenceParseError) as exc:
            seqio.read_sequences_binary(str(path))
        assert exc.value.offset == 0

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.lsq4"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(SequenceParseError) as exc:
            seqio.read_sequences_binary(str(path))
        assert exc.value.offset == 0

    def test_truncated_payload_offset(self, tmp_path):
        path = str(tmp_path / "trunc.lsq4")
        seqio.write_sequences_binary(path, np.zeros((1, 4, 1)))
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-8])
        with pytest.raises(SequenceParseError) as exc:
            seqio.read_sequences_binary(path)
        assert exc.value.offset == len(raw) - 8


class TestCsvFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(4, 9, 1))
        path = str(tmp_path / "seq.csv")
        seqio.write_sequences_csv(path, values)
        back = seqio.read_sequences_csv(path)
        assert np.array_equal(values, back)

    def test_hand_written(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        back = seqio.read_sequences_csv(str(path))
        assert back.shape == (2, 3, 1)
        assert back[1, 2, 0] == 6.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SequenceParseError) as exc:
            seqio.read_sequences_csv(str(path))
        assert exc.value.offset == 0

    def test_bad_token_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        text = "1.0,2.0\n3.0,oops\n"
        path.write_text(text)
        with pytest.raises(SequenceParseError) as exc:
            seqio.read_sequences_csv(str(path))
        assert exc.value.offset == text.index("oops")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(SequenceParseError):
            seqio.read_sequences_csv(str(path))

    def test_multi_feature_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            seqio.write_sequences_csv(str(tmp_path / "x.csv"), np.zeros((1, 4, 2)))


# CSV-like text reaches the number, ragged-row and non-finite checks that
# arbitrary bytes rarely get past; a valid magic does the same for LSQ4
FUZZ_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.,-+e \nainf", max_size=200).map(str.encode),
    st.binary(max_size=200).map(lambda tail: seqio.MAGIC + tail),
)


class TestFuzz:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=FUZZ_BYTES, suffix=st.sampled_from([".lsq4", ".csv"]))
    def test_random_bytes_parse_or_raise_parse_error(self, tmp_path, raw, suffix):
        path = tmp_path / f"fuzz{suffix}"
        path.write_bytes(raw)
        try:
            values = seqio.read_sequences(str(path))
        except SequenceParseError:
            return
        assert values.ndim == 3 and values.dtype == float
        assert np.all(np.isfinite(values))


class TestDispatch:
    def test_extension_dispatch(self, tmp_path):
        values = np.ones((2, 4, 1))
        csv_path = str(tmp_path / "a.csv")
        bin_path = str(tmp_path / "a.lsq4")
        seqio.write_sequences(csv_path, values)
        seqio.write_sequences(bin_path, values)
        assert np.array_equal(seqio.read_sequences(csv_path), values)
        assert np.array_equal(seqio.read_sequences(bin_path), values)
