import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pksvd.errors import MalformedFile
from pksvd.formats import (
    CODES_MAGIC,
    DICT_MAGIC,
    _decode_matrix,
    load_codes,
    load_dictionary,
    save_codes,
    save_dictionary,
    trace_csv_text,
    write_trace_csv,
)
from pksvd.frames import Dictionary
from pksvd.parseval_ksvd import ConvergenceTrace


class TestDictionaryFormat:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        d = Dictionary(rng.standard_normal((5, 9)))
        path = tmp_path / "d.pk"
        save_dictionary(d, path)
        back = load_dictionary(path)
        assert back.mat.shape == (5, 9)
        assert np.array_equal(back.mat, d.mat)  # bit exact

    def test_layout(self, tmp_path):
        d = Dictionary(np.eye(2))
        path = tmp_path / "d.pk"
        save_dictionary(d, path)
        blob = path.read_bytes()
        assert blob.startswith(DICT_MAGIC + b"2 2\n")
        assert len(blob) == len(DICT_MAGIC) + 4 + 4 * 8

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            save_dictionary(Dictionary(np.eye(2)), tmp_path / "d.pk")
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pk"
        path.write_bytes(b"NOTPK1\n2 2\n" + b"\x00" * 32)
        with pytest.raises(MalformedFile):
            load_dictionary(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.pk"
        path.write_bytes(DICT_MAGIC + b"2 2\n" + b"\x00" * 16)
        with pytest.raises(MalformedFile):
            load_dictionary(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.pk"
        path.write_bytes(DICT_MAGIC + b"two two\n")
        with pytest.raises(MalformedFile):
            load_dictionary(path)


class TestCodesFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        codes = rng.standard_normal((6, 11))
        path = tmp_path / "x.pkx"
        save_codes(codes, path)
        assert np.array_equal(load_codes(path), codes)

    def test_codes_must_be_2d(self, tmp_path):
        with pytest.raises(ValueError, match=r"codes must be 2-D, got shape \(2, 2, 2\)"):
            save_codes(np.ones((2, 2, 2)), tmp_path / "c.pkx")
        assert list(tmp_path.iterdir()) == []

    def test_magic_differs_from_dictionary(self, tmp_path):
        save_codes(np.ones((2, 2)), tmp_path / "c.pkx")
        blob = (tmp_path / "c.pkx").read_bytes()
        assert blob.startswith(CODES_MAGIC)
        with pytest.raises(MalformedFile):
            load_dictionary(tmp_path / "c.pkx")


@st.composite
def matrix_blobs(draw, magic):
    """Byte strings near ``magic + b"rows cols\\n" + payload``, so that valid
    files, other magics, bad headers and wrong payload sizes all occur."""
    rows, cols = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    prefix = draw(st.sampled_from([magic] * 6 + [DICT_MAGIC, CODES_MAGIC,
                                                 magic[:-1], b""]))
    header = draw(st.one_of(st.just(f"{rows} {cols}"),
                            st.text("0123456789+-_x. \t", max_size=8)))
    newline = draw(st.sampled_from([b"\n", b"\n", b"", b"\r\n"]))
    size = 8 * max(rows * cols, 0) + draw(st.sampled_from([0, 0, -1, 8]))
    payload = draw(st.one_of(st.just(bytes(max(size, 0))), st.binary(max_size=40)))
    return prefix + header.encode("ascii") + newline + payload


class TestHeaderFuzz:
    """The decoder behind PKSVD1 and PKSVX1 files fails only with
    MalformedFile, and always says at which byte."""

    @pytest.mark.parametrize("magic", [DICT_MAGIC, CODES_MAGIC])
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_only_malformed_file_with_offset(self, magic, data):
        blob = data.draw(matrix_blobs(magic))
        try:
            mat = _decode_matrix(magic, blob, "fuzz")
        except MalformedFile as err:
            assert err.offset is not None and 0 <= err.offset <= len(blob)
        else:
            header_end = blob.index(b"\n", len(magic))
            assert blob.startswith(magic)
            assert mat.size * 8 == len(blob) - header_end - 1


class TestTraceCsv:
    def make_trace(self):
        trace = ConvergenceTrace()
        trace.record(np.eye(3), np.eye(3), objective_value=1.25)
        trace.record(np.eye(3), 0.5 * np.eye(3), objective_value=0.75)
        return trace

    def test_columns_and_rows(self, tmp_path):
        trace = self.make_trace()
        text = trace_csv_text(trace)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "iter,log10_psiphit_minus_I,log10_trace_gap,"
            "log10_psi_minus_phi,objective"
        )
        assert len(lines) == 3
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")

    def test_write_is_deterministic(self, tmp_path):
        trace = self.make_trace()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, a)
        write_trace_csv(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_roundtrip_through_repr(self):
        trace = self.make_trace()
        row = trace_csv_text(trace).strip().split("\n")[2].split(",")
        assert float(row[4]) == 0.75
