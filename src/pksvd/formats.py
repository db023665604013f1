"""Repo-wide binary and CSV file formats.

Dictionary files: magic ``PKSVD1\\n``, ASCII header ``n m\\n``, then
n*m float64 little-endian values row-major. Code files use magic
``PKSVX1\\n`` with header ``m N\\n`` and the same payload layout. Both
round-trip bit-exactly. All writers go through an atomic temp-file
rename so a failed command leaves no partial output.
"""

from __future__ import annotations

import errno
import os
import tempfile

import numpy as np

from .errors import MalformedFile
from .frames import Dictionary

DICT_MAGIC = b"PKSVD1\n"
CODES_MAGIC = b"PKSVX1\n"

TRACE_COLUMNS = (
    "iter",
    "log10_psiphit_minus_I",
    "log10_trace_gap",
    "log10_psi_minus_phi",
    "objective",
)


def check_output_dir(path):
    """Raise ``FileNotFoundError`` naming ``path`` if its directory is missing."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def atomic_write_bytes(path, payload: bytes):
    """Write ``payload`` to ``path`` via a same-directory temp file. A
    directory that is missing or not writable raises an ``OSError`` that
    names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pksvd-tmp-")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _encode_matrix(magic, mat):
    rows, cols = mat.shape
    header = f"{rows} {cols}\n".encode("ascii")
    body = np.ascontiguousarray(mat, dtype="<f8").tobytes()
    return magic + header + body


def _decode_matrix(magic, blob, path):
    if not blob.startswith(magic):
        raise MalformedFile(f"{path}: bad magic, expected {magic!r}", offset=0)
    header_end = blob.find(b"\n", len(magic))
    if header_end < 0:
        raise MalformedFile(f"{path}: missing header line", offset=len(magic))
    header = blob[len(magic):header_end]
    try:
        rows, cols = (int(tok) for tok in header.split())
    except ValueError:
        raise MalformedFile(
            f"{path}: header must be two integers, got {header!r}",
            offset=len(magic),
        ) from None
    if rows < 1 or cols < 1:
        raise MalformedFile(f"{path}: non-positive dimensions {rows}x{cols}",
                            offset=len(magic))
    payload = blob[header_end + 1:]
    expected = rows * cols * 8
    if len(payload) != expected:
        raise MalformedFile(
            f"{path}: expected {expected} payload bytes, found {len(payload)}",
            offset=header_end + 1,
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
    return np.array(data, dtype=float)


def save_dictionary(d: Dictionary, path):
    atomic_write_bytes(path, _encode_matrix(DICT_MAGIC, d.mat))


def load_dictionary(path) -> Dictionary:
    with open(path, "rb") as handle:
        blob = handle.read()
    return Dictionary(_decode_matrix(DICT_MAGIC, blob, path))


def save_codes(codes, path):
    codes = np.asarray(codes, dtype=float)
    if codes.ndim != 2:
        raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
    atomic_write_bytes(path, _encode_matrix(CODES_MAGIC, codes))


def load_codes(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    return _decode_matrix(CODES_MAGIC, blob, path)


def trace_csv_text(trace):
    """Render a ConvergenceTrace as CSV with the pinned column names."""
    rows = zip(range(1, len(trace) + 1), trace.log10_identity_residual,
               trace.log10_trace_gap, trace.log10_match_residual, trace.objective)
    return csv_table_text(TRACE_COLUMNS, rows)


def write_trace_csv(trace, path):
    atomic_write_bytes(path, trace_csv_text(trace).encode("ascii"))


def csv_table_text(header, rows):
    """Simple CSV rendering: floats via repr, everything else via str."""
    def cell(v):
        return repr(v) if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(header, rows, path):
    atomic_write_bytes(path, csv_table_text(header, rows).encode("ascii"))
