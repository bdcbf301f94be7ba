"""CSV persistence for matrices.

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly.  Data matrices go to disk transposed (one sample per
row); projection matrices are written as stored (one feature row per
line, one component per column).

Files are ASCII.  Reading hands the whole file to numpy's C text reader;
a file it refuses, or in which it finds no rows, is read again line by
line with Python's ``float``, which parses what only ``float`` takes or
names the offending 1-based line.  Both give the same doubles.
"""
from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import CsvParseError

FLOAT_FORMAT = "%.17g"
# Rows formatted per call: one call per block keeps the Python overhead per
# value small while the tuple of values it formats stays bounded.
_BLOCK_ROWS = 4096


def write_matrix_csv(path, matrix: np.ndarray, header: list[str] | None = None) -> None:
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    line = ",".join([FLOAT_FORMAT] * arr.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for start in range(0, arr.shape[0], _BLOCK_ROWS):
            block = arr[start : start + _BLOCK_ROWS]
            fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def write_mask_csv(path, mask: np.ndarray) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(f"{int(bool(flag))}\n" for flag in np.asarray(mask)))


def read_matrix_csv(path, skip_header: bool = False) -> np.ndarray:
    """Parse a numeric CSV; errors name the offending 1-based line."""
    try:
        with warnings.catch_warnings():
            # a file without rows is reported by _read_rows, as "no data rows"
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # an open handle, not the path: given a path numpy would resolve
            # it itself, reading a compressed sibling or fetching a URL
            with open(path, encoding="ascii") as fh:
                arr = np.loadtxt(fh, dtype=float, delimiter=",", comments=None,
                                 skiprows=int(skip_header), ndmin=2)
        if arr.shape[0]:
            return arr
    except ValueError:  # a UnicodeDecodeError too: _read_rows meets it again
        pass
    try:
        return _read_rows(path, skip_header)
    except UnicodeDecodeError:
        raise _not_ascii(path) from None


def _read_rows(path, skip_header: bool) -> np.ndarray:
    """The line-by-line reader: the fallback of ``read_matrix_csv`` and the
    reference its tests compare against."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            text = line.strip()
            if not text:
                continue
            fields = text.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CsvParseError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                bad = next(f for f in fields if not _parses(f))
                raise CsvParseError(
                    f"{path}: line {lineno}: not a number: {bad!r}"
                ) from None
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def _parses(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _not_ascii(path) -> CsvParseError:
    """Name the first byte outside ASCII and its line, counting line ends as
    Python's text files do."""
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = re.search(rb"[\x80-\xff]", raw).start()
    head = raw[:offset]
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    return CsvParseError(f"{path}: line {line}: byte 0x{raw[offset]:02x} is not ASCII")
