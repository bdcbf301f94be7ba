import gzip

import numpy as np
import pytest

from repca import CsvParseError
from repca.csvio import (
    FLOAT_FORMAT, _BLOCK_ROWS, _read_rows, read_matrix_csv, write_mask_csv, write_matrix_csv,
)


def test_roundtrip_is_exact(tmp_path):
    """17 significant digits round-trip every double exactly, down to the
    smallest subnormal and up to the largest finite double."""
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-12, 12, size=(7, 4))
    arr[0] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0]
    arr[1] = [0.30000000000000004, 9007199254740993.0, -1.2345678901234567e-200,
              0.10000000000000001]
    path = tmp_path / "m.csv"
    write_matrix_csv(path, arr)
    back = read_matrix_csv(path)
    assert back.tobytes() == arr.tobytes()  # the sign of -0.0 too


# Text each reader must treat alike; the bulk reader takes some of them
# itself and hands the rest to the line-by-line reader.
EDGE_TEXTS = {
    "blank_lines": "1,2\n\n3,4\n\n",
    "whitespace_line": "1,2\n  \t\n3,4\n",
    "whitespace_only": " \n\t\n",
    "crlf": "1,2\r\n3,4\r\n",
    "cr_only": "1,2\r3,4\r",
    "padded_fields": " 1 ,\t2\n3 , 4 \n",
    "single_row": "1,2,3\n",
    "single_column": "1\n2\n3\n",
    "no_final_newline": "1,2\n3,4",
    "underscore_digits": "1_0,2\n3,4\n",
    "nan_inf": "nan,-inf\nInfinity,-NaN\n",
    "header": "a,b\n1,2\n",
    "ragged": "1,2,3\n4,5\n",
    "bad_field": "1,2\n3,oops\n",
    "empty_field": "1,,2\n",
}


@pytest.mark.parametrize("skip_header", (False, True))
@pytest.mark.parametrize("name", EDGE_TEXTS)
def test_reader_matches_the_line_by_line_reader(tmp_path, name, skip_header):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(EDGE_TEXTS[name].encode("ascii"))
    outcomes = []
    for reader in (read_matrix_csv, _read_rows):
        try:
            arr = reader(path, skip_header)
            outcomes.append((arr.shape, arr.tobytes()))
        except CsvParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("header", (None, ["a", "b", "c"]))
@pytest.mark.parametrize("rows", (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1))
def test_writer_matches_the_per_value_formatter(tmp_path, rows, header):
    rng = np.random.default_rng(rows)
    arr = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, arr, header=header)
    lines = [] if header is None else [",".join(header) + "\n"]
    lines += [",".join(FLOAT_FORMAT % v for v in row) + "\n" for row in arr]
    assert path.read_text(encoding="ascii") == "".join(lines)


def test_header_written_and_skipped(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "h.csv"
    write_matrix_csv(path, arr, header=["a", "b", "c"])
    assert path.read_text().splitlines()[0] == "a,b,c"
    back = read_matrix_csv(path, skip_header=True)
    np.testing.assert_array_equal(back, arr)


def test_mask_roundtrip(tmp_path):
    mask = np.array([True, False, True, True])
    path = tmp_path / "mask.csv"
    write_mask_csv(path, mask)
    back = read_matrix_csv(path)
    np.testing.assert_array_equal(back.ravel(), [1.0, 0.0, 1.0, 1.0])


def test_ragged_rows_report_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(CsvParseError, match="line 2"):
        read_matrix_csv(path)


def test_non_numeric_field_reports_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(CsvParseError, match="line 2"):
        read_matrix_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvParseError):
        read_matrix_csv(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError, match="No such file"):
        read_matrix_csv(tmp_path / "nope.csv")


def test_missing_file_is_not_replaced_by_a_compressed_sibling(tmp_path):
    """Only the named file is read: a ``.gz`` next to a missing file is not."""
    with gzip.open(tmp_path / "data.csv.gz", "wt", encoding="ascii") as fh:
        fh.write("1,2\n3,4\n")
    with pytest.raises(FileNotFoundError):
        read_matrix_csv(tmp_path / "data.csv")
    with pytest.raises(FileNotFoundError):
        read_matrix_csv(str(tmp_path / "data.csv"))


def test_url_is_a_file_name():
    with pytest.raises(FileNotFoundError, match="No such file"):
        read_matrix_csv("http://localhost:9/data.csv")


def test_compressed_file_is_not_decompressed(tmp_path):
    path = tmp_path / "data.csv.gz"
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("1,2\n3,4\n")
    with pytest.raises(CsvParseError, match="is not ASCII"):
        read_matrix_csv(path)
