"""Round-trip serialization for cameras, tensors, and correspondences."""

import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoslit import io as tsio
from twoslit.epipolar import EpipolarTensor
from twoslit.errors import ValidationError
from twoslit.io import (
    CSV_COLUMNS,
    _csv_rows,
    _dumps,
    camera_from_dict,
    camera_to_dict,
    correspondences_from_csv,
    correspondences_from_dict,
    correspondences_to_csv,
    correspondences_to_dict,
    read_correspondences,
    read_json,
    tensor_from_dict,
    tensor_to_dict,
    write_correspondences,
    write_json,
)
from twoslit.synthetic import reference_camera_pair


def csv_text(corr):
    buf = io.StringIO()
    correspondences_to_csv(corr, buf)
    return buf.getvalue()


def test_camera_round_trip():
    camA, _ = reference_camera_pair()
    back = camera_from_dict(camera_to_dict(camA))
    assert np.array_equal(back.A1, camA.A1)
    assert np.array_equal(back.A2, camA.A2)


def test_camera_from_malformed_dict():
    with pytest.raises(ValidationError, match="malformed camera"):
        camera_from_dict({"A1": [[1, 0, 0, 0], [0, 0, 1, 0]]})


def test_tensor_round_trip(rng):
    t = EpipolarTensor(rng.normal(size=(2, 2, 2, 2)))
    data = tensor_to_dict(t)
    assert data["order"] == "lexicographic"
    back = tensor_from_dict(data)
    assert np.array_equal(back.values, t.values)


def test_tensor_dict_is_lexicographic():
    t = EpipolarTensor(np.arange(16, dtype=float).reshape(2, 2, 2, 2) + 1)
    assert tensor_to_dict(t)["values"] == list(np.arange(16.0) + 1)


def test_tensor_from_short_record():
    with pytest.raises(ValidationError, match="16 values"):
        tensor_from_dict({"values": [1.0, 2.0]})


class TestCsv:
    def test_header_and_shape(self, rng):
        corr = rng.normal(size=(4, 6))
        lines = csv_text(corr).strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5

    def test_round_trip_preserves_bits(self, rng):
        corr = rng.normal(size=(8, 6)) * np.pi
        back = correspondences_from_csv(io.StringIO(csv_text(corr)))
        assert np.array_equal(back, corr)

    def test_blank_rows_skipped(self):
        text = (",".join(CSV_COLUMNS) + "\n"
                + "1,2,3,4,5,6\n"
                + "\n"
                + " , , , , , \n"
                + "7,8,9,10,11,12\n")
        back = correspondences_from_csv(io.StringIO(text))
        assert back.shape == (2, 6)
        assert back[1, 0] == 7.0

    def test_wrong_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            correspondences_from_csv(io.StringIO("a,b,c,d,e,f\n1,2,3,4,5,6\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            correspondences_from_csv(io.StringIO(""))

    def test_header_only_rejected(self):
        with pytest.raises(ValidationError, match="no data rows"):
            correspondences_from_csv(io.StringIO(",".join(CSV_COLUMNS) + "\n"))

    def test_short_row_cites_line_number(self):
        text = ",".join(CSV_COLUMNS) + "\n1,2,3,4,5,6\n1,2,3\n"
        with pytest.raises(ValidationError, match="line 3"):
            correspondences_from_csv(io.StringIO(text))

    def test_bad_cell_cites_line_number(self):
        text = ",".join(CSV_COLUMNS) + "\n1,2,spam,4,5,6\n"
        with pytest.raises(ValidationError, match="line 2"):
            correspondences_from_csv(io.StringIO(text))

    @pytest.mark.parametrize("body, expected", [
        ('\n"1.5",2,3,4,5,6\n', [[1.5, 2, 3, 4, 5, 6]]),
        ("\r\n1,2,3,4,5,6\r\n7,8,9,10,11,12\r\n", [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]]),
        ("\n 1.5 , 2,3,4,5,\t6 \n", [[1.5, 2, 3, 4, 5, 6]]),
        ("\n,,,,,\n1,2,3,4,5,6\n", [[1, 2, 3, 4, 5, 6]]),
        ("\n1,2,3,4,5,6,7\n", "line 2: expected 6 columns, got 7"),
        ("\n1,2,3,4,5,6\n\n1,2,x,4,5,6\n", "line 4: could not convert string to float: 'x'"),
    ], ids=["quoted", "crlf", "padded", "empty-cells", "seven-cells", "bad-after-blank"])
    def test_reader_cases(self, body, expected):
        """Rows as csv reads them after the header; the line a message
        names counts every row, blank ones too."""
        stream = io.StringIO(",".join(CSV_COLUMNS) + body)
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as info:
                correspondences_from_csv(stream)
            assert str(info.value) == expected
        else:
            assert np.array_equal(correspondences_from_csv(stream), expected)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match=r"\(n, 6\)"):
            correspondences_to_csv(np.ones((3, 5)), io.StringIO())


def test_dict_round_trip(rng):
    corr = rng.normal(size=(5, 6))
    back = correspondences_from_dict(correspondences_to_dict(corr))
    assert np.array_equal(back, corr)


def test_dict_wrong_columns():
    with pytest.raises(ValidationError, match="6 columns"):
        correspondences_from_dict({"rows": [[1.0, 2.0]]})


class TestFiles:
    def test_json_file_round_trip(self, rng, tmp_path):
        corr = rng.normal(size=(6, 6))
        path = tmp_path / "corr.json"
        write_correspondences(corr, path, fmt="json")
        assert np.array_equal(read_correspondences(path), corr)

    def test_csv_file_round_trip(self, rng, tmp_path):
        corr = rng.normal(size=(6, 6))
        path = tmp_path / "corr.csv"
        write_correspondences(corr, path, fmt="csv")
        assert np.array_equal(read_correspondences(path), corr)

    def test_format_inferred_from_suffix(self, rng, tmp_path):
        corr = rng.normal(size=(3, 6))
        path = tmp_path / "table.CSV"
        write_correspondences(corr, path, fmt="csv")
        assert np.array_equal(read_correspondences(path), corr)

    def test_unknown_format_rejected(self, rng, tmp_path):
        with pytest.raises(ValidationError, match="unknown format"):
            write_correspondences(rng.normal(size=(3, 6)),
                                  tmp_path / "x.dat", fmt="tsv")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_json(path)


@given(st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e300, max_value=1e300),
             min_size=6, max_size=6),
    min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_csv_bits_survive_any_finite_values(rows):
    corr = np.asarray(rows, float)
    back = correspondences_from_csv(io.StringIO(csv_text(corr)))
    assert np.array_equal(back, corr)


def read_outcome(read, text, newline):
    """The bits and shape read from the text, or the error raised."""
    try:
        values = read(io.StringIO(text, newline=newline))
    except Exception as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes()


def row_loop(stream):
    reader = csv.reader(stream)
    next(reader)
    return _csv_rows(reader)


_number_cells = (st.floats().map(repr) | st.floats(width=32).map("{:.17g}".format)
                 | st.integers(-10**20, 10**20).map(str)
                 | st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e309", "-1e-400",
                                    "4.9e-324", "1.", ".5", "+0", "1" * 40 + ".5e-30"]))
# pads and pieces that float() and numpy's C reader may disagree on: ASCII
# separators, non-ASCII spaces and digits, quotes, comment and underscore marks
_pads = st.sampled_from(["", " ", "\t", "\x0b", "\x1c", "\x1f", "\xa0", "\u2003"])
_odd_pieces = st.sampled_from(["", '"', "#", "_", "nan", "\u0661", "\x00", "1", "e", "-", "."])
_padded = st.tuples(_pads, _number_cells, _pads).map("".join)
_odd = st.tuples(_odd_pieces, _number_cells | _pads, _odd_pieces).map("".join)
_clean_rows = st.lists(_number_cells, min_size=6, max_size=6)
_padded_rows = st.lists(_number_cells | _padded, min_size=6, max_size=6)
_odd_rows = st.lists(_number_cells | _padded | _odd, min_size=0, max_size=7)
_line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_bodies(draw):
    """Rows after the header: mostly plain number cells, sometimes padded or
    odd cells, blank lines and mixed line ends."""
    rows = draw(st.lists(_clean_rows, min_size=1, max_size=6)
                | st.lists(_clean_rows | _padded_rows, min_size=1, max_size=6)
                | st.lists(_clean_rows | _padded_rows | _odd_rows, min_size=1, max_size=6))
    ends = draw(st.lists(_line_ends, min_size=len(rows), max_size=len(rows)))
    last = draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))
    return "".join(",".join(row) + end for row, end in zip(rows, ends)) + last


@given(csv_bodies(), st.sampled_from(["", "\n"]))
@example("1,2,3,4,5,6\x1c\n", "")
@example("1" * (csv.field_size_limit() + 1) + ",2,3,4,5,6\n", "")
@example("1,2,3,4,5,6\r7,8,9,10,11,12\n", "\n")
@settings(max_examples=400, deadline=None)
def test_csv_reader_agrees_with_the_row_loop(body, newline):
    """Whichever path reads a body, numpy's C reader or the row loop,
    the bits or the error message are those of the row loop, for a file
    opened with newline="" (as read_correspondences opens it) and for a
    stream that splits lines at \\n only."""
    text = ",".join(CSV_COLUMNS) + "\n" + body
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_outcome(correspondences_from_csv, text, newline)
    assert got == read_outcome(row_loop, text, newline)


@pytest.mark.parametrize("text, message", [
    (",".join(CSV_COLUMNS) + "\n1,2,3\r4,5,6\n", "line 2: new-line character seen"),
    ("u1,u2,u3\rv1,v2,v3\n1,2,3,4,5,6\n", "line 1: new-line character seen"),
    (",".join(CSV_COLUMNS) + "\n" + "1" * 140000 + ",2,3,4,5,6\n",
     "line 2: field larger than field limit"),
], ids=["bare-cr-in-row", "bare-cr-in-header", "long-cell"])
def test_lines_csv_cannot_split_are_invalid(text, message):
    """A line csv.reader rejects, such as one with a bare \\r in a stream
    that splits lines at \\n only, is a ValidationError naming the line."""
    with pytest.raises(ValidationError, match=f"^{message}"):
        correspondences_from_csv(io.StringIO(text))


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n\r", "\n\n\n"])
def test_header_only_warns_nothing(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no data rows"):
            correspondences_from_csv(io.StringIO(",".join(CSV_COLUMNS) + "\n" + body,
                                                 newline=""))


def test_plain_numbers_skip_the_row_loop(rng, monkeypatch):
    """A body of plain number cells never reaches the row loop."""
    def no_loop(reader):
        raise AssertionError("row loop called")

    monkeypatch.setattr(tsio, "_csv_rows", no_loop)
    corr = rng.normal(size=(50, 6))
    text = csv_text(corr).replace("\n", "\r\n", 7)
    assert np.array_equal(correspondences_from_csv(io.StringIO(text, newline="")), corr)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=4)
_float_rows = st.lists(st.lists(_finite, min_size=1, max_size=3), min_size=1, max_size=3)


def _containers(children):
    return (st.lists(children, max_size=4) | st.tuples(children, children)
            | st.dictionaries(st.text(max_size=3), children, max_size=3)
            | st.dictionaries(st.integers() | st.booleans() | st.none() | _finite, children,
                              max_size=2)
            | st.lists(_finite, min_size=1, max_size=4) | _float_rows)


@given(st.recursive(_scalars, _containers, max_leaves=20))
@settings(max_examples=500, deadline=None)
def test_json_bytes_are_those_of_the_indented_encoder(value):
    """write_json's encoder gives the bytes of json.dumps with indent=2,
    float vectors and ragged or equal-length float rows included."""
    assert _dumps(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [lambda x: x, lambda x: [1.0, x], lambda x: {"m": [[1.0], [x]]},
                                   lambda x: [[1.0, 2.0], [x, 3.0]]],
                         ids=["scalar", "vector", "ragged", "matrix"])
def test_json_rejects_what_is_not_a_number(bad, where):
    value = where(bad)
    with pytest.raises(ValueError) as want:
        json.dumps(value, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        _dumps(value)
    assert str(got.value) == str(want.value)
