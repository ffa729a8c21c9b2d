"""Serialization for cameras, tensors, correspondences, and reports.

JSON is the primary format. Correspondence tables can also travel as
CSV with columns u1,u2,u3,v1,v2,v3. CSV writes floats with 17
significant digits (%.17g), JSON with Python's shortest round-trip
repr; both read back to the same bits. The bytes of write_json are
those of json.dumps(data, indent=2, allow_nan=False). All output goes
through write_text, so a file and standard output get the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import itertools
import json
from array import array

import numpy as np

from .errors import ValidationError
from .cameras import TwoSlitCamera
from .epipolar import EpipolarTensor, _as_correspondences

CSV_COLUMNS = ("u1", "u2", "u3", "v1", "v2", "v3")


def _field(data, what, *keys):
    """data[key1][key2]... as a float array. A missing key, a record that
    is not an object, or a value that is ragged, not numeric or too large
    for a float makes the record a malformed `what`."""
    try:
        for key in keys:
            data = data[key]
        return np.asarray(data, float)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def camera_to_dict(camera):
    return {"A1": camera.A1.tolist(), "A2": camera.A2.tolist()}


def camera_from_dict(data, name=None):
    """Camera from an {"A1", "A2"} record, or from the record data[name]."""
    path = () if name is None else (name,)
    return TwoSlitCamera(*(_field(data, "camera record", *path, key) for key in ("A1", "A2")))


def tensor_to_dict(tensor):
    """Flat entries in lexicographic index order:
    (1,1,1,1), (1,1,1,2), ..., (2,2,2,2)."""
    return {
        "order": "lexicographic",
        "shape": [2, 2, 2, 2],
        "values": tensor.flat().tolist(),
    }


def tensor_from_dict(data):
    values = _field(data, "tensor record", "values")
    if values.shape != (16,):
        raise ValidationError("tensor record must hold 16 values")
    return EpipolarTensor.from_flat(values)


def correspondences_to_csv(correspondences, stream):
    corr = _as_correspondences(correspondences)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in corr:
        writer.writerow([f"{x:.17g}" for x in row])


def correspondences_from_csv(stream):
    """Rows after the header: numpy's C reader, else the row loop _csv_rows."""
    lines = list(stream)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty correspondence file") from None
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from exc
    header = [h.strip().lower() for h in header]
    if header != list(CSV_COLUMNS):
        raise ValidationError(
            "correspondence CSV must start with header " + ",".join(CSV_COLUMNS))
    body = lines[reader.line_num:]
    text = "".join(body)
    # loadtxt warns on only blank lines, strips \x1c-\x1f that float() rejects
    # and reads cells longer than csv.field_size_limit(), which csv rejects
    if (text.strip() and max(map(len, body)) <= csv.field_size_limit()
            and not any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
            if len(values) and values.shape[1] == 6:
                return values
    return _csv_rows(reader)


def _csv_rows(reader):
    """Rows past the header, one float() per cell; the reference reader.
    A line that csv cannot split is a ValidationError too."""
    values = array("d")
    try:
        for lineno, row in enumerate(reader, start=2):
            if len(row) == 6:
                try:
                    # a failing row appends nothing unless it is not blank
                    values.extend(map(float, row))
                    continue
                except ValueError as exc:
                    error = f"line {lineno}: {exc}"
            else:
                error = f"line {lineno}: expected 6 columns, got {len(row)}"
            if "".join(row).strip():
                raise ValidationError(error)
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from exc
    if not values:
        raise ValidationError("correspondence file holds no data rows")
    return np.array(values).reshape(-1, 6)


def correspondences_to_dict(correspondences):
    return {"columns": list(CSV_COLUMNS), "rows": _as_correspondences(correspondences).tolist()}


def correspondences_from_dict(data):
    return _as_correspondences(_field(data, "correspondence record", "rows"))


def write_text(text, path):
    """Write text, ending in one newline, to the file path, or to standard
    output when path is None; both get the same bytes."""
    if path is None:
        # print writes the newline separately, and its flush raises
        # BrokenPipeError when the reader has left; one write of the
        # whole text can come back short and raise nothing
        print(text.removesuffix("\n"))
        return
    # line ends stay "\n" untranslated on every platform
    with open(path, "w", newline="") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _float_cells(value):
    """(cells, width) for a list of floats (width 0) or a list of
    equal-length lists of floats (width their length): the entries as
    the C encoder writes them, row after row. None for any other list,
    and for NaN or inf, which the element-wise path then reports."""
    width = 0
    if {*map(type, value)} <= {list, tuple}:
        widths = {*map(len, value)}
        if len(widths) != 1 or 0 in widths:
            return None
        (width,) = widths
        value = list(itertools.chain.from_iterable(value))
    if {*map(type, value)} != {float}:
        return None
    try:
        return json.dumps(value, allow_nan=False)[1:-1].split(", "), width
    except ValueError:
        return None


def _block(items, pad, brackets="[]"):
    inner = pad + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _dumps(value, pad=""):
    """json.dumps(value, indent=2, allow_nan=False) for a value nested
    at indentation pad. A float vector or matrix takes one call of the
    C encoder; json.dumps with an indent runs the pure-Python encoder
    over every float."""
    inner = pad + "  "
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        return _block((json.dumps(k) + ": " + _dumps(v, inner) for k, v in value.items()),
                      pad, "{}")
    if isinstance(value, (list, tuple)) and value:
        found = _float_cells(value)
        if found is None:
            return _block((_dumps(v, inner) for v in value), pad)
        cells, width = found
        if not width:
            return _block(cells, pad)
        row = _block(["%s"] * width, inner)
        return _block((row % tuple(cells[i:i + width]) for i in range(0, len(cells), width)), pad)
    # encoded strings hold no raw newline, so every newline is indentation
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + pad)


def write_json(data, path):
    write_text(_dumps(data), path)


def read_json(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} must hold a JSON object")
    return data


def write_correspondences(correspondences, path, fmt="json"):
    if correspondence_format(path, fmt) == "json":
        return write_json(correspondences_to_dict(correspondences), path)
    buf = _io.StringIO()
    correspondences_to_csv(correspondences, buf)
    write_text(buf.getvalue(), path)


def correspondence_format(path, fmt=None):
    """fmt, json or csv, if given; else csv for a .csv file name and json."""
    if fmt is None:
        return "csv" if str(path).lower().endswith(".csv") else "json"
    if fmt not in ("json", "csv"):
        raise ValidationError(f"unknown format {fmt!r}; use json or csv")
    return fmt


def read_correspondences(path, fmt=None):
    if correspondence_format(path, fmt) == "json":
        return correspondences_from_dict(read_json(path))
    with open(path, newline="") as fh:
        return correspondences_from_csv(fh)
