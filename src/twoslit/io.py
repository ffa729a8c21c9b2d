"""Serialization for cameras, tensors, correspondences, and reports.

JSON is the primary format. Correspondence tables can also travel as
CSV with columns u1,u2,u3,v1,v2,v3. Floats are written with 17
significant digits so values round-trip exactly. All output goes
through write_text, so a file and standard output get the same bytes.
"""

from __future__ import annotations

import csv
import io as _io
import json

import numpy as np

from .errors import ValidationError
from .cameras import TwoSlitCamera
from .epipolar import EpipolarTensor, _as_correspondences

CSV_COLUMNS = ("u1", "u2", "u3", "v1", "v2", "v3")


def _float_list(a):
    return np.asarray(a, float).tolist()


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
    return {"A1": _float_list(camera.A1), "A2": _float_list(camera.A2)}


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
        "values": _float_list(tensor.flat()),
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
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("empty correspondence file") from None
    header = [h.strip().lower() for h in header]
    if header != list(CSV_COLUMNS):
        raise ValidationError(
            "correspondence CSV must start with header " + ",".join(CSV_COLUMNS))
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 6:
            raise ValidationError(f"line {lineno}: expected 6 columns, got {len(row)}")
        try:
            rows.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ValidationError("correspondence file holds no data rows")
    return np.asarray(rows, float)


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


def write_json(data, path):
    write_text(json.dumps(data, indent=2, allow_nan=False), path)


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
