"""Serialization for cameras, tensors, correspondences, and reports.

JSON is the primary format. Correspondence tables can also travel as
CSV with columns u1,u2,u3,v1,v2,v3. Floats are written with 17
significant digits so values round-trip exactly.
"""

from __future__ import annotations

import csv
import io as _io
import json

import numpy as np

from .errors import ValidationError
from .cameras import TwoSlitCamera
from .epipolar import EpipolarTensor

CSV_COLUMNS = ("u1", "u2", "u3", "v1", "v2", "v3")


def _float_list(a):
    return np.asarray(a, float).tolist()


def camera_to_dict(camera):
    return {"A1": _float_list(camera.A1), "A2": _float_list(camera.A2)}


def camera_from_dict(data, name=None):
    """Camera from an {"A1", "A2"} record, or from the record data[name]."""
    try:
        record = data if name is None else data[name]
        return TwoSlitCamera(np.asarray(record["A1"], float),
                             np.asarray(record["A2"], float))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed camera record: {exc}") from exc


def tensor_to_dict(tensor):
    """Flat entries in lexicographic index order:
    (1,1,1,1), (1,1,1,2), ..., (2,2,2,2)."""
    return {
        "order": "lexicographic",
        "shape": [2, 2, 2, 2],
        "values": _float_list(tensor.flat()),
    }


def tensor_from_dict(data):
    try:
        values = np.asarray(data["values"], float)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed tensor record: {exc}") from exc
    if values.shape != (16,):
        raise ValidationError("tensor record must hold 16 values")
    return EpipolarTensor.from_flat(values)


def correspondences_to_csv(correspondences, stream):
    corr = np.asarray(correspondences, float)
    if corr.ndim != 2 or corr.shape[1] != 6:
        raise ValidationError("correspondences must be an (n, 6) array")
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
    corr = np.asarray(correspondences, float)
    if corr.ndim != 2 or corr.shape[1] != 6:
        raise ValidationError("correspondences must be an (n, 6) array")
    return {"columns": list(CSV_COLUMNS), "rows": corr.tolist()}


def correspondences_from_dict(data):
    try:
        rows = np.asarray(data["rows"], float)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed correspondence record: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise ValidationError("correspondence rows must have 6 columns")
    return rows


def write_json(data, path):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


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
    text = correspondences_to_text(correspondences, fmt)
    # csv rows keep their "\n" ends untranslated on every platform
    with open(path, "w", newline="" if fmt == "csv" else None) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def correspondence_format(path, fmt=None):
    """fmt if given, else csv for a .csv file name and json otherwise."""
    if fmt is None:
        return "csv" if str(path).lower().endswith(".csv") else "json"
    return fmt


def read_correspondences(path, fmt=None):
    fmt = correspondence_format(path, fmt)
    if fmt == "json":
        return correspondences_from_dict(read_json(path))
    if fmt == "csv":
        with open(path, newline="") as fh:
            return correspondences_from_csv(fh)
    raise ValidationError(f"unknown format {fmt!r}; use json or csv")


def correspondences_to_text(correspondences, fmt="json"):
    if fmt == "json":
        return json.dumps(correspondences_to_dict(correspondences), indent=2)
    if fmt == "csv":
        buf = _io.StringIO()
        correspondences_to_csv(correspondences, buf)
        return buf.getvalue()
    raise ValidationError(f"unknown format {fmt!r}; use json or csv")
