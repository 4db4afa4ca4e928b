"""Deterministic artifact emission: report.json, records, wf/*.csv.

Reports are plain JSON with sorted keys; NaN/inf are mapped to null and
numpy scalars to Python numbers so reruns are byte-identical.
"""

import json
import math
import os

import numpy as np


def jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": jsonify(obj.real), "im": jsonify(obj.imag)}
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


# pass rule of each limit a check can carry
_LIMITS = {"tol": lambda value, tol: value < tol,
           "bounds": lambda value, bounds: bounds[0] <= value <= bounds[1],
           "minimum": lambda value, minimum: value > minimum}


def check_record(name: str, **fields) -> dict:
    """One named pass/fail check of one measured value.

    fields hold exactly one limit and the value under its report key (say
    observed=...); the check passes when the value lies below tol, within
    bounds (both ends included) or above minimum, and the limit is
    recorded too. A value or limit of None fails, and the value is then
    recorded as None.
    """
    (kind,) = fields.keys() & _LIMITS
    limit = fields.pop(kind)
    (key, value), = fields.items()
    ok = (value is not None and limit is not None
          and _LIMITS[kind](value, limit))
    return {"name": name, key: None if value is None else float(value),
            kind: limit, "pass": bool(ok)}


def write_report_json(path, report: dict):
    with open(path, "w") as fh:
        json.dump(jsonify(report), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


SAMPLE_CELLS = 256   # cells of a column sampled before it is sorted


def _column_cells(column):
    """Text of each cell: str of its Python value (for a float, its shortest
    repr), an empty cell for None.

    A column of bools, numbers or strings with at most half as many
    distinct values as cells formats each distinct value once. Floats are
    told apart by their bits, so 0.0 and -0.0 keep their own text. A
    column whose evenly spaced sample of SAMPLE_CELLS to twice as many
    cells is mostly distinct is formatted cell by cell without sorting
    it."""
    values = np.asarray(column)
    if values.dtype == object:
        return ("" if v is None else str(v) for v in values.tolist())
    if values.dtype.kind in "biufU":
        keys = (np.ascontiguousarray(values).view(f"u{values.itemsize}")
                if values.dtype.kind == "f" else values)
        # distinct values counted by hand: np.unique without return_index
        # imports numpy.ma, a megabyte of memory
        sample = np.sort(keys[::max(1, keys.size // SAMPLE_CELLS)])
        distinct = 1 + np.count_nonzero(sample[1:] != sample[:-1])
        if 2 * distinct > sample.size:
            return map(str, values.tolist())
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        if 2 * first.size <= values.size:
            text = np.array(list(map(str, values[first].tolist())),
                            dtype=object)
            return text[inverse].tolist()
    return map(str, values.tolist())


def write_columns_csv(path, columns: dict):
    """CSV of equal-length columns {name: values}, header first, with the
    csv module's excel line ends; no cell (a number, bool or bare word)
    needs quoting."""
    rows = zip(*map(_column_cells, columns.values()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def emit(output_dir, report: dict, records=None, wf_tables=None):
    """Write the standard artifact set and return the report path.

    records: {field: column} of per-trial records, written as records.csv;
    wf_tables: {name: (xs, complex values)} written under output_dir/wf/.
    report.json is always written.
    """
    os.makedirs(output_dir, exist_ok=True)
    write_report_json(os.path.join(output_dir, "report.json"), report)
    if records is not None:
        write_columns_csv(os.path.join(output_dir, "records.csv"), records)
    if wf_tables:
        wf_dir = os.path.join(output_dir, "wf")
        os.makedirs(wf_dir, exist_ok=True)
        for name in sorted(wf_tables):
            xs, values = wf_tables[name]
            values = np.asarray(values)
            write_columns_csv(os.path.join(wf_dir, f"{name}.csv"),
                              {"x": xs, "re": values.real, "im": values.imag})
    return os.path.join(output_dir, "report.json")
