"""Deterministic artifact emission: report.json, records, wf/*.csv.

Reports are plain JSON with sorted keys; NaN/inf are mapped to null and
numpy scalars to Python numbers so reruns are byte-identical.
"""

import csv
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


def check_record(name: str, tol=None, bounds=None, minimum=None,
                 **measured) -> dict:
    """One named pass/fail check of one measured value.

    measured holds the value under its report key (say observed=...);
    the check passes when it lies below tol, within bounds or above
    minimum, whichever is given first, and that limit is recorded too.
    """
    (key, value), = measured.items()
    out = {"name": name, key: float(value)}
    if tol is not None:
        out["tol"] = tol
        out["pass"] = bool(value < tol)
    elif bounds is not None:
        out["bounds"] = list(bounds)
        out["pass"] = bool(bounds[0] <= value <= bounds[1])
    else:
        out["minimum"] = minimum
        out["pass"] = bool(value > minimum)
    return out


def write_report_json(path, report: dict):
    with open(path, "w") as fh:
        json.dump(jsonify(report), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_rows_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(row.get(k)) for k in fieldnames})


def _cell(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def write_rows_json(path, fieldnames, rows):
    payload = [{k: jsonify(row.get(k)) for k in fieldnames} for row in rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_wf_csv(path, xs, values):
    write_rows_csv(path, ("x", "re", "im"),
                   ({"x": x, "re": v.real, "im": v.imag}
                    for x, v in zip(xs, np.asarray(values))))


def emit(output_dir, report: dict, records=None, record_fields=None,
         wf_tables=None, fmt: str = "csv"):
    """Write the standard artifact set and return the report path.

    wf_tables: {name: (xs, complex values)} written under output_dir/wf/.
    fmt selects the records container (records.csv or records.json);
    report.json is always written.
    """
    os.makedirs(output_dir, exist_ok=True)
    write_report_json(os.path.join(output_dir, "report.json"), report)
    if records is not None:
        if fmt == "json":
            write_rows_json(os.path.join(output_dir, "records.json"),
                            record_fields, records)
        else:
            write_rows_csv(os.path.join(output_dir, "records.csv"),
                           record_fields, records)
    if wf_tables:
        wf_dir = os.path.join(output_dir, "wf")
        os.makedirs(wf_dir, exist_ok=True)
        for name in sorted(wf_tables):
            xs, values = wf_tables[name]
            write_wf_csv(os.path.join(wf_dir, f"{name}.csv"), xs, values)
    return os.path.join(output_dir, "report.json")
