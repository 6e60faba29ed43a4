"""On-disk formats: JSONL for trajectories and measures, CSV for reports.

Every file is schema-versioned: JSONL files open with a header object whose
``format`` field names the schema; CSV reports carry the schema tag in a
``format`` column on every row (keeping the file strictly rectangular).
Floats pass through repr-exact JSON, so a write/read cycle is bit-identical.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .config import _is_finite
from .errors import ConfigError
from .measure import EmpiricalMeasure
from .segment import _window_steps
from .solver import Trajectory

TRAJECTORY_FORMAT = "nsfde-trajectory/1"
MEASURE_FORMAT = "nsfde-measure/1"
REPORT_FORMAT = "nsfde-report/1"

REPORT_COLUMNS = ("statistic", "estimate", "stderr", "threshold", "verdict")


def _read_jsonl(path, expected: str, header_keys, row_keys, convert=None) -> tuple[dict, list]:
    """Header and records of a JSONL file in format ``expected``; a line that is
    not a JSON object with the keys its reader takes fails naming its number.
    ``convert(header, rec, where)`` runs on each line as it is read, the
    header's included (then ``rec is header``)."""
    recs = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}, line {lineno}"
            try:
                rec = json.loads(line)
            except ValueError as exc:   # bad JSON or bad UTF-8
                raise ConfigError(f"{where}: not valid JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise ConfigError(f"{where}: expected a JSON object")
            if not recs and rec.get("format") != expected:
                raise ConfigError(f"{path}: expected format {expected!r}, "
                                  f"found {rec.get('format')!r}")
            missing = [k for k in (row_keys if recs else header_keys) if k not in rec]
            if missing:
                raise ConfigError(f"{where}: missing {', '.join(missing)}")
            if convert is not None:
                convert(recs[0] if recs else rec, rec, where)
            recs.append(rec)
    if not recs:
        raise ConfigError(f"{path}: empty file")
    return recs[0], recs[1:]


def write_trajectory_jsonl(traj: Trajectory, path):
    header = {
        "format": TRAJECTORY_FORMAT,
        "h": traj.final_segment.h,
        "dt": traj.dt,
        "n_modes": traj.n_modes,
        "seed": traj.seed,
        "stream_id": traj.stream_id,
        "store_stride": traj.store_stride,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i in range(traj.times.size):
            row = {
                "t": float(traj.times[i]),
                "u": traj.snapshots[i].tolist(),
                "seg_norm": float(traj.seg_norms[i]),
                "fp_iters": int(traj.fp_iters[i]),
            }
            fh.write(json.dumps(row) + "\n")


def read_trajectory_jsonl(path) -> dict:
    """Header fields plus times / snapshots / seg_norms / fp_iters arrays."""
    header, recs = _read_jsonl(path, TRAJECTORY_FORMAT, tuple(_TRAJECTORY_HEADER),
                               ("t", "u", "seg_norm", "fp_iters"), _trajectory_line)
    if not recs:
        raise ConfigError(f"{path}: trajectory file holds no records")
    out = dict(header)
    out["times"] = np.array([r["t"] for r in recs], dtype=float)
    out["snapshots"] = np.array([r["u"] for r in recs])
    out["seg_norms"] = np.array([r["seg_norm"] for r in recs], dtype=float)
    out["fp_iters"] = np.array([r["fp_iters"] for r in recs], dtype=int)
    return out


def write_measure_jsonl(mu: EmpiricalMeasure, path):
    header = {
        "format": MEASURE_FORMAT,
        "h": mu.h,
        "dt": mu.dt,
        "n_modes": mu.n_modes,
        "burn_in": mu.burn_in,
        "thin": mu.thin,
        "t_end": mu.t_end,
        "n_samples": mu.n_samples,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, window in enumerate(mu.segments):
            row = {
                "t": float(mu.times[i]),
                "seed": int(mu.sources[i, 0]),
                "stream": int(mu.sources[i, 1]),
                "values": window.tolist(),
            }
            fh.write(json.dumps(row) + "\n")


def _is_int(val, lo: int) -> bool:
    return isinstance(val, int) and not isinstance(val, bool) and val >= lo


_FINITE = (_is_finite, "a finite number")
_POSITIVE = (lambda v: _is_finite(v) and v > 0.0, "a positive finite number")
_COUNT = (lambda v: _is_int(v, 1), "an integer >= 1")
_INDEX = (lambda v: _is_int(v, 0), "an integer >= 0")
_NONNEGATIVE = (lambda v: _is_finite(v) and v >= 0.0, "a finite number >= 0")
_MEASURE_HEADER = {"h": _POSITIVE, "dt": _POSITIVE, "n_modes": _COUNT, "burn_in": _FINITE,
                   "thin": _COUNT, "t_end": _FINITE, "n_samples": _INDEX}
_MEASURE_RECORD = {"t": _FINITE, "seed": _INDEX, "stream": _INDEX}
_TRAJECTORY_HEADER = {"h": _POSITIVE, "dt": _POSITIVE, "n_modes": _COUNT, "seed": _INDEX,
                      "stream_id": _INDEX, "store_stride": _COUNT}
_TRAJECTORY_RECORD = {"t": _FINITE, "seg_norm": _NONNEGATIVE, "fp_iters": _INDEX}


def _check_fields(table: dict, rec: dict, where: str):
    for key, (ok, what) in table.items():
        if not ok(rec[key]):
            raise ConfigError(f"{where}: {key} = {rec[key]!r} must be {what}")


def _finite_array(rec: dict, key: str, shape: tuple, where: str, what: str):
    """Replace ``rec[key]`` by a float array of ``shape``, or fail naming the line."""
    try:
        values = np.array(rec[key])
    except ValueError:  # ragged
        values = np.array(None)
    if values.dtype.kind not in "iuf" or values.shape != shape \
            or not np.isfinite(values).all():
        raise ConfigError(f"{where}: {key} must be a {shape} array of finite numbers "
                          f"({what})")
    rec[key] = values.astype(float, copy=False)


def _measure_line(header: dict, rec: dict, where: str):
    """Check the scalar fields of a measure file line, and replace a record's
    ``values`` by its window array, of the shape the header's h/dt and n_modes
    fix; done as each line is read, so parsed lists do not pile up."""
    _check_fields(_MEASURE_HEADER if rec is header else _MEASURE_RECORD, rec, where)
    if rec is not header:
        shape = (_window_steps(header["h"], header["dt"], f"{where}: header h/dt") + 1,
                 header["n_modes"])
        _finite_array(rec, "values", shape, where, "h/dt + 1 nodes by n_modes")


def _trajectory_line(header: dict, rec: dict, where: str):
    """The trajectory-file counterpart of ``_measure_line``: a record's ``u``
    becomes an array of the header's n_modes finite numbers."""
    _check_fields(_TRAJECTORY_HEADER if rec is header else _TRAJECTORY_RECORD, rec, where)
    if rec is not header:
        _finite_array(rec, "u", (header["n_modes"],), where, "one per mode")


def read_measure_jsonl(path) -> EmpiricalMeasure:
    header, recs = _read_jsonl(path, MEASURE_FORMAT, tuple(_MEASURE_HEADER),
                               ("t", "seed", "stream", "values"), _measure_line)
    if not recs:
        raise ConfigError(f"{path}: measure file holds no samples")
    if len(recs) != header["n_samples"]:
        raise ConfigError(f"{path}: header n_samples = {header['n_samples']} "
                          f"but the file holds {len(recs)} samples")
    return EmpiricalMeasure(
        segments=np.array([r["values"] for r in recs]), h=header["h"], dt=header["dt"],
        times=np.array([r["t"] for r in recs]),
        sources=np.array([[r["seed"], r["stream"]] for r in recs], dtype=np.int64),
        burn_in=header["burn_in"], thin=header["thin"], t_end=header["t_end"])


def write_report_csv(path, rows):
    """Rectangular CSV: header ``format,<REPORT_COLUMNS>``, then one tagged row each.

    ``rows`` yields tuples matching ``REPORT_COLUMNS``; floats are written via
    repr so they reload exactly.
    """
    def cell(x):
        if isinstance(x, float):
            return repr(x)
        return "" if x is None else str(x)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("format",) + REPORT_COLUMNS)
        for row in rows:
            writer.writerow((REPORT_FORMAT,) + tuple(cell(x) for x in row))


def read_report_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader, None)
        if not head or head[0] != "format":
            raise ConfigError(f"{path}: missing report header row")
        out = []
        for row in reader:
            if row[0] != REPORT_FORMAT:
                raise ConfigError(f"{path}: unexpected row tag {row[0]!r}")
            out.append(dict(zip(head[1:], row[1:])))
    return out
