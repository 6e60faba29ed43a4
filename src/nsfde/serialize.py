"""On-disk formats: JSONL for trajectories and measures, CSV for reports.

Every file is schema-versioned: JSONL files open with a header object whose
``format`` field names the schema; CSV reports carry the schema tag in a
``format`` column on every row (keeping the file strictly rectangular).
Floats are written as orjson's shortest round-trip numbers, so a write/read
cycle is bit-identical. The files are strict JSON (RFC 8259): a ``NaN`` or
``Infinity`` token, or a number that overflows a double, fails as invalid
JSON. Seeds and stream ids are integers in [0, 2**63). Each JSONL format is one
schema: a writer refuses, before it opens the file, any value its reader would.
"""

from __future__ import annotations

import csv
from collections import namedtuple

import numpy as np
import orjson

from .errors import ConfigError, is_finite
from .measure import EmpiricalMeasure
from .noise import SOURCE_LIMIT
from .segment import _window_steps
from .solver import Trajectory

TRAJECTORY_FORMAT = "nsfde-trajectory/1"
MEASURE_FORMAT = "nsfde-measure/1"
REPORT_FORMAT = "nsfde-report/1"

REPORT_COLUMNS = ("statistic", "estimate", "stderr", "threshold", "verdict")


def _is_int(val, lo: int) -> bool:
    return isinstance(val, (int, np.integer)) and not isinstance(val, bool) and val >= lo


# field checks: (dtype of the field's column in a reader's result, predicate, description)
_FINITE = (float, is_finite, "a finite number")
_POSITIVE = (float, lambda v: is_finite(v) and v > 0.0, "a positive finite number")
_COUNT = (int, lambda v: _is_int(v, 1), "an integer >= 1")
_INDEX = (int, lambda v: _is_int(v, 0), "an integer >= 0")
_SOURCE = (np.int64, lambda v: _is_int(v, 0) and v < SOURCE_LIMIT, "an integer >= 0 and < 2**63")
_NONNEGATIVE = (float, lambda v: is_finite(v) and v >= 0.0, "a finite number >= 0")
_ARRAY = (float, None, None)  # checked against the schema's shape instead


# A JSONL format: a header object tagged ``format``, then one object a record.
# ``header`` and ``record`` map fields, in file order, to checks; the record's
# ``_ARRAY`` field ``array`` has the shape ``shape(header, where)`` (``shape_what``).
_Schema = namedtuple("_Schema", "tag header record array shape shape_what empty")
_TRAJECTORY = _Schema(
    TRAJECTORY_FORMAT,
    header={"h": _POSITIVE, "dt": _POSITIVE, "n_modes": _COUNT, "seed": _SOURCE,
            "stream_id": _SOURCE, "store_stride": _COUNT},
    record={"t": _FINITE, "u": _ARRAY, "seg_norm": _NONNEGATIVE, "fp_iters": _INDEX},
    array="u", shape=lambda header, where: (header["n_modes"],),
    shape_what="one per mode", empty="trajectory file holds no records")

_MEASURE = _Schema(
    MEASURE_FORMAT,
    header={"h": _POSITIVE, "dt": _POSITIVE, "n_modes": _COUNT, "burn_in": _FINITE,
            "thin": _COUNT, "t_end": _FINITE, "n_samples": _INDEX},
    record={"t": _FINITE, "seed": _SOURCE, "stream": _SOURCE, "values": _ARRAY},
    array="values",
    shape=lambda header, where: (
        _window_steps(header["h"], header["dt"], f"{where}: header h/dt") + 1,
        header["n_modes"]),
    shape_what="h/dt + 1 nodes by n_modes", empty="measure file holds no samples")


def _refusal(where: str, key: str, val, what: str) -> ConfigError:
    return ConfigError(f"{where}: {key} = {val!r} must be {what}")


def _check(where: str, fields: dict, rec: dict):
    """Fail naming the first field of ``rec`` its check refuses."""
    for key, (_, ok, what) in fields.items():
        if ok is not None and not ok(rec[key]):
            raise _refusal(where, key, rec[key], what)


def _array_error(where: str, schema: _Schema, shape: tuple) -> ConfigError:
    return ConfigError(f"{where}: {schema.array} must be a {shape} array of finite "
                       f"numbers ({schema.shape_what})")


def _read_jsonl(path, schema: _Schema) -> tuple[dict, dict]:
    """Header and record columns (arrays of each field's dtype) of a file in
    ``schema``; a line the schema does not take fails naming its number."""
    header, recs = None, []
    with open(path, "rb", buffering=1 << 20) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}, line {lineno}"
            try:
                rec = orjson.loads(line)
            except ValueError as exc:   # bad JSON, non-finite number or bad UTF-8
                raise ConfigError(f"{where}: not valid JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise ConfigError(f"{where}: expected a JSON object")
            if header is None and rec.get("format") != schema.tag:
                raise ConfigError(f"{path}: expected format {schema.tag!r}, "
                                  f"found {rec.get('format')!r}")
            fields = schema.header if header is None else schema.record
            missing = [k for k in fields if k not in rec]
            if missing:
                raise ConfigError(f"{where}: missing {', '.join(missing)}")
            _check(where, fields, rec)
            if header is None:
                header = rec
                continue
            shape = schema.shape(header, where)
            try:
                values = np.array(rec[schema.array])
            except ValueError:  # ragged
                values = np.array(None)
            if values.dtype.kind not in "iuf" or values.shape != shape \
                    or not np.isfinite(values).all():
                raise _array_error(where, schema, shape)
            rec[schema.array] = values
            recs.append(rec)
    if header is None:
        raise ConfigError(f"{path}: empty file")
    if not recs:
        raise ConfigError(f"{path}: {schema.empty}")
    return header, {key: np.array([r[key] for r in recs], dtype=dtype)
                    for key, (dtype, _, _) in schema.record.items()}


def _write_jsonl(path, schema: _Schema, fields: dict):
    """Check ``fields`` (each header field's value, each record field's column)
    as the reader checks a file, then write it."""
    header = {"format": schema.tag} | {k: fields[k] for k in schema.header}
    _check(path, schema.header, header)
    shape = schema.shape(header, path)
    stack = np.ascontiguousarray(fields[schema.array], dtype=float)
    if stack.shape[1:] != shape or not np.isfinite(stack).all():
        raise _array_error(path, schema, shape)
    # scalars as Python numbers, checked before the cast to the reader's dtype
    # (which would wrap a uint64 2**63 to -2**63); orjson takes each row of the
    # float64 stack as it is
    rows = {}
    for key, (dtype, ok, what) in schema.record.items():
        if ok is None:
            rows[key] = stack
            continue
        col = np.asarray(fields[key])
        vals = col.tolist()
        for val in vals:
            if not ok(val):
                raise _refusal(path, key, val, what)
        rows[key] = vals if col.dtype == dtype else col.astype(dtype).tolist()
    if len({len(col) for col in rows.values()}) > 1:
        raise ConfigError(f"{path}: columns {', '.join(rows)} differ in length")
    if not len(stack):
        raise ConfigError(f"{path}: {schema.empty}")
    opt = orjson.OPT_SERIALIZE_NUMPY
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(header, option=opt) + b"\n")
        for row in zip(*rows.values()):
            fh.write(orjson.dumps(dict(zip(rows, row)), option=opt) + b"\n")


def write_trajectory_jsonl(traj: Trajectory, path):
    _write_jsonl(path, _TRAJECTORY, {
        "h": traj.final_segment.h, "dt": traj.cfg.dt, "n_modes": traj.n_modes,
        "seed": traj.seed, "stream_id": traj.stream_id, "store_stride": traj.cfg.store_stride,
        "t": traj.times, "u": traj.snapshots, "seg_norm": traj.seg_norms,
        "fp_iters": traj.fp_iters})


def read_trajectory_jsonl(path) -> dict:
    """Header fields plus times / snapshots / seg_norms / fp_iters arrays."""
    header, cols = _read_jsonl(path, _TRAJECTORY)
    return dict(header, times=cols["t"], snapshots=cols["u"], seg_norms=cols["seg_norm"],
                fp_iters=cols["fp_iters"])


def write_measure_jsonl(mu: EmpiricalMeasure, path):
    _write_jsonl(path, _MEASURE, {
        "h": mu.h, "dt": mu.dt, "n_modes": mu.n_modes, "burn_in": mu.burn_in, "thin": mu.thin,
        "t_end": mu.t_end, "n_samples": mu.n_samples, "t": mu.times, "seed": mu.sources[:, 0],
        "stream": mu.sources[:, 1], "values": mu.segments})


def read_measure_jsonl(path) -> EmpiricalMeasure:
    header, cols = _read_jsonl(path, _MEASURE)
    if len(cols["t"]) != header["n_samples"]:
        raise ConfigError(f"{path}: header n_samples = {header['n_samples']} "
                          f"but the file holds {len(cols['t'])} samples")
    return EmpiricalMeasure(
        segments=cols["values"], h=header["h"], dt=header["dt"], times=cols["t"],
        sources=np.stack([cols["seed"], cols["stream"]], axis=1),
        burn_in=header["burn_in"], thin=header["thin"], t_end=header["t_end"])


def write_report_csv(path, rows):
    """Rectangular CSV: header ``format,<REPORT_COLUMNS>``, then one tagged row each.

    ``rows`` yields tuples matching ``REPORT_COLUMNS``; floats (numpy's too) are written
    via the repr of the Python float so they reload exactly.
    """
    def cell(x):
        if isinstance(x, float):
            return repr(float(x))
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
