"""File formats: exact round trips and format-tag enforcement."""
import json
import re

import numpy as np
import pytest

from nsfde import (ConfigError, RngStream, SolverConfig, assemble_operator,
                   builtin_coefficients, krylov_bogoliubov, power_qwiener,
                   run_ensemble, simulate, zero_segment)
from nsfde.serialize import (MEASURE_FORMAT, REPORT_COLUMNS,
                             read_measure_jsonl, read_report_csv,
                             read_trajectory_jsonl, write_measure_jsonl,
                             write_report_csv, write_trajectory_jsonl)

OP = assemble_operator(n_modes=3)
Q = power_qwiener(3, trace_target=0.5)
CS = builtin_coefficients(f="zero", sigma="one", kernel="zero")


def _noisy_traj(segment_stride=0):
    cfg = SolverConfig(dt=0.01, t_end=0.1, segment_stride=segment_stride)
    return simulate(zero_segment(0.05, 0.01, 3), CS, OP, Q, cfg, RngStream(9, 1))


def test_trajectory_round_trip_is_bit_exact(tmp_path):
    traj = _noisy_traj()
    path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(traj, path)
    back = read_trajectory_jsonl(path)
    assert back["format"] == "nsfde-trajectory/1"
    assert back["h"] == 0.05 and back["dt"] == 0.01
    assert back["seed"] == 9 and back["stream_id"] == 1
    assert np.array_equal(back["times"], traj.times)
    assert np.array_equal(back["snapshots"], traj.snapshots)
    assert np.array_equal(back["seg_norms"], traj.seg_norms)
    assert np.array_equal(back["fp_iters"], traj.fp_iters)


# one case per check of the trajectory reader: (line, key, bad value, message tail)
_TRAJECTORY_CASES = [
    (1, "h", "wide", "must be a positive finite number"),
    (1, "h", float("inf"), "must be a positive finite number"),
    (1, "dt", -1, "must be a positive finite number"),
    (1, "n_modes", 0, "must be an integer >= 1"),
    (1, "store_stride", 1.5, "must be an integer >= 1"),
    (1, "seed", -1, "must be an integer >= 0"),
    (1, "stream_id", True, "must be an integer >= 0"),
    (2, "t", "late", "must be a finite number"),
    (2, "t", float("nan"), "must be a finite number"),
    (2, "seg_norm", None, "must be a finite number >= 0"),
    (2, "seg_norm", -0.5, "must be a finite number >= 0"),
    (2, "fp_iters", 1.5, "must be an integer >= 0"),
    (2, "fp_iters", -1, "must be an integer >= 0"),
    (2, "u", [0.0, 0.0], "must be a (3,) array of finite numbers"),
    (2, "u", [0.0, float("nan"), 0.0], "must be a (3,) array of finite numbers"),
    (2, "u", ["x", "y", "z"], "must be a (3,) array of finite numbers"),
    (2, "u", [[0.0], [0.0], [0.0]], "must be a (3,) array of finite numbers"),
]


@pytest.mark.parametrize("line, key, val, tail", _TRAJECTORY_CASES)
def test_trajectory_reader_checks_each_field(tmp_path, line, key, val, tail):
    path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(_noisy_traj(), path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[line - 1])
    rec[key] = val
    lines[line - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    where = f"traj.jsonl, line {line}: "
    msg = f"{key} = {val!r} {tail}" if key != "u" else f"u {tail}"
    with pytest.raises(ConfigError, match=re.escape(where + msg)):
        read_trajectory_jsonl(path)


def test_trajectory_reader_needs_a_full_header_and_a_record(tmp_path):
    path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(_noisy_traj(), path)
    header = json.loads(path.read_text().splitlines()[0])
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ConfigError, match="traj.jsonl: trajectory file holds no records"):
        read_trajectory_jsonl(path)
    del header["store_stride"]
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ConfigError, match="traj.jsonl, line 1: missing store_stride"):
        read_trajectory_jsonl(path)


def test_measure_round_trip_is_bit_exact(tmp_path):
    cfg = SolverConfig(dt=0.01, t_end=0.2, segment_stride=5)
    trajs = run_ensemble(zero_segment(0.05, 0.01, 3), CS, OP, Q, cfg,
                         seed=10, n_traj=2)
    mu = krylov_bogoliubov(trajs, burn_in=0.0)
    path = tmp_path / "measure.jsonl"
    write_measure_jsonl(mu, path)
    back = read_measure_jsonl(path)
    assert back.n_samples == mu.n_samples
    assert back.burn_in == 0.0 and back.thin == mu.thin
    assert back.t_end == mu.t_end
    assert np.array_equal(back.times, mu.times)
    assert np.array_equal(back.sources, mu.sources)
    assert back.h == mu.h and back.dt == mu.dt
    assert np.array_equal(back.segments, mu.segments)


def test_report_round_trip_keeps_floats_exact(tmp_path):
    path = tmp_path / "report.csv"
    rows = [("alpha_stat", 0.1 + 0.2, 0.25, None, "pass"),
            ("beta_stat", 1.0 / 3.0, None, 1e-300, "fail")]
    write_report_csv(path, rows)
    back = read_report_csv(path)
    assert [r["statistic"] for r in back] == ["alpha_stat", "beta_stat"]
    assert set(back[0]) == set(REPORT_COLUMNS)
    assert float(back[0]["estimate"]) == 0.1 + 0.2
    assert float(back[1]["estimate"]) == 1.0 / 3.0
    assert back[0]["threshold"] == ""       # None round-trips as empty
    assert float(back[1]["threshold"]) == 1e-300
    assert back[1]["verdict"] == "fail"


def test_format_tags_are_enforced(tmp_path):
    traj_path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(_noisy_traj(), traj_path)
    with pytest.raises(ConfigError, match="expected format"):
        read_measure_jsonl(traj_path)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty file"):
        read_trajectory_jsonl(empty)

    headless = tmp_path / "no_header.csv"
    headless.write_text("statistic,estimate\nx,1.0\n")
    with pytest.raises(ConfigError, match="missing report header"):
        read_report_csv(headless)

    tagged = tmp_path / "bad_tag.csv"
    tagged.write_text("format,statistic,estimate,stderr,threshold,verdict\n"
                      "bogus/9,x,1.0,,,pass\n")
    with pytest.raises(ConfigError, match="unexpected row tag"):
        read_report_csv(tagged)

    header = json.dumps({"format": MEASURE_FORMAT, "h": 0.05, "dt": 0.01,
                         "n_modes": 3, "burn_in": 0.0, "thin": 1, "t_end": 1.0,
                         "n_samples": 0}) + "\n"
    hollow = tmp_path / "hollow.jsonl"
    hollow.write_text(header)
    with pytest.raises(ConfigError, match="holds no samples"):
        read_measure_jsonl(hollow)

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not a measure file\n")
    with pytest.raises(ConfigError, match="garbage.jsonl, line 1: not valid JSON"):
        read_measure_jsonl(garbage)

    valueless = tmp_path / "valueless.jsonl"
    valueless.write_text(header + "\n" + json.dumps({"t": 0.1, "seed": 1,
                                                     "stream": 0}) + "\n")
    with pytest.raises(ConfigError, match="valueless.jsonl, line 3: missing values"):
        read_measure_jsonl(valueless)

    # h/dt = 5 and n_modes = 3 in the header: a record holds a 6 x 3 window
    good = np.zeros((6, 3)).tolist()
    with_nan = np.zeros((6, 3))
    with_nan[2, 1] = np.nan
    for values in (good[:5] + [[0.0, 0.0]],           # ragged
                   np.full((6, 3), "x").tolist(),
                   [[None] * 3] * 6,
                   [[True] * 3] * 6,
                   with_nan.tolist(),
                   good[:5],                          # one node short
                   np.zeros((6, 4)).tolist()):        # one mode too many
        bad = tmp_path / "bad_values.jsonl"
        bad.write_text(header + json.dumps({"t": 0.1, "seed": 1, "stream": 0,
                                            "values": good}) + "\n"
                       + json.dumps({"t": 0.2, "seed": 1, "stream": 0,
                                     "values": values}) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                "bad_values.jsonl, line 3: values must be a (6, 3) array of finite")):
            read_measure_jsonl(bad)

    # scalar fields: header h, dt (positive), burn_in, t_end finite numbers and
    # n_modes, thin integers >= 1; record t finite, seed and stream integers >= 0
    head = dict(json.loads(header), n_samples=1)
    rec = {"t": 0.1, "seed": 1, "stream": 0, "values": good}
    scalar = tmp_path / "bad_scalar.jsonl"
    for line, key, val in ((1, "h", "wide"), (1, "h", float("inf")), (1, "dt", -0.01),
                           (1, "burn_in", "soon"), (1, "t_end", None),
                           (1, "n_modes", 0), (1, "thin", 1.5), (1, "thin", True),
                           (2, "t", "late"), (2, "t", float("nan")), (2, "seed", "x"),
                           (2, "seed", -1), (2, "stream", 2.0)):
        bad_head = dict(head, **{key: val}) if line == 1 else head
        bad_rec = dict(rec, **{key: val}) if line == 2 else rec
        scalar.write_text(json.dumps(bad_head) + "\n" + json.dumps(bad_rec) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"bad_scalar.jsonl, line {line}: {key} = {val!r} must be")):
            read_measure_jsonl(scalar)

    # the header's n_samples counts the records, so a truncated file is refused
    scalar.write_text(json.dumps(head) + "\n" + json.dumps(rec) + "\n")
    assert read_measure_jsonl(scalar).n_samples == 1
    scalar.write_text(json.dumps(dict(head, n_samples=3)) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ConfigError, match="header n_samples = 3 but the file holds 1"):
        read_measure_jsonl(scalar)
