"""File formats: exact round trips and format-tag enforcement."""
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from nsfde import (ConfigError, RngStream, SolverConfig, assemble_operator,
                   builtin_coefficients, builtin_qwiener, krylov_bogoliubov,
                   run_ensemble, simulate, zero_segment)
from nsfde.serialize import (MEASURE_FORMAT, REPORT_COLUMNS,
                             read_measure_jsonl, read_report_csv,
                             read_trajectory_jsonl, write_measure_jsonl,
                             write_report_csv, write_trajectory_jsonl)

OP = assemble_operator(n_modes=3)
Q = builtin_qwiener(3, trace=0.5)
CS = builtin_coefficients(f="zero", sigma="one", kernel="zero")


def _refusal(line_text: str, check_msg: str) -> str:
    """What the reader says about a bad line: its field check's message, or the
    parser's when stdlib ``json`` wrote a NaN/Infinity token, which is not JSON."""
    if "NaN" in line_text or "Infinity" in line_text:
        return "not valid JSON"
    return check_msg


def _noisy_traj(segment_stride=0):
    cfg = SolverConfig(dt=0.01, t_end=0.1, segment_stride=segment_stride)
    return simulate(zero_segment(0.05, 0.01, 3), CS, OP, Q, cfg, RngStream(9, 1))


def _adversarial(size):
    """``size`` finite doubles: signed zeros, the smallest subnormal, the smallest
    normal, the extremes and numbers near the exponent switch of a shortest
    repr, then random finite bit patterns."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        1e-05, 1e-06, 1e16, 1e15, 1e17, 1.7976931348623157e308,
                        -1.7976931348623157e308, 0.1 + 0.2, 1e-300, 1e300])
    bits = np.random.default_rng(2024).integers(0, 1 << 64, size=3 * size, dtype=np.uint64)
    rand = bits.view(float)
    out = np.concatenate([special, rand[np.isfinite(rand)]])[:size]
    assert out.size == size
    return out


def _assert_bits_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == float
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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

    # every bit of every finite double survives, the sign of zero included
    rows = 1000
    adv = _adversarial(3 * rows)
    odd = replace(traj, times=adv[:rows], snapshots=adv.reshape(rows, 3),
                  seg_norms=np.abs(adv[-rows:]), fp_iters=np.zeros(rows, dtype=int))
    write_trajectory_jsonl(odd, path)
    back = read_trajectory_jsonl(path)
    _assert_bits_equal(back["times"], odd.times)
    _assert_bits_equal(back["snapshots"], odd.snapshots)
    _assert_bits_equal(back["seg_norms"], odd.seg_norms)


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
    msg = _refusal(lines[line - 1], f"{key} = {val!r} {tail}" if key != "u" else f"u {tail}")
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


def _small_measure():
    cfg = SolverConfig(dt=0.01, t_end=0.2, segment_stride=5)
    trajs = run_ensemble(zero_segment(0.05, 0.01, 3), CS, OP, Q, cfg, seed=10, n_traj=2)
    return krylov_bogoliubov(trajs, burn_in=0.0)


def test_measure_round_trip_is_bit_exact(tmp_path):
    mu = _small_measure()
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

    # every bit of every finite double survives, the sign of zero included
    size = mu.segments.size * (4000 // mu.segments.size + 1)
    odd_segments = _adversarial(size).reshape((-1,) + mu.segments.shape[1:])
    count = len(odd_segments)
    odd = replace(mu, segments=odd_segments, times=_adversarial(count),
                  sources=np.repeat(mu.sources[:1], count, axis=0))
    write_measure_jsonl(odd, path)
    back = read_measure_jsonl(path)
    _assert_bits_equal(back.segments, odd.segments)
    _assert_bits_equal(back.times, odd.times)


def test_measure_writer_takes_any_strided_or_typed_stack(tmp_path):
    mu = _small_measure()
    wide = np.concatenate([mu.segments, -mu.segments], axis=2)
    path = tmp_path / "measure.jsonl"
    for segments in (np.asfortranarray(mu.segments),        # column-major copy
                     wide[:, :, :3],                        # strided view
                     mu.segments[:, ::-1],                  # negative strides
                     (mu.segments * 1e6).astype(np.float32)):
        write_measure_jsonl(replace(mu, segments=segments), path)
        back = read_measure_jsonl(path)
        _assert_bits_equal(back.segments, np.array(segments, dtype=float))


def test_files_from_the_stdlib_json_writer_read_back_identically(tmp_path):
    # the bytes earlier releases wrote: json.dumps with ", " separators and
    # exponents such as 1e-05 and 1e+16; the /1 schemas still load them exactly
    mu = _small_measure()
    values = mu.segments.copy()
    values[0, 0, :] = (1e-05, 1e16, -0.0)
    header = {"format": MEASURE_FORMAT, "h": mu.h, "dt": mu.dt, "n_modes": mu.n_modes,
              "burn_in": mu.burn_in, "thin": mu.thin, "t_end": mu.t_end,
              "n_samples": mu.n_samples}
    lines = [json.dumps(header)] + [
        json.dumps({"t": float(mu.times[i]), "seed": int(mu.sources[i, 0]),
                    "stream": int(mu.sources[i, 1]), "values": values[i].tolist()})
        for i in range(mu.n_samples)]
    path = tmp_path / "old_measure.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert '[1e-05, 1e+16, -0.0]' in lines[1]
    back = read_measure_jsonl(path)
    _assert_bits_equal(back.segments, values)
    _assert_bits_equal(back.times, mu.times)
    assert np.array_equal(back.sources, mu.sources)

    traj = _noisy_traj()
    head = {"format": "nsfde-trajectory/1", "h": traj.final_segment.h, "dt": traj.cfg.dt,
            "n_modes": traj.n_modes, "seed": traj.seed, "stream_id": traj.stream_id,
            "store_stride": traj.cfg.store_stride}
    lines = [json.dumps(head)] + [
        json.dumps({"t": float(traj.times[i]), "u": traj.snapshots[i].tolist(),
                    "seg_norm": float(traj.seg_norms[i]), "fp_iters": int(traj.fp_iters[i])})
        for i in range(traj.times.size)]
    path = tmp_path / "old_traj.jsonl"
    path.write_text("\n".join(lines) + "\n")
    back = read_trajectory_jsonl(path)
    _assert_bits_equal(back["snapshots"], traj.snapshots)
    _assert_bits_equal(back["times"], traj.times)
    _assert_bits_equal(back["seg_norms"], traj.seg_norms)


def test_seeds_and_stream_ids_must_fit_int64(tmp_path):
    mu = _small_measure()
    path = tmp_path / "measure.jsonl"
    write_measure_jsonl(mu, path)
    head, first, *rest = path.read_text().splitlines()
    for key in ("seed", "stream"):
        for val, ok in ((2**63 - 1, True), (2**63, False), (2**64, False)):
            rec = dict(json.loads(first), **{key: val})
            path.write_text("\n".join([head, json.dumps(rec)] + rest) + "\n")
            if ok:
                assert read_measure_jsonl(path).sources[0].max() == 2**63 - 1
                continue
            with pytest.raises(ConfigError, match=re.escape(
                    f"measure.jsonl, line 2: {key} = ") + r".* must be an integer >= 0 "
                    r"and < 2\*\*63"):
                read_measure_jsonl(path)

    path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(_noisy_traj(), path)
    head, *recs = path.read_text().splitlines()
    for key in ("seed", "stream_id"):
        rec = dict(json.loads(head), **{key: 2**63})
        path.write_text("\n".join([json.dumps(rec)] + recs) + "\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"traj.jsonl, line 1: {key} = {2**63} must be an integer >= 0 and < 2**63")):
            read_trajectory_jsonl(path)


def test_numbers_that_overflow_a_double_are_not_json(tmp_path):
    mu = _small_measure()
    path = tmp_path / "measure.jsonl"
    write_measure_jsonl(mu, path)
    lines = path.read_text().splitlines()
    lines[2] = re.sub(r'"t":[^,]*', '"t":1e999', lines[2], count=1)
    assert '"t":1e999,' in lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="measure.jsonl, line 3: not valid JSON"):
        read_measure_jsonl(path)


def _with(obj, attr: str, val):
    """``obj`` with ``attr`` set to ``val``, or with ``val`` in one entry of an array."""
    arr = getattr(obj, attr)
    if isinstance(arr, np.ndarray):
        arr = arr.astype(val.dtype if isinstance(val, np.integer) else float)  # a copy
        arr.flat[1] = val
        val = arr
    return replace(obj, **{attr: val})


# format: (writer, a sample it writes, the attribute behind each field)
_WRITERS = {
    "trajectory": (write_trajectory_jsonl, _noisy_traj,
                   {"u": "snapshots", "t": "times", "seg_norm": "seg_norms", "seed": "seed"}),
    "measure": (write_measure_jsonl, _small_measure,
                {"values": "segments", "t": "times", "stream": "sources"}),
}


@pytest.mark.parametrize("fmt, key, val", [
    *[("trajectory", key, val) for key in ("u", "t", "seg_norm")
      for val in (float("nan"), float("inf"))],
    *[("measure", key, val) for key in ("values", "t") for val in (float("nan"), -float("inf"))],
    ("trajectory", "seed", 2**63),
    ("measure", "stream", np.uint64(2**63)),  # flat[1] of sources: the first stream
])
def test_writers_refuse_what_their_reader_refuses(tmp_path, fmt, key, val):
    write, sample, attrs = _WRITERS[fmt]
    bad = _with(sample(), attrs[key], val)
    path = tmp_path / f"{fmt}.jsonl"
    refusal = rf"{fmt}\.jsonl: {key} (= \S+ )?must be"
    with pytest.raises(ConfigError, match=refusal) as refused:
        write(bad, path)
    assert f"{key} = {val} must" in str(refused.value) or key in ("u", "values")
    assert not path.exists()
    write(sample(), path)
    before = path.read_bytes()
    with pytest.raises(ConfigError, match=refusal):
        write(bad, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("fmt, columns", [
    ("trajectory", ("times", "snapshots", "seg_norms", "fp_iters")),
    ("measure", ("segments", "times", "sources")),
])
def test_writers_refuse_ragged_or_empty_columns(tmp_path, fmt, columns):
    write, sample, _ = _WRITERS[fmt]
    obj, path = sample(), tmp_path / f"{fmt}.jsonl"
    with pytest.raises(ConfigError, match=rf"{fmt}\.jsonl: columns .* differ in length"):
        write(replace(obj, times=obj.times[:-1]), path)
    with pytest.raises(ConfigError, match=rf"{fmt}\.jsonl: {fmt} file holds no"):
        write(replace(obj, **{name: getattr(obj, name)[:0] for name in columns}), path)
    assert not path.exists()


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
    # a numpy float is written as the float it is, not as its numpy repr
    write_report_csv(path, [("gamma_stat", np.float64(0.1 + 0.2), None, np.float64(0.7), "pass")])
    back = read_report_csv(path)
    assert back[0]["estimate"] == repr(0.1 + 0.2) and float(back[0]["threshold"]) == 0.7


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
                   with_nan.tolist(),                 # a NaN token
                   good[:5],                          # one node short
                   np.zeros((6, 4)).tolist()):        # one mode too many
        bad = tmp_path / "bad_values.jsonl"
        line3 = json.dumps({"t": 0.2, "seed": 1, "stream": 0, "values": values})
        bad.write_text(header + json.dumps({"t": 0.1, "seed": 1, "stream": 0,
                                            "values": good}) + "\n" + line3 + "\n")
        msg = _refusal(line3, "values must be a (6, 3) array of finite")
        with pytest.raises(ConfigError, match=re.escape(f"bad_values.jsonl, line 3: {msg}")):
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
        lines = [json.dumps(bad_head), json.dumps(bad_rec)]
        scalar.write_text("\n".join(lines) + "\n")
        msg = _refusal(lines[line - 1], f"{key} = {val!r} must be")
        with pytest.raises(ConfigError, match=re.escape(f"bad_scalar.jsonl, line {line}: {msg}")):
            read_measure_jsonl(scalar)

    # the header's n_samples counts the records, so a truncated file is refused
    scalar.write_text(json.dumps(head) + "\n" + json.dumps(rec) + "\n")
    assert read_measure_jsonl(scalar).n_samples == 1
    scalar.write_text(json.dumps(dict(head, n_samples=3)) + "\n" + json.dumps(rec) + "\n")
    with pytest.raises(ConfigError, match="header n_samples = 3 but the file holds 1"):
        read_measure_jsonl(scalar)
