"""End-to-end command-line checks.

All but the console-script and import checks run in process through
main(argv).  The import check runs main(argv) in a fresh interpreter, where
no earlier import has loaded scipy or numpy.polynomial.  The console script is run by name
as a separate process: one check generates the
script itself from ``[project.scripts]`` in ``pyproject.toml``, as an installer
would, so it needs no prior install, and also runs ``python -m nsfde``; the
other runs an installed ``nsfde`` and is skipped where none is on PATH.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import nsfde
from nsfde import (RngStream, find_horizon, ks_critical, load_config, make_coefficients,
                   make_initial_segment, make_noise, make_operator,
                   make_solver_config, osgood_certificate, simulate, sup_norm)
from nsfde.cli import build_parser, main
from nsfde.config import _DEFAULTS
from nsfde.serialize import (read_measure_jsonl, read_report_csv,
                             read_trajectory_jsonl)

# every config field's dotted path: each section's keys, and the top-level seed
_FIELDS = {f"{section}.{key}" for section, keys in _DEFAULTS.items() if isinstance(keys, dict)
           for key in keys} | {"seed"}

ZERO_CFG = """\
seed: 7
operator: {n_modes: 4}
delay: {h: 0.05}
coefficients: {f: zero, sigma: zero, kernel: zero, grid_points: 64}
solver: {dt: 0.01, t_end: 0.2, store_stride: 2}
initial: {kind: zero}
"""

NOISY_CFG = """\
seed: 7
operator: {n_modes: 4}
delay: {h: 0.05}
coefficients: {sigma: one, kernel_scale: 0.1, grid_points: 64}
solver: {dt: 0.01, t_end: 0.2, store_stride: 2}
noise: {trace: 0.5}
initial: {kind: profile, amplitude: 0.2}
"""


def _cfg(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_passes_on_default_style_config(tmp_path, capsys):
    assert main(["validate", "--config", _cfg(tmp_path, NOISY_CFG)]) == 0
    out = capsys.readouterr().out
    assert "configuration valid; all condition checks passed" in out
    assert "[ok ] drift_modulus_bound" in out


@pytest.mark.parametrize("text, needle", [
    (NOISY_CFG + "measure: {thin: 0}\n", "measure.thin"),
    ("coefficients: {Mg: 1.2}\n", "coefficients.Mg"),
    ("delay: {h: 0.1}\nsolver: {dt: 0.03}\n", "delay.h / solver.dt"),
    ("delay: {h: 0.3}\nsolver: {dt: 0.3, t_end: 1.0}\n", "solver.t_end / solver.dt"),
    ("solver: {dtt: 1}\n", "unknown config key"),
    # finite and positive, but the stiffness product overflows: refused, with no warning
    ("operator: {n_modes: 4, a: [[0, 1], [0.5, 1.0e+308], [1, 1]]}\n",
     "error: operator.a: the table's values overflow the stiffness matrix\n"),
    # positive, but the stiffness products underflow: the operator refuses the spectrum
    ("operator: {n_modes: 4, a: [[0, 5.0e-324], [1, 5.0e-324]]}\n",
     "error: eigenvalues of -A must be strictly positive\n"),
    # a 401-digit integer is past the double range: refused as not finite, no traceback
    ("operator: {a: 1" + "0" * 400 + "}\n", "error: operator.a"),
    # past 4300 digits PyYAML itself fails with a bare ValueError: a parse failure
    ("operator: {a: 1" + "0" * 5000 + "}\n", "error: config parse failure in "),
])
def test_validate_rejects_bad_configs(tmp_path, capsys, text, needle):
    assert main(["validate", "--config", _cfg(tmp_path, text)]) == 1
    assert needle in capsys.readouterr().err


def test_config_flags_name_a_field_and_match_the_readme_table():
    """Each flag that sets a config field names a real field, the one README
    lists for it, and README lists no flag the parser lacks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = dict(re.findall(r"^\| `(--[\w-]+)` \|[^|\n]*\| `([\w.]+)` \|$", readme, re.M))
    subparsers = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
    flags = {}
    for name, sp in subparsers.choices.items():
        for action in sp._actions:
            if action.dest == "seed" or "." in action.dest:
                assert action.dest in _FIELDS, (name, action.dest)
                flag = action.option_strings[0]
                assert flags.setdefault(flag, action.dest) == action.dest, (name, flag)
        assert all(key in _FIELDS for key in sp._defaults if "." in key), name
    assert flags == listed
    assert flags["--thin"] == "solver.segment_stride"


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["simulate"]) == 1          # missing --config
    assert main(["frobnicate"]) == 1        # unknown subcommand
    assert main(["t1", "--p", "3.0", "--alpha", "0.5"]) == 1
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1
    capsys.readouterr()


def test_simulate_writes_versioned_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.jsonl"
    rc = main(["simulate", "--config", _cfg(tmp_path, ZERO_CFG),
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "wrote 11 snapshots" in stdout

    data = read_trajectory_jsonl(out)
    assert data["format"] == "nsfde-trajectory/1"
    assert data["n_modes"] == 4 and data["dt"] == 0.01
    assert data["times"].size == 11
    assert np.allclose(data["times"], np.linspace(0.0, 0.2, 11))
    assert not data["snapshots"].any()      # zero data stays at zero
    assert not data["fp_iters"].any()


def test_simulate_reports_the_state_at_t_end(tmp_path, capsys):
    # a store stride of 3 does not divide the 20 steps: the file still ends on
    # the state at t = 0.2, the one the summary reads from the final window
    text = ("operator: {n_modes: 4}\nsolver: {dt: 0.01, t_end: 0.2, store_stride: 3}\n"
            "initial: {kind: profile, profile: sin_pi}\n")
    cfg, out = _cfg(tmp_path, text), tmp_path / "t.jsonl"
    rc = load_config(cfg)
    op = make_operator(rc)
    traj = simulate(make_initial_segment(rc, op), make_coefficients(rc), op,
                    make_noise(rc, op), make_solver_config(rc), RngStream(rc.seed, 0))
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    norm = float(re.search(r"final state norm (\S+)", capsys.readouterr().out).group(1))
    data = read_trajectory_jsonl(out)
    assert data["times"][-2:] == pytest.approx([0.18, 0.2])
    assert np.array_equal(data["snapshots"][-1], traj.final_segment.head())
    assert norm == float(f"{np.linalg.norm(traj.final_segment.head()):.6g}")
    assert norm == float(f"{np.linalg.norm(data['snapshots'][-1]):.6g}")
    # at stride 1 the last snapshot is the state at t_end
    stride_1 = _cfg(tmp_path, text.replace("store_stride: 3", "store_stride: 1"), "s1.yaml")
    assert main(["simulate", "--config", stride_1, "--out", str(out)]) == 0
    norm = float(re.search(r"final state norm (\S+)", capsys.readouterr().out).group(1))
    assert norm == float(f"{np.linalg.norm(read_trajectory_jsonl(out)['snapshots'][-1]):.6g}")


def test_simulate_is_reproducible_and_seed_overridable(tmp_path, capsys):
    cfg = _cfg(tmp_path, NOISY_CFG)
    out_a, out_b, out_c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    resolved = tmp_path / "resolved.yaml"
    assert main(["simulate", "--config", cfg, "--seed", "123",
                 "--out", str(out_a), "--resolved", str(resolved)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "123",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    rc2 = load_config(resolved)             # resolved dump reloads cleanly
    assert rc2.seed == 123
    assert main(["simulate", "--config", str(resolved),
                 "--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_c.read_bytes()

    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--seed", "-1",
                 "--out", str(out_a)]) == 1
    assert "seed = -1 must be >= 0" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--stream", "-1",
                 "--out", str(out_a)]) == 1
    assert "stream_id = -1 must be >= 0" in capsys.readouterr().err


def test_seeds_and_streams_past_int64_exit_1(tmp_path, capsys):
    cfg = _cfg(tmp_path, ZERO_CFG)
    out = tmp_path / "out.jsonl"
    for argv in (["estimate-measure", "--seed", str(2**63)],
                 ["simulate", "--seed", str(2**64)],
                 ["simulate", "--stream", str(2**63)]):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "< 2**63" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_refused_config_writes_no_resolved_dump(tmp_path, capsys, monkeypatch):
    _forbid_integration(monkeypatch)
    resolved = tmp_path / "r.yaml"
    assert main(["simulate", "--config", _cfg(tmp_path, "coefficients: {Mg: 0.8}\n", "bad.yaml"),
                 "--resolved", str(resolved), "--out", str(tmp_path / "t.jsonl")]) == 1
    assert "coefficients.Mg" in capsys.readouterr().err
    assert not resolved.exists()
    late = ZERO_CFG + "measure: {burn_in: 5.0}\n"
    assert main(["estimate-measure", "--config", _cfg(tmp_path, late, "late.yaml"),
                 "--trajectories", "2", "--resolved", str(resolved),
                 "--out", str(tmp_path / "m.jsonl")]) == 1
    assert "measure.burn_in" in capsys.readouterr().err
    assert not resolved.exists()
    # refused by estimate-measure itself: no checkpoint after the default burn-in 0.2
    assert main(["estimate-measure", "--config", _cfg(tmp_path, "solver: {t_end: 0.15}\n"),
                 "--thin", "1", "--resolved", str(resolved),
                 "--out", str(tmp_path / "m.jsonl")]) == 1
    assert "no segment checkpoint survives the burn-in" in capsys.readouterr().err
    assert not resolved.exists()
    # and a run with no checkpoint stride at all: none in the file, no --thin
    assert main(["estimate-measure", "--config", _cfg(tmp_path, ZERO_CFG),
                 "--resolved", str(resolved), "--out", str(tmp_path / "m.jsonl")]) == 1
    assert capsys.readouterr().err == ("error: solver.segment_stride = 0 checkpoints no "
                                       "segment to pool: set it in the config or pass --thin\n")
    assert not resolved.exists() and not (tmp_path / "m.jsonl").exists()


def test_a_short_run_reruns_from_its_dump(tmp_path, capsys):
    # t_end = 2 * delay.h: the default burn-in is not before the end, so the
    # dump leaves measure.burn_in unset and reports the effective one as derived
    cfg = _cfg(tmp_path, NOISY_CFG.replace("t_end: 0.2", "t_end: 0.1"))
    out, rerun, resolved = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "r.yaml"))
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--resolved", str(resolved)]) == 0
    dumped = yaml.safe_load(resolved.read_text())
    assert dumped["measure"]["burn_in"] is None and dumped["derived"]["burn_in"] == 0.1
    assert main(["simulate", "--config", str(resolved), "--out", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == out.read_bytes()


TABLE_CFG = NOISY_CFG.replace("operator: {n_modes: 4}",
                              "operator: {n_modes: 4, a: [[0.0, 1.0], [0.5, 2.0], [1.0, 1.5]]}")


def test_tabulated_diffusivity_reruns_from_its_dump(tmp_path, capsys):
    out, rerun, resolved = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "r.yaml"))
    assert main(["simulate", "--config", _cfg(tmp_path, TABLE_CFG), "--out", str(out),
                 "--resolved", str(resolved)]) == 0
    assert load_config(resolved).operator["a"] == [[0.0, 1.0], [0.5, 2.0], [1.0, 1.5]]
    assert main(["simulate", "--config", str(resolved), "--out", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == out.read_bytes()


def test_a_run_with_a_resolved_dump_assembles_its_operator_once(tmp_path, capsys,
                                                                 monkeypatch):
    calls = []
    assemble = nsfde.spectral.assemble_operator

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(nsfde.spectral, "assemble_operator", counted)
    resolved = tmp_path / "r.yaml"
    assert main(["simulate", "--config", _cfg(tmp_path, TABLE_CFG), "--out",
                 str(tmp_path / "a.jsonl"), "--resolved", str(resolved)]) == 0
    capsys.readouterr()
    assert len(calls) == 1 and calls[0]["a"] == [[0.0, 1.0], [0.5, 2.0], [1.0, 1.5]]
    op = assemble(**calls[0])
    assert yaml.safe_load(resolved.read_text())["derived"]["mu_1"] == float(op.eigenvalues[0])


def test_validate_refuses_a_table_that_dips_between_the_assembly_nodes(tmp_path, capsys):
    # a(0.5001) = -0.0001, yet a is positive on every 16N + 1 node for n = 4 .. 32
    cfg = _cfg(tmp_path, "operator: {n_modes: 4, a: [[0.0, 1.0], [0.5001, -0.0001], "
                         "[1.0, 1.0]]}\ndelay: {h: 0.05}\nsolver: {dt: 0.01, t_end: 0.1}\n")
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "configuration valid" not in captured.out
    assert "error: operator.a = -0.0001 at x = 0.5001 must be positive" in captured.err


def test_a_table_refused_by_the_operator_leaves_no_file(tmp_path, capsys):
    # loading the config refuses the table, before any run or dump
    cfg = _cfg(tmp_path, "operator: {n_modes: 4, a: [[0.0, 1.0], [1.0, -1.0]]}\n"
                         "delay: {h: 0.05}\nsolver: {dt: 0.01, t_end: 0.1}\n"
                         "coefficients: {grid_points: 64}\n")
    resolved, out = tmp_path / "r.yaml", tmp_path / "out"
    for argv in (["simulate"], ["picard"], ["estimate-measure", "--thin", "1"],
                 ["tightness"], ["check-conditions"], ["validate"],
                 ["invariance-test", "--measure", str(tmp_path / "m.jsonl"), "--t", "0.1"]):
        flags = [] if argv[0] == "validate" else ["--out", str(out)]
        assert main(argv + ["--config", cfg, "--resolved", str(resolved), *flags]) == 1
        assert "error: operator.a = -1 at x = 1 must be positive" in capsys.readouterr().err
        assert not resolved.exists() and not out.exists()


def test_simulate_blowup_exits_2(tmp_path, capsys):
    text = NOISY_CFG.replace(
        "solver: {dt: 0.01, t_end: 0.2, store_stride: 2}",
        "solver: {dt: 0.01, t_end: 0.2, blowup_threshold: 1.0e-6}")
    out = tmp_path / "traj.jsonl"
    assert main(["simulate", "--config", _cfg(tmp_path, text),
                 "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_t1_prints_the_library_answer(capsys):
    assert main(["t1", "--Mg", "0.2", "--p", "3.0", "--alpha", "0.5",
                 "--C", "0.4289"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = {ln.split(" = ")[0]: float(ln.split(" = ")[1]) for ln in lines[:3]}
    res = find_horizon(0.2, 3.0, 0.5, 0.4289)
    assert got["T1"] == res.horizon         # repr round trip is exact
    assert got["gamma"] == res.contraction
    assert got["cond2"] == res.stability

    # large p: the bounds overflow a double at the cap, T1 itself does not
    assert main(["t1", "--Mg", "0.3", "--p", "28", "--alpha", "1.0"]) == 0
    t1 = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    exact = 0.49427653715729309
    assert t1 <= exact and (exact - t1) / exact <= 1e-14

    assert main(["t1", "--Mg", "1e-9", "--p", "2.5", "--alpha", "0.01"]) == 0
    assert "note: T1 capped" in capsys.readouterr().out

    # non-finite window arguments are refused, not carried into Decimal
    for flag, value in [("--C", "nan"), ("--C", "inf"), ("--p", "nan"), ("--p", "inf")]:
        args = {"--Mg": "0.3", "--p": "3", "--alpha": "0.5", "--C": "1.0", flag: value}
        assert main(["t1"] + [x for kv in args.items() for x in kv]) == 1
        cap = capsys.readouterr()
        assert cap.err.startswith("error:") and "Traceback" not in cap.err
        assert cap.out == ""


def _forbid_integration(monkeypatch):
    """Make any trajectory integration by the measure drivers fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a trajectory was integrated before the flags were checked")
    monkeypatch.setattr("nsfde.measure.simulate", refuse)


def test_measure_pipeline_and_invariance_verdict(tmp_path, capsys, monkeypatch):
    text = ZERO_CFG.replace("t_end: 0.2", "t_end: 0.5")
    cfg = _cfg(tmp_path, text)
    mfile = tmp_path / "measure.jsonl"
    assert main(["estimate-measure", "--config", cfg, "--trajectories", "2",
                 "--thin", "5", "--out", str(mfile)]) == 0
    assert "pooled 16 segment checkpoints from 2 trajectories" in \
        capsys.readouterr().out

    mu = read_measure_jsonl(mfile)
    assert mu.n_samples == 16               # 8 post-burn-in checkpoints x 2
    assert mu.thin == 5                     # the checkpoint stride --thin set
    assert mu.n_modes == 4
    assert not sup_norm(mu.segments).any()  # zero dynamics: point mass at 0
    assert np.all(mu.times > 0.1)
    # a config stride is the same knob: no flag, the same measure
    stride_cfg = _cfg(tmp_path, text.replace("store_stride: 2}", "store_stride: 2, "
                                             "segment_stride: 5}"), name="stride.yaml")
    from_yaml = tmp_path / "from_yaml.jsonl"
    assert main(["estimate-measure", "--config", stride_cfg, "--trajectories", "2",
                 "--out", str(from_yaml)]) == 0
    capsys.readouterr()
    assert read_measure_jsonl(from_yaml).thin == 5
    assert from_yaml.read_bytes() == mfile.read_bytes()

    late, rerun = tmp_path / "late.jsonl", tmp_path / "rerun.jsonl"
    resolved = tmp_path / "late.yaml"
    assert main(["estimate-measure", "--config", cfg, "--trajectories", "2",
                 "--thin", "5", "--burn-in", "0.22", "--out", str(late),
                 "--resolved", str(resolved)]) == 0
    assert "pooled 12 segment checkpoints from 2 trajectories (burn-in 0.22," in \
        capsys.readouterr().out
    assert np.all(read_measure_jsonl(late).times > 0.22)
    # the dump records the flags: rerun without them, the run is the same
    assert main(["estimate-measure", "--config", str(resolved),
                 "--out", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == late.read_bytes()

    # the point mass at zero is exactly invariant here, so every KS is 0
    report = tmp_path / "inv.csv"
    assert main(["invariance-test", "--config", cfg, "--measure", str(mfile),
                 "--t", "0.3", "--draws", "20", "--out", str(report)]) == 0
    assert "[pass]" in capsys.readouterr().out
    rows = read_report_csv(report)
    assert [r["statistic"] for r in rows] == \
        ["seg_norm", "head_norm", "mode_1", "mode_2", "mode_3"]
    assert all(r["verdict"] == "pass" for r in rows)
    assert all(float(r["estimate"]) == 0.0 for r in rows)
    # the threshold column is the 5 % critical value as a plain number
    assert main(["invariance-test", "--config", cfg, "--measure", str(mfile),
                 "--t", "0.01", "--draws", "100", "--out", str(report)]) == 0
    capsys.readouterr()
    assert {float(r["threshold"]) for r in read_report_csv(report)} == {ks_critical(100, 100)}

    # a horizon off the step grid is refused, not rounded to 0.2
    assert main(["invariance-test", "--config", cfg, "--measure", str(mfile),
                 "--t", "0.205", "--draws", "20", "--out", str(tmp_path / "x.csv")]) == 1
    assert "t / dt" in capsys.readouterr().err

    # config/measure consistency guards
    wrong_modes = _cfg(tmp_path, text.replace("n_modes: 4", "n_modes: 8"),
                       name="m8.yaml")
    assert main(["invariance-test", "--config", wrong_modes, "--measure",
                 str(mfile), "--t", "0.3", "--out", str(report)]) == 1
    assert "mode count" in capsys.readouterr().err
    wrong_h = _cfg(tmp_path, text.replace("h: 0.05", "h: 0.1"), name="mh.yaml")
    assert main(["invariance-test", "--config", wrong_h, "--measure",
                 str(mfile), "--t", "0.3", "--out", str(report)]) == 1
    assert "delay h" in capsys.readouterr().err
    wrong_dt = _cfg(tmp_path, text.replace("dt: 0.01", "dt: 0.005"), name="mdt.yaml")
    assert main(["invariance-test", "--config", wrong_dt, "--measure",
                 str(mfile), "--t", "0.3", "--out", str(report)]) == 1
    assert "disagree on the step (solver.dt): the measure has 0.01, the config 0.005" in \
        capsys.readouterr().err
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not a measure\n")
    assert main(["invariance-test", "--config", cfg, "--measure", str(garbage),
                 "--t", "0.3", "--out", str(report)]) == 1
    assert "line 1: not valid JSON" in capsys.readouterr().err

    # bad flags fail as the config fields they set, before any integration
    _forbid_integration(monkeypatch)
    for flag, value, field in (("--burn-in", "-1", "measure.burn_in"),
                               ("--thin", "0", "solver.segment_stride"),
                               ("--thin", "-1", "solver.segment_stride"),
                               ("--trajectories", "0", "measure.n_trajectories")):
        assert main(["estimate-measure", "--config", cfg, flag, value,
                     "--out", str(tmp_path / "bad.jsonl")]) == 1
        assert f"error: {field} = " in capsys.readouterr().err

    # so does a measure record that is not a finite window
    lines = mfile.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["values"][0][0] = float("nan")
    lines[3] = json.dumps(rec)
    poisoned = tmp_path / "poisoned.jsonl"
    poisoned.write_text("\n".join(lines) + "\n")
    assert main(["invariance-test", "--config", cfg, "--measure", str(poisoned),
                 "--t", "0.3", "--out", str(report)]) == 1
    assert "poisoned.jsonl, line 4: not valid JSON" in capsys.readouterr().err  # NaN token

    # and a measure file with a bad header scalar or a missing record
    head, *recs = mfile.read_text().splitlines()
    for name, text_lines, needle in (
            ("wide.jsonl", [json.dumps(dict(json.loads(head), h="wide"))] + recs,
             "wide.jsonl, line 1: h = 'wide' must be a positive finite number"),
            ("truncated.jsonl", [head] + recs[:-1],
             "header n_samples = 16 but the file holds 15 samples"),
            ("array.jsonl", [head, "[1, 2]"] + recs[1:],
             "array.jsonl, line 2: expected a JSON object")):
        broken = tmp_path / name
        broken.write_text("\n".join(text_lines) + "\n")
        assert main(["invariance-test", "--config", cfg, "--measure", str(broken),
                     "--t", "0.3", "--out", str(report)]) == 1
        assert needle in capsys.readouterr().err


def test_a_measure_pools_the_same_rows_whatever_the_ensemble_size(tmp_path, capsys):
    # trajectory i runs on stream i: the rows of streams 0-2 in a measure of six
    # trajectories are, bit for bit, the measure of three
    cfg = _cfg(tmp_path, NOISY_CFG.replace("t_end: 0.2", "t_end: 0.4"))
    three, six = tmp_path / "three.jsonl", tmp_path / "six.jsonl"
    for n, out in ((3, three), (6, six)):
        assert main(["estimate-measure", "--config", cfg, "--trajectories", str(n),
                     "--thin", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    mu3, mu6 = read_measure_jsonl(three), read_measure_jsonl(six)
    rows = mu6.sources[:, 1] < 3
    assert mu3.n_samples == rows.sum() == mu6.n_samples // 2 > 0
    for name in ("segments", "times", "sources"):
        assert getattr(mu3, name).tobytes() == getattr(mu6, name)[rows].tobytes(), name
    assert sup_norm(mu3.segments).min() > 0.0


@pytest.mark.parametrize("text, flags, needle", [
    ("solver: {t_end: 0.3}\n", ["--thin", "1000"],
     "solver.segment_stride = 1000 with solver.t_end = 0.3 puts the last checkpoint at t = 0, "
     "not after measure.burn_in = 0.2 (unset: 2 * delay.h)"),
    ("solver: {t_end: 0.15, segment_stride: 1}\n", [],
     "solver.segment_stride = 1 with solver.t_end = 0.15 puts the last checkpoint at t = 0.15, "
     "not after measure.burn_in = 0.2 (unset: 2 * delay.h)"),
    (ZERO_CFG, ["--thin", "15", "--burn-in", "0.15"],   # one checkpoint, at the burn-in
     "solver.segment_stride = 15 with solver.t_end = 0.2 puts the last checkpoint at t = 0.15, "
     "not after measure.burn_in = 0.15"),
], ids=["thin", "default-burn-in", "at-the-burn-in"])
def test_estimate_measure_refuses_a_run_with_no_checkpoint_after_the_burn_in(
        tmp_path, capsys, monkeypatch, text, flags, needle):
    # refused before any integration, naming the fields; the config still loads
    cfg, out = _cfg(tmp_path, text), tmp_path / "m.jsonl"
    _forbid_integration(monkeypatch)
    assert main(["estimate-measure", "--config", cfg, "--out", str(out)] + flags) == 1
    assert capsys.readouterr().err == \
        f"error: no segment checkpoint survives the burn-in: {needle}\n"
    assert not out.exists()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "t.jsonl")]) == 0
    capsys.readouterr()


def test_tightness_reports_tail_fractions(tmp_path, capsys, monkeypatch):
    cfg = _cfg(tmp_path, ZERO_CFG)
    report, rerun = tmp_path / "tight.csv", tmp_path / "rerun.csv"
    resolved = tmp_path / "tight.yaml"
    assert main(["tightness", "--config", cfg, "--R", "0.5,2.0",
                 "--trajectories", "2", "--out", str(report),
                 "--resolved", str(resolved)]) == 0
    assert "sup_t fraction with segment norm > 0.5" in capsys.readouterr().out
    rows = read_report_csv(report)
    assert [r["statistic"] for r in rows] == \
        ["tail_fraction_R_0.5", "tail_fraction_R_2"]
    assert all(float(r["estimate"]) == 0.0 for r in rows)
    assert main(["tightness", "--config", str(resolved),
                 "--out", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == report.read_bytes()

    # a store stride past the run's 20 steps still stores the times 0 and t_end
    reports, diagnose = [], nsfde.measure.tightness_diagnostic

    def recorded(*args):
        reports.append(diagnose(*args))
        return reports[-1]

    monkeypatch.setattr("nsfde.measure.tightness_diagnostic", recorded)
    sparse = _cfg(tmp_path, ZERO_CFG.replace("store_stride: 2", "store_stride: 21"), "sparse.yaml")
    assert main(["tightness", "--config", sparse, "--trajectories", "2",
                 "--out", str(tmp_path / "sparse.csv")]) == 0
    capsys.readouterr()
    assert reports[0].checkpoints.tolist() == [0.0, 0.2]
    _forbid_integration(monkeypatch)
    assert main(["tightness", "--config", cfg, "--R", "a,b",
                 "--out", str(report)]) == 1
    assert "comma-separated radii" in capsys.readouterr().err
    assert main(["tightness", "--config", cfg, "--R=-1,2",
                 "--out", str(report)]) == 1
    assert "error: measure.r_grid must be" in capsys.readouterr().err
    assert main(["tightness", "--config", cfg, "--R", "0.5,inf",
                 "--out", str(report)]) == 1
    assert "error: measure.r_grid must be a nonempty list of finite" in \
        capsys.readouterr().err


def test_commands_that_read_no_window_checkpoint_none(tmp_path, capsys, monkeypatch):
    # a config's segment_stride is the stride estimate-measure pools at; simulate,
    # picard and tightness read no window, so they keep none and write the same bytes
    plain = _cfg(tmp_path, NOISY_CFG)
    strided = _cfg(tmp_path, NOISY_CFG.replace("store_stride: 2}",
                                               "store_stride: 2, segment_stride: 1}"),
                   "strided.yaml")
    seen = {}

    def record(name, fn):
        def run(*args):
            seen.setdefault(name, []).append(fn(*args))
            return seen[name][-1]
        return run

    monkeypatch.setattr("nsfde.cli.simulate", record("simulate", nsfde.cli.simulate))
    monkeypatch.setattr("nsfde.cli.picard_run", record("picard", nsfde.cli.picard_run))
    monkeypatch.setattr("nsfde.measure.run_ensemble",
                        record("tightness", nsfde.measure.run_ensemble))
    for cmd, flags in (("simulate", []), ("picard", []), ("tightness", ["--trajectories", "3"])):
        written = []
        for cfg in (plain, strided):
            out = tmp_path / f"{cmd}-{len(written)}.out"
            assert main([cmd, "--config", cfg, *flags, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
    capsys.readouterr()
    trajs = (seen["simulate"] + [t for run in seen["picard"] for t, _ in run]
             + [t for run in seen["tightness"] for t in run])
    assert len(trajs) == 2 + 2 * 9 + 2 * 3
    assert all(t.segments is None and t.cfg.segment_stride == 0 for t in trajs)
    assert load_config(strided).solver["segment_stride"] == 1


def test_check_conditions_writes_the_checklist(tmp_path, capsys):
    cfg = _cfg(tmp_path, NOISY_CFG)
    report = tmp_path / "cond.csv"
    assert main(["check-conditions", "--config", cfg, "--samples", "500",
                 "--out", str(report)]) == 0
    capsys.readouterr()
    rows = read_report_csv(report)
    assert [r["statistic"] for r in rows] == [
        "operator_gap_delta", "neutral_smallness", "noise_trace",
        "modulus_shape", "osgood_divergence", "drift_modulus_bound",
        "neutral_lipschitz_probe", "linear_growth_probe"]
    assert all(r["verdict"] == "pass" for r in rows)


def test_check_conditions_flags_an_oversized_kernel(tmp_path, capsys):
    text = NOISY_CFG.replace("kernel_scale: 0.1", "kernel_scale: 0.45")
    assert main(["check-conditions", "--config", _cfg(tmp_path, text),
                 "--samples", "500"]) == 1
    assert "[FAIL] neutral_lipschitz_probe" in capsys.readouterr().out


def test_picard_prints_contracting_iterates(tmp_path, capsys):
    text = NOISY_CFG.replace("sigma: one", "sigma: zero") \
                    .replace("solver: {dt: 0.01, t_end: 0.2, store_stride: 2}",
                             "solver: {dt: 0.01, t_end: 0.2, picard_iters: 4}")
    report, rerun = tmp_path / "picard.csv", tmp_path / "rerun.csv"
    resolved = tmp_path / "picard.yaml"
    assert main(["picard", "--config", _cfg(tmp_path, text),
                 "--out", str(report), "--resolved", str(resolved)]) == 0
    assert "iterate 1: sup_diff" in capsys.readouterr().out
    assert load_config(resolved).solver["mode"] == "picard"   # the run's mode
    assert main(["picard", "--config", str(resolved), "--out", str(rerun)]) == 0
    capsys.readouterr()
    assert rerun.read_bytes() == report.read_bytes()
    rows = read_report_csv(report)
    assert [r["statistic"] for r in rows] == [f"sup_diff_iterate_{k}"
                                              for k in (1, 2, 3, 4)]
    vals = [float(r["estimate"]) for r in rows]
    assert all(v > 0.0 for v in vals)
    assert vals[1] > vals[2] > vals[3]      # successive sweeps contract


# runs each subcommand in turn and prints
# [command, exit code, scipy loaded, numpy.polynomial loaded]
_IMPORT_PROBE = """\
import json, sys
import nsfde
from nsfde.cli import main

def loaded():
    return ["scipy" in sys.modules, "numpy.polynomial" in sys.modules]

zero, noisy, out = sys.argv[1:]
seen = [["import", 0, *loaded()]]
for argv in (["simulate", "--config", zero, "--out", out + "/traj.jsonl"],
             ["picard", "--config", zero, "--out", out + "/picard.csv"],
             ["estimate-measure", "--config", zero, "--trajectories", "2",
              "--thin", "1", "--out", out + "/mu.jsonl"],
             ["invariance-test", "--config", zero, "--measure", out + "/mu.jsonl",
              "--t", "0.1", "--draws", "20", "--out", out + "/inv.csv"],
             ["tightness", "--config", zero, "--trajectories", "2",
              "--out", out + "/tight.csv"],
             ["t1", "--Mg", "0.2", "--p", "3.0", "--alpha", "0.5"],
             ["check-conditions", "--config", noisy, "--samples", "500"],
             ["validate", "--config", noisy]):
    seen.append([argv[0], main(argv), *loaded()])
print(json.dumps(seen))
"""


def _child_env():
    """This environment, with the package this process imported first on
    PYTHONPATH, so that a child imports it from any cwd."""
    env = dict(os.environ)
    pkg_root = str(Path(nsfde.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


def test_no_subcommand_loads_scipy(tmp_path):
    # the Osgood certificate's rule loads numpy.polynomial on first use, so the
    # run subcommands never do
    zero, noisy = _cfg(tmp_path, ZERO_CFG), _cfg(tmp_path, NOISY_CFG, "noisy.yaml")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, zero, noisy,
                           str(tmp_path)], capture_output=True, text=True,
                          env=_child_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["import", 0, False, False], ["simulate", 0, False, False],
        ["picard", 0, False, False], ["estimate-measure", 0, False, False],
        ["invariance-test", 0, False, False], ["tightness", 0, False, False],
        ["t1", 0, False, False], ["check-conditions", 0, False, True],
        ["validate", 0, False, True]]
    cert = osgood_certificate(make_coefficients(load_config(noisy)))
    assert (f"[ok ] osgood_divergence: estimate {cert.integrals[-1]:.6g}, "
            "threshold inf") in proc.stdout


# the wrapper an installer writes for a ``module:attr`` console-script entry
_SCRIPT = """\
#!{python}
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def _declared_entry():
    try:
        import tomllib
    except ModuleNotFoundError:             # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["nsfde"]


def _check_t1_script(cmd=("nsfde",), **run_kwargs):
    """Run ``nsfde t1`` (by name unless ``cmd`` says otherwise) and check its
    answer and its usage exit."""
    proc = subprocess.run([*cmd, "t1", "--Mg", "0.3", "--p", "3.0",
                           "--alpha", "0.5"], capture_output=True, text=True,
                          **run_kwargs)
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0]
    assert first.startswith("T1 = ")
    # repr round trip is exact; --C defaults to 1.0
    assert float(first[len("T1 = "):]) == \
        find_horizon(0.3, 3.0, 0.5, 1.0).horizon

    proc = subprocess.run([*cmd, "t1", "--p", "3.0", "--alpha", "0.5"],
                          capture_output=True, text=True, **run_kwargs)
    assert proc.returncode == 1             # sys.exit carries main's code
    assert "--Mg" in proc.stderr


def test_console_script_is_installed(tmp_path):
    entry = _declared_entry()
    assert entry == "nsfde.cli:main"
    module, _, attr = entry.partition(":")

    bindir = tmp_path / "bin"
    bindir.mkdir()
    script = bindir / "nsfde"
    script.write_text(_SCRIPT.format(python=sys.executable, module=module,
                                     attr=attr))
    script.chmod(0o755)

    env = _child_env()
    env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])
    _check_t1_script(env=env, cwd=tmp_path)
    # ``python -m nsfde`` reaches the same entry through ``__main__.py``
    _check_t1_script((sys.executable, "-m", "nsfde"), env=env, cwd=tmp_path)


@pytest.mark.skipif(shutil.which("nsfde") is None,
                    reason="no installed nsfde script on PATH")
def test_installed_console_script_runs():
    _check_t1_script()
