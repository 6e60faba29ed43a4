"""Config schema: defaults, strict validation, builders, resolved round trips."""
import dataclasses
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import nsfde
from nsfde import config as config_mod
from nsfde import (ConfigError, EllipticityError, SolverConfig, assemble_operator,
                   builtin_coefficients, builtin_qwiener, load_config, make_coefficients,
                   make_initial_segment, make_noise, make_operator,
                   make_solver_config, parse_config, resolved_dict)
from nsfde.config import _FIELDS, dump_resolved


def test_empty_config_takes_documented_defaults():
    rc = parse_config({})
    assert rc.seed == 12345
    assert rc.h == 0.1
    assert rc.dt == 1.0e-3
    assert rc.operator["n_modes"] == 32
    assert rc.grid_points() == 128          # 4 * n_modes when unset
    assert rc.burn_in() == pytest.approx(0.2)   # two delay windows
    assert rc.solver["mode"] == "direct"
    assert rc.noise["spectrum"] == "power"
    assert rc.initial["kind"] == "zero"
    assert rc.measure["r_grid"] == [0.5, 1.0, 2.0, 4.0, 8.0]


def test_yaml_text_and_explicit_values_override():
    rc = parse_config(yaml.safe_load("operator: {n_modes: 8}\ncoefficients: {grid_points: 64}\n"
                                     "measure: {burn_in: 1.5}\ndelay: {h: 1}\n"
                                     "solver: {t_end: 2}\n"))
    assert rc.operator["n_modes"] == 8
    assert rc.grid_points() == 64
    assert rc.burn_in() == 1.5
    assert rc.h == 1.0 and isinstance(rc.h, float)
    assert parse_config(yaml.safe_load("")).seed == 12345  # empty document = all defaults


def test_unknown_keys_report_dotted_paths():
    with pytest.raises(ConfigError, match="unknown config key 'solver.dtt'"):
        parse_config({"solver": {"dtt": 1e-3}})
    with pytest.raises(ConfigError, match="unknown config key 'solvers'"):
        parse_config({"solvers": {}})
    with pytest.raises(ConfigError, match="section 'solver' must be a mapping"):
        parse_config({"solver": 3})
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config([1, 2])
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config("seed: 3")   # YAML text: load_config parses files


@pytest.mark.parametrize("patch, needle", [
    ({"coefficients": {"Mg": 1.2}}, "coefficients.Mg"),
    ({"operator": {"n_modes": 0}}, "operator.n_modes = 0 must be >= 1"),
    ({"noise": {"trace": -1.0}}, "noise.trace = -1.0 out of range"),
    ({"noise": {"exponent": 1.0}}, "noise.exponent"),
    ({"delay": {"h": "wide"}}, "delay.h must be a number"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": -4}, "seed must be nonnegative"),
    ({"initial": {"ramp": 1}}, "initial.ramp must be a boolean"),
    ({"solver": {"mode": "euler"}}, "not one of"),
    ({"solver": {"store_stride": 0}}, "solver.store_stride"),
    ({"coefficients": {"grid_points": 33}}, "must be even"),
    ({"coefficients": {"grid_points": 2}}, "must be >= 4"),
    # listed here, not last, so that the automatic ids of the cases below stay put
    ({"solver": {"t_end": 0.2}, "measure": {"burn_in": 0.2}},
     "measure.burn_in = 0.2 must be < solver.t_end = 0.2"),
    ({"measure": {"r_grid": []}}, "measure.r_grid"),
    ({"measure": {"r_grid": [1.0, -2.0]}}, "measure.r_grid"),
    ({"operator": {"a": -1.0}}, "operator.a must be positive"),
    ({"operator": {"a": "piecewise"}}, "operator.a must be a number"),
    ({"operator": {"a": [[0.0, 1.0]]}}, "operator.a must be a number"),
    ({"operator": {"a": float("inf")}}, "operator.a must be positive and finite"),
    ({"delay": {"h": float("inf")}}, "delay.h = inf must be finite"),
    ({"solver": {"t_end": float("inf")}}, "solver.t_end = inf must be finite"),
    ({"initial": {"amplitude": float("nan")}}, "initial.amplitude = nan must be finite"),
    ({"operator": {"a": [[0.0, float("inf")], [1.0, 1.0]]}}, "pairs of finite numbers"),
    ({"operator": {"a": [[0.0, "x"], [1.0, 1.0]]}}, "operator.a must be a number"),
    ({"operator": {"a": [[0.0, 1.0], [True, 1.0]]}}, "operator.a must be a number"),
    ({"operator": {"n_modes": 2}, "initial": {"kind": "coeffs",
                                              "coeffs": [float("nan"), 1.0]}},
     "initial.coeffs must list one coefficient per mode, each a finite number"),
    ({"operator": {"n_modes": 2}, "initial": {"kind": "coeffs", "coeffs": ["x", 1.0]}},
     "initial.coeffs must list one coefficient per mode, each a finite number"),
    ({"measure": {"r_grid": [float("inf")]}}, "measure.r_grid"),
    ({"operator": {"n_modes": 32}, "coefficients": {"grid_points": 64}},
     "coefficients.grid_points = 64 must exceed 2 * operator.n_modes = 64"),
    ({"coefficients": {"Mg": 0.8}}, "coefficients.Mg = 0.8"),
    ({"delay": {"h": 0.3}, "solver": {"dt": 0.3, "t_end": 1.0}}, "solver.t_end / solver.dt"),
    ({"solver": {"t_end": 0.0005}}, "solver.t_end = 0.0005"),
    ({"noise": {"spectrum": ["power"]}}, "noise.spectrum = ['power'] not one of"),
    ({"coefficients": {"K": 0}}, "coefficients.K = 0.0 must be positive"),
    # odd but past the alias bound 2 * n_modes: only the parity check refuses it
    ({"coefficients": {"grid_points": 129}}, "coefficients.grid_points = 129 must be even"),
])
def test_out_of_range_values_name_the_field(patch, needle):
    with pytest.raises(ConfigError, match=re.escape(needle)):
        parse_config(patch)


@pytest.mark.parametrize("build, where, good, bad", [
    (lambda v: SolverConfig(dt=0.01, t_end=0.2, fp_max=v), "solver.fp_max", 50, 50.5),
    (lambda v: SolverConfig(dt=0.01, t_end=0.2, picard_iters=v), "solver.picard_iters", 2, 2.0),
    (lambda v: SolverConfig(dt=0.01, t_end=0.2, store_stride=v), "solver.store_stride", 2, 2.5),
    (lambda v: SolverConfig(dt=0.01, t_end=0.2, segment_stride=v), "solver.segment_stride",
     0, 0.5),
    (lambda v: assemble_operator(n_modes=v), "operator.n_modes", 4, 4.7),
    (lambda v: assemble_operator(n_modes=4).grid(v), "coefficients.grid_points", 40, 40.9),
    (lambda v: builtin_coefficients(grid_points=v), "coefficients.grid_points", 64, 64.0),
], ids=["fp_max", "picard_iters", "store_stride", "segment_stride", "n_modes", "grid",
        "grid_points"])
def test_library_counts_refuse_what_is_not_an_integer(build, where, good, bad):
    # refused when built, not truncated or left to fail later (an fp_max of
    # 50.5 never equals the iteration count, so the fixed point would not stop)
    for val in (bad, True, np.bool_(False), "2"):
        with pytest.raises(ConfigError, match=re.escape(f"{where} must be an integer")):
            build(val)
    build(good)
    build(np.int64(good))   # Python and numpy integers pass


def _patch(path, val):
    section, _, key = path.rpartition(".")
    return {section: {key: val}} if section else {key: val}


def _wrong_kind(default):
    """A value of the wrong kind for a field with this default."""
    if isinstance(default, bool):
        return 1
    return "nope" if isinstance(default, str) else "wide"


@pytest.mark.parametrize("patch, path", [
    *[(_patch(path, _wrong_kind(default)), path) for path, (default, _) in _FIELDS.items()],
    ({"coefficients": {"kernel": "zero", "kernel_delay": "mid"}}, "coefficients.kernel_delay"),
], ids=[*_FIELDS, "kernel_delay_without_kernel"])
def test_every_field_refuses_a_value_of_the_wrong_kind(patch, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(patch)


def test_seed_must_fit_int64():
    assert parse_config({"seed": 2**63 - 1}).seed == 2**63 - 1
    for seed in (2**63, 2**64):
        with pytest.raises(ConfigError, match=re.escape(f"seed = {seed} must be < 2**63")):
            parse_config({"seed": seed})


def test_window_must_hold_integer_step_count():
    with pytest.raises(ConfigError, match="delay.h / solver.dt"):
        parse_config({"delay": {"h": 0.1}, "solver": {"dt": 0.03}})


def test_coeffs_initial_requires_one_entry_per_mode():
    with pytest.raises(ConfigError, match="one coefficient per mode"):
        parse_config({"initial": {"kind": "coeffs"}})
    rc = parse_config({"operator": {"n_modes": 4},
                       "initial": {"kind": "coeffs",
                                   "coeffs": [0.1, 0.2, 0.3, 0.4]}})
    assert rc.initial["coeffs"] == [0.1, 0.2, 0.3, 0.4]


_SMALL = {
    "operator": {"n_modes": 4},
    "coefficients": {"grid_points": 256, "kernel_scale": 0.2},
    "delay": {"h": 0.05},
    "solver": {"dt": 0.01, "t_end": 2.0},
    "noise": {"spectrum": "geometric", "trace": 2.0},
    "initial": {"kind": "profile", "amplitude": 2.0},
}


def test_builders_reflect_the_parsed_values():
    rc = parse_config(_SMALL)
    op = make_operator(rc)
    assert op.n_modes == 4
    assert op.eigenvalues[0] == pytest.approx(np.pi ** 2, rel=1e-12)

    q = make_noise(rc, op)
    assert q.trace == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(q.lambdas[1:] / q.lambdas[:-1], 0.5)

    q_pow = make_noise(parse_config({"operator": {"n_modes": 4}}), op)
    assert np.allclose(q_pow.lambdas * np.arange(1, 5) ** 2.0, q_pow.lambdas[0])

    cs = make_coefficients(rc)
    # the osgood drift saturates at its cap e^{-2} (2p)^{1/p}; sigma is state-dependent
    assert cs.f(5.0) == math.exp(-2.0) * 6.0 ** (1.0 / 3.0)
    assert cs.sigma_const is None and not cs.f_is_zero
    assert cs.kernel_b.scale == 0.2 and cs.kernel_b.delay_mode == "point"
    assert cs.p == 3.0 and cs.lipschitz_Mg == 0.5
    assert cs.grid_points == 256

    cfg = make_solver_config(rc)
    assert cfg.dt == 0.01 and cfg.n_steps == 200

    seg = make_initial_segment(rc, op)
    assert seg.values.shape == (6, 4)
    # amplitude 2 on the first eigenfunction projects to 2/sqrt(2)
    assert seg.head()[0] == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert abs(seg.head()[1:]).max() < 1e-9

    zero_seg = make_initial_segment(parse_config({"operator": {"n_modes": 4},
                                                  "delay": {"h": 0.05},
                                                  "solver": {"dt": 0.01}}), op)
    assert not zero_seg.values.any()

    coeffs_rc = parse_config({**_SMALL, "initial": {"kind": "coeffs",
                                                    "coeffs": [0.1, 0.2, 0.3, 0.4]}})
    coeffs_seg = make_initial_segment(coeffs_rc, op)
    assert coeffs_seg.values.shape == (6, 4)
    assert np.array_equal(coeffs_seg.values, np.tile([0.1, 0.2, 0.3, 0.4], (6, 1)))


def _resolved(rc):
    """``resolved_dict`` on the operator and noise a run of ``rc`` builds."""
    op = make_operator(rc)
    return resolved_dict(rc, op, make_noise(rc, op))


def test_resolved_dict_reports_derived_quantities():
    rc = parse_config({})
    out = _resolved(rc)
    assert out["coefficients"]["grid_points"] == 128
    der = out["derived"]
    assert der["burn_in"] == pytest.approx(0.2)
    assert der["window_steps"] == 100
    assert der["n_steps"] == 1000
    assert der["mu_1"] == pytest.approx(np.pi ** 2, rel=1e-12)
    assert der["mu_max"] == pytest.approx((32 * np.pi) ** 2, rel=1e-12)
    assert der["delta"] == pytest.approx(0.5 * np.pi ** 2, rel=1e-12)
    assert der["noise_trace"] == pytest.approx(1.0, rel=1e-12)


def test_resolved_dump_reloads_to_identical_resolution(tmp_path):
    rc = parse_config(_SMALL)
    path = tmp_path / "resolved.yaml"
    op = make_operator(rc)
    dump_resolved(rc, path, op, make_noise(rc, op))
    text = path.read_text()
    assert "derived:" in text  # informational block, ignored on reload
    rc2 = load_config(path)
    assert _resolved(rc2) == _resolved(rc)


_TABLE = [[0.0, 1.0], [0.5, 2.0], [1.0, 1.5]]


def test_tabulated_diffusivity_builds_the_library_operator():
    rc = parse_config(yaml.safe_load("operator: {n_modes: 4, a: [[0.0, 1.0], [0.5, 2.0], "
                                     "[1.0, 1.5]]}\n"))
    assert rc.operator["a"] == _TABLE
    assert np.array_equal(make_operator(rc).eigenvalues,
                          assemble_operator(4, a=_TABLE).eigenvalues)


def test_resolved_dump_reads_the_built_run_and_builds_nothing(tmp_path, monkeypatch):
    rc = parse_config({**_SMALL, "operator": {"n_modes": 4, "a": _TABLE}})
    op = make_operator(rc)
    qspec = make_noise(rc, op)
    want = _resolved(rc)

    def refuse(*args, **kwargs):
        raise AssertionError("a resolved dump built a run object")

    for name in ("make_operator", "make_noise", "make_coefficients",
                 "make_solver_config", "make_initial_segment", "SolverConfig"):
        monkeypatch.setattr(config_mod, name, refuse)
    monkeypatch.setattr(config_mod.spectral, "assemble_operator", refuse)
    assert resolved_dict(rc, op, qspec) == want
    assert want["derived"]["mu_1"] == float(op.eigenvalues[0])
    assert want["derived"]["noise_trace"] == float(qspec.trace) == pytest.approx(2.0)
    dump_resolved(rc, tmp_path / "r.yaml", op, qspec)
    assert yaml.safe_load((tmp_path / "r.yaml").read_text()) == want


def test_refused_diffusivity_table_dumps_nothing(tmp_path):
    # a dump reads the built operator, so a table the operator refuses has none
    rc = parse_config({"operator": {"n_modes": 4, "a": [[0.0, 1.0], [1.0, -1.0]]}})
    path = tmp_path / "resolved.yaml"
    with pytest.raises(EllipticityError, match="operator.a = -1 at x = 1 must be positive"):
        op = make_operator(rc)
        dump_resolved(rc, path, op, make_noise(rc, op))
    assert not path.exists()


@pytest.mark.parametrize("table, error, needle", [
    # a dip between the assembly nodes at every n: a(0.5001) = -0.0001
    ([[0.0, 1.0], [0.5001, -0.0001], [1.0, 1.0]], EllipticityError,
     "operator.a = -0.0001 at x = 0.5001 must be positive"),
    ([[0.5, 1.0], [0.2, 1.0]], ConfigError,
     "operator.a: abscissae [0.5, 0.2] must be strictly increasing"),
    ([[0.2, 1.0], [0.2, 2.0]], ConfigError,
     "operator.a: abscissae [0.2, 0.2] must be strictly increasing"),
])
def test_a_refused_diffusivity_table_names_operator_a(table, error, needle):
    rc = parse_config({"operator": {"n_modes": 4, "a": table}})
    with pytest.raises(error, match=re.escape(needle)):
        make_operator(rc)


def test_overrides_are_checked_like_file_values(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 3\nsolver: {segment_stride: 2}\n")
    rc = load_config(path, {"seed": 4, "solver.segment_stride": 5, "solver.mode": "picard"})
    assert (rc.seed, rc.solver["segment_stride"], rc.solver["mode"]) == (4, 5, "picard")
    assert rc.measure["n_trajectories"] == 50   # untouched fields keep the file's
    with pytest.raises(ConfigError, match="solver.segment_stride = -1 must be >= 0"):
        load_config(path, {"solver.segment_stride": -1})
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        load_config(path, {"seed": -1})
    with pytest.raises(ConfigError, match="unknown config key 'measure.thin'"):
        load_config(path, {"measure.thin": 1})
    # the checkpoint stride has one field: the old pooling stride is refused
    path.write_text("measure: {thin: 2}\n")
    with pytest.raises(ConfigError, match="unknown config key 'measure.thin'"):
        load_config(path)


def test_load_config_rejects_bad_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("solver: {dt: [unclosed\n")
    with pytest.raises(ConfigError, match="config parse failure"):
        load_config(path)


def test_readme_configuration_block_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```yaml\n(.*?)```", readme, re.S).group(1)
    assert _resolved(parse_config(yaml.safe_load(block))) == _resolved(parse_config({}))
    listed = set()
    for section, fields in yaml.safe_load(block).items():
        listed |= {f"{section}.{key}" for key in fields} if isinstance(fields, dict) else {section}
    assert listed == set(_FIELDS)


def test_config_defaults_match_the_library():
    # each default the config and a library builder both declare, read from the
    # builder's signature; null grid_points (4 * n_modes) is the one intended difference
    def defaults(fn, section):
        return {f"{section}.{name}": par.default
                for name, par in inspect.signature(fn).parameters.items()
                if par.default is not inspect.Parameter.empty}

    library = {**defaults(assemble_operator, "operator"),
               **defaults(SolverConfig, "solver"),
               **defaults(builtin_coefficients, "coefficients"),
               **defaults(builtin_qwiener, "noise")}
    assert library.pop("coefficients.grid_points") == 128
    assert _FIELDS["coefficients.grid_points"][0] is None
    assert len(library) == 22
    assert {path: (_FIELDS[path][0], want) for path, want in library.items()
            if _FIELDS[path][0] != want} == {}


def test_every_config_field_has_a_reader():
    # a field that nothing reads is a knob that changes nothing: the sections
    # passed whole must name a parameter, every other key must be read by name
    pkg = Path(nsfde.__file__).resolve().parent
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(pkg.rglob("*.py")))
    solver = {f.name for f in dataclasses.fields(SolverConfig)}
    operator = set(inspect.signature(assemble_operator).parameters)
    coefficients = set(inspect.signature(builtin_coefficients).parameters)
    noise = set(inspect.signature(builtin_qwiener).parameters)
    unread = []
    for path in _FIELDS:
        section, _, key = path.rpartition(".")
        if section == "solver":
            read = key in solver
        elif section == "operator":
            read = key in operator
        elif section == "coefficients":
            read = key in coefficients
        elif section == "noise":
            read = key in noise
        elif path == "seed":
            read = "rc.seed" in text
        else:
            read = f'["{key}"]' in text or f'.get("{key}"' in text
        if not read:
            unread.append(path)
    assert unread == []
