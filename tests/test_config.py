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
from nsfde import (ConfigError, EllipticityError, RngStream, SolverConfig, assemble_operator,
                   builtin_coefficients, builtin_qwiener, from_initial_condition,
                   load_config, make_coefficients, make_initial_segment, make_noise,
                   make_operator, make_solver_config, parse_config, resolved_dict)
from nsfde.config import _CHECKS, _DEFAULTS, dump_resolved


def _flatten(defaults):
    """Every config field's dotted path with its default, in declaration order."""
    out = {}
    for section, fields in defaults.items():
        if isinstance(fields, dict):
            out.update({f"{section}.{key}": val for key, val in fields.items()})
        else:
            out[section] = fields
    return out


FIELDS = _flatten(_DEFAULTS)


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
    with pytest.raises(ConfigError, match="unknown config key 'initial.profle'"):
        parse_config({"initial": {"kind": "profile", "profle": "bump"}})
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
    ({"seed": -4}, "seed = -4 must be >= 0"),
    ({"initial": {"ramp": 1}}, "initial.ramp must be a boolean"),
    ({"solver": {"mode": "euler"}}, "not one of"),
    ({"solver": {"store_stride": 0}}, "solver.store_stride"),
    ({"coefficients": {"grid_points": 33}},
     "coefficients.grid_points = 33 must exceed 2 * operator.n_modes = 64"),
    ({"coefficients": {"grid_points": 2}},
     "coefficients.grid_points = 2 must exceed 2 * operator.n_modes = 64"),
    # listed here, not last, so that the automatic ids of the cases below stay put
    ({"solver": {"t_end": 0.2}, "measure": {"burn_in": 0.2}},
     "measure.burn_in = 0.2 must be < solver.t_end = 0.2"),
    ({"measure": {"r_grid": []}}, "measure.r_grid"),
    ({"measure": {"r_grid": [1.0, -2.0]}}, "measure.r_grid"),
    ({"operator": {"a": -1.0}}, "operator.a = -1.0 must be positive"),
    ({"operator": {"a": "piecewise"}}, "operator.a must be a number"),
    ({"operator": {"a": [[0.0, 1.0]]}}, "operator.a must be a number"),
    ({"operator": {"a": float("inf")}}, "operator.a = inf must be positive and finite"),
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
    ({"solver": {"t_end": 0.0005}},
     "solver.t_end / solver.dt = 0.5 must be a positive integer"),
    ({"noise": {"spectrum": ["power"]}}, "noise.spectrum = ['power'] not one of"),
    ({"coefficients": {"K": 0}}, "coefficients.K = 0.0 out of range (0, inf)"),
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
    *[(_patch(path, _wrong_kind(default)), path) for path, default in FIELDS.items()],
    ({"coefficients": {"kernel": "zero", "kernel_delay": "mid"}}, "coefficients.kernel_delay"),
], ids=[*FIELDS, "kernel_delay_without_kernel"])
def test_every_field_refuses_a_value_of_the_wrong_kind(patch, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config(patch)


def _refusal(path, val, **context):
    """A case setting ``path`` to ``val``, with the fields ``context`` gives (section -> keys)."""
    section, _, key = path.rpartition(".")
    patch = {name: dict(fields) for name, fields in context.items()}
    (patch.setdefault(section, {}) if section else patch)[key] = val
    return pytest.param(path, patch, id=f"{path}={val!r}")


_NAN = float("nan")
_REFUSALS = [
    _refusal("seed", -1),
    _refusal("seed", 2**63),
    _refusal("seed", 1.5),
    _refusal("operator.n_modes", 4.5),
    _refusal("operator.n_modes", 0),
    _refusal("operator.a", -1.0),
    _refusal("operator.a", "piecewise"),
    _refusal("operator.a", [[0.0, 1.0], [1.0, _NAN]]),
    _refusal("operator.a", [[0.0, 1.0], [1.0, -1.0]]),   # a table needs no eigensolve to refuse
    _refusal("operator.a", [[0.5, 1.0], [0.2, 1.0]]),
    _refusal("operator.delta_fraction", "0.5"),
    _refusal("operator.delta_fraction", 1.0),
    _refusal("noise.spectrum", "white"),
    _refusal("noise.exponent", "3"),
    _refusal("noise.exponent", 1.0),
    _refusal("noise.exponent", _NAN),
    _refusal("noise.trace", True),
    _refusal("noise.trace", -1.0),
    _refusal("noise.trace", None),
    _refusal("coefficients.f", "cubic"),
    _refusal("coefficients.sigma", "cubic"),
    _refusal("coefficients.kernel", "rbf"),
    _refusal("coefficients.kernel_scale", -1.0),
    _refusal("coefficients.kernel_scale", "0.1"),
    _refusal("coefficients.kernel_delay", "mid", coefficients={"kernel": "zero"}),
    _refusal("coefficients.modulus", "quadratic"),
    _refusal("coefficients.p", "3"),
    _refusal("coefficients.p", 2.0),
    _refusal("coefficients.Mg", 1.2),
    _refusal("coefficients.Mg", 0.8),
    _refusal("coefficients.K", True),
    _refusal("coefficients.K", 0),
    _refusal("coefficients.grid_points", 128.5),
    _refusal("coefficients.grid_points", 130.0),
    _refusal("coefficients.grid_points", 129),
    _refusal("solver.dt", "x", solver={"t_end": 1}),
    _refusal("solver.dt", 0.0),
    _refusal("solver.t_end", 0.0005),
    _refusal("solver.t_end", _NAN),
    _refusal("solver.fp_tol", _NAN),
    _refusal("solver.fp_max", 50.5),
    _refusal("solver.mode", "euler"),
    _refusal("solver.picard_iters", 0),
    _refusal("solver.store_stride", True),
    _refusal("solver.segment_stride", -1),
    _refusal("solver.blowup_threshold", -1.0),
    _refusal("initial.kind", "wavelet"),
    _refusal("initial.profile", "nope"),
    _refusal("initial.amplitude", "3", initial={"kind": "profile"}),
    _refusal("initial.ramp", 1, initial={"kind": "profile"}),
    _refusal("initial.coeffs", [_NAN] * 4, operator={"n_modes": 4}, initial={"kind": "coeffs"}),
    _refusal("initial.coeffs", [0.1], operator={"n_modes": 4}, initial={"kind": "coeffs"}),
    _refusal("initial.coeffs", [_NAN]),   # whatever the kind
]

# the library builder of each section, on the section's keys and the mode count
_BUILDERS = {
    "seed": lambda seed, n: RngStream(seed),
    "operator": lambda keys, n: assemble_operator(**keys),
    "noise": lambda keys, n: builtin_qwiener(n, **keys),
    "coefficients": lambda keys, n: builtin_coefficients(**keys),
    "solver": lambda keys, n: SolverConfig(**{"dt": 1.0e-3, "t_end": 1.0, **keys}),
    "initial": lambda keys, n: from_initial_condition(0.1, 1.0e-3, assemble_operator(n).grid(),
                                                      **keys),
}


@pytest.mark.parametrize("path, patch", _REFUSALS)
def test_the_config_and_the_builder_refuse_a_field_alike(path, patch):
    # each builder is the one checker of its fields, and loading a config runs that check
    section = path.partition(".")[0]
    with pytest.raises(ConfigError) as by_config:
        parse_config(patch)
    with pytest.raises(ConfigError) as by_builder:
        _BUILDERS[section](patch[section], patch.get("operator", {}).get("n_modes", 32))
    message = str(by_builder.value)
    assert str(by_config.value) == message
    assert message.startswith(path)


def test_the_table_checks_only_the_fields_no_builder_takes():
    checked = set(_CHECKS)
    assert checked == {"delay.h", "measure.burn_in", "measure.n_trajectories", "measure.r_grid"}
    # every field a builder takes has a case above
    assert {case.values[0] for case in _REFUSALS} == set(FIELDS) - checked


_HUGE = 10**400   # a 401-digit YAML integer loads as this; float() overflows on it


@pytest.mark.parametrize("patch, path", [
    ({"noise": {"trace": _HUGE}}, "noise.trace"),
    ({"delay": {"h": _HUGE}}, "delay.h"),
    ({"measure": {"r_grid": [1.0, _HUGE]}}, "measure.r_grid"),
    ({"initial": {"coeffs": [_HUGE]}}, "initial.coeffs"),
    ({"operator": {"a": _HUGE}}, "operator.a"),
    ({"operator": {"a": [[0.0, 1.0], [1.0, _HUGE]]}}, "operator.a"),
], ids=["noise.trace", "delay.h", "measure.r_grid", "initial.coeffs", "operator.a",
        "operator.a-table"])
def test_an_integer_past_the_double_range_is_not_finite(patch, path):
    with pytest.raises(ConfigError) as refused:
        parse_config(patch)
    assert str(refused.value).startswith(path)
    assert "finite" in str(refused.value)


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
    path = tmp_path / "resolved.yaml"
    with pytest.raises(EllipticityError, match="operator.a = -1 at x = 1 must be positive"):
        rc = parse_config({"operator": {"n_modes": 4, "a": [[0.0, 1.0], [1.0, -1.0]]}})
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
    with pytest.raises(error, match=re.escape(needle)):
        make_operator(parse_config({"operator": {"n_modes": 4, "a": table}}))


def test_overrides_are_checked_like_file_values(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: 3\nsolver: {segment_stride: 2}\n")
    rc = load_config(path, {"seed": 4, "solver.segment_stride": 5, "solver.mode": "picard"})
    assert (rc.seed, rc.solver["segment_stride"], rc.solver["mode"]) == (4, 5, "picard")
    assert rc.measure["n_trajectories"] == 50   # untouched fields keep the file's
    with pytest.raises(ConfigError, match="solver.segment_stride = -1 must be >= 0"):
        load_config(path, {"solver.segment_stride": -1})
    with pytest.raises(ConfigError, match="seed = -1 must be >= 0"):
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
    assert listed == set(FIELDS)

    # the block lists sections and keys in the order a resolved dump writes them,
    # which follows the builders' signatures
    def order(mapping):
        return [(name, list(val) if isinstance(val, dict) else None)
                for name, val in mapping.items() if name != "derived"]

    assert order(yaml.safe_load(block)) == order(_resolved(parse_config({})))


def test_every_config_field_has_a_reader():
    # a field that nothing reads is a knob that changes nothing: the sections
    # passed whole must name a parameter, every other key must be read by name
    pkg = Path(nsfde.__file__).resolve().parent
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(pkg.rglob("*.py")))
    params = {section: set(inspect.signature(builder).parameters) for section, builder in (
        ("operator", assemble_operator), ("coefficients", builtin_coefficients),
        ("noise", builtin_qwiener), ("initial", from_initial_condition))}
    params["solver"] = {f.name for f in dataclasses.fields(SolverConfig)}
    unread = []
    for path in FIELDS:
        section, _, key = path.rpartition(".")
        if section in params:
            read = key in params[section]
        elif path == "seed":
            read = "rc.seed" in text
        else:
            read = f'["{key}"]' in text or f'.get("{key}"' in text
        if not read:
            unread.append(path)
    assert unread == []
