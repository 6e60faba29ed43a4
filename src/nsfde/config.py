"""Run configuration: YAML loading, strict validation, resolved dumps.

A config file is a nested mapping with the sections below; every omitted field
takes the documented default and every unknown key is rejected with its dotted
path.  ``_FIELDS`` declares each field once, with its default and check.
Where a constructor checks a range on every path, the table checks only the
type (``parse_config`` builds ``SolverConfig`` and the coefficient set, so a
library caller is refused at once); the table checks the other ranges, and the
library builders check those of ``operator.n_modes``, ``delta_fraction``,
``noise.*``, ``seed`` and ``initial.*`` again for callers that load no config.
Every refusal names the dotted path.  The ``operator``, ``coefficients`` and
``solver`` sections go whole to ``assemble_operator``, ``builtin_coefficients``
and ``SolverConfig``, and ``initial`` to ``from_initial_condition``.  Each run
setting has one field: ``solver.segment_stride`` is the checkpoint stride the
solver records at and ``estimate-measure`` pools at.
``resolved_dict`` echoes the fully defaulted config, plus a ``derived`` block
read from the run's built operator and noise (ignored on reload), so that a
dumped resolved config reloads to bit-identical behaviour.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import yaml

from . import coefficients as coeff_mod
from . import noise as noise_mod
from . import spectral
from .errors import ConfigError, check_choice, check_count
from .segment import PROFILES, _window_steps, from_initial_condition
from .solver import SolverConfig


@dataclass(eq=False)
class RunConfig:
    seed: int
    operator: dict
    noise: dict
    delay: dict
    coefficients: dict
    solver: dict
    measure: dict
    initial: dict

    @property
    def h(self) -> float:
        return self.delay["h"]

    @property
    def dt(self) -> float:
        return self.solver["dt"]

    def grid_points(self) -> int:
        gp = self.coefficients["grid_points"]
        return int(gp) if gp is not None else 4 * self.operator["n_modes"]

    def burn_in(self) -> float:
        b = self.measure["burn_in"]
        return float(b) if b is not None else 2.0 * self.h


def _need(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_finite(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


# Field checks: each takes the dotted path and the value, raises ConfigError
# naming the path, and returns the value as stored (numbers as floats).

def _number(lo=None, hi=None, lo_open=True, hi_open=True):
    def check(where, val):
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{where} must be a number")
        val = float(val)
        _need(math.isfinite(val), f"{where} = {val!r} must be finite")
        _need((lo is None or (val > lo if lo_open else val >= lo))
              and (hi is None or (val < hi if hi_open else val <= hi)),
              f"{where} = {val!r} out of range")
        return val
    return check


def _integer(lo=None):
    return lambda where, val: check_count(where, val, lo)


def _optional(check):
    return lambda where, val: None if val is None else check(where, val)


def _one_of(*allowed):
    return lambda where, val: check_choice(where, val, allowed)


def _seed(where, val):
    val = check_count(where, val)
    _need(val >= 0, "seed must be nonnegative")
    _need(val < noise_mod.SOURCE_LIMIT, f"seed = {val} must be < 2**63")
    return val


def _diffusivity(where, a):
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        _need(0.0 < float(a) < math.inf, "operator.a must be positive and finite")
        return float(a)
    if not isinstance(a, list):
        raise ConfigError("operator.a must be a number or a list of [x, a(x)] pairs")
    _need(len(a) >= 2 and all(isinstance(r, list) and len(r) == 2
                              and _is_finite(r[0]) and _is_finite(r[1]) for r in a),
          "operator.a must be a number or a list of [x, a(x)] pairs of finite numbers")
    return a


def _radii(where, r_grid):
    _need(isinstance(r_grid, list) and len(r_grid) >= 1
          and all(_is_finite(r) and r >= 0.0 for r in r_grid),
          "measure.r_grid must be a nonempty list of finite nonnegative radii")
    return [float(r) for r in r_grid]


def _flag(where, val):
    _need(isinstance(val, bool), f"{where} must be a boolean")
    return val


_COEFFS_MSG = "initial.coeffs must list one coefficient per mode, each a finite number"


def _coeffs(where, val):
    _need(val is None or isinstance(val, list) and all(_is_finite(c) for c in val),
          _COEFFS_MSG)
    return val


# Every config field: dotted path -> (default, check).  The constructors that
# ``parse_config`` calls check the rest: ``SolverConfig`` the ranges of
# ``solver.*`` and ``solver.mode``, ``builtin_coefficients``/``CoefficientSet``
# the coefficient names and the ranges of p, Mg, K and grid_points, so here
# those fields have their type checked, or nothing.  Ranges stay here for
# ``noise.*`` (its builders raise DomainError), ``operator.*`` (building it
# runs an eigensolver) and ``coefficients.kernel_delay`` (no kernel reads it
# when ``kernel: zero``).
_FIELDS = {
    "seed": (12345, _seed),
    "operator.n_modes": (32, _integer(1)),
    "operator.a": (1.0, _diffusivity),
    "operator.delta_fraction": (0.5, _number(0.0, 1.0)),
    "noise.spectrum": ("power", _one_of("power", "geometric")),
    "noise.exponent": (2.0, _number(1.0)),
    "noise.trace": (1.0, _number(0.0)),
    "delay.h": (0.1, _number(0.0)),
    "coefficients.f": ("osgood", None),
    "coefficients.sigma": ("osgood", None),
    "coefficients.kernel": ("separable", None),
    "coefficients.kernel_scale": (0.1, _number(0.0, lo_open=False)),
    "coefficients.kernel_delay": ("point", _one_of("point", "instant")),
    "coefficients.modulus": ("osgood", None),
    "coefficients.p": (3.0, _number()),
    "coefficients.Mg": (0.5, _number()),
    "coefficients.K": (1.0, _number()),
    "coefficients.grid_points": (None, _optional(_integer())),  # None: 4 * n_modes
    "solver.dt": (1.0e-3, _number()),
    "solver.t_end": (1.0, _number()),
    "solver.fp_tol": (1.0e-12, _number()),
    "solver.fp_max": (200, _integer()),
    "solver.mode": ("direct", None),
    "solver.picard_iters": (8, _integer()),
    "solver.store_stride": (1, _integer()),
    "solver.segment_stride": (0, _integer()),
    "solver.blowup_threshold": (1.0e8, _number()),
    "measure.burn_in": (None, _optional(_number(0.0, lo_open=False))),  # None: 2 h
    "measure.n_trajectories": (50, _integer(1)),
    "measure.r_grid": ([0.5, 1.0, 2.0, 4.0, 8.0], _radii),
    "initial.kind": ("zero", _one_of("zero", "profile", "coeffs")),
    "initial.profile": ("sin_pi", _one_of(*PROFILES)),
    "initial.amplitude": (1.0, _number()),
    "initial.ramp": (False, _flag),
    "initial.coeffs": (None, _coeffs),
}


def _nest(fields: dict) -> dict:
    out: dict = {}
    for path, (default, _) in fields.items():
        section, _, key = path.rpartition(".")
        (out.setdefault(section, {}) if section else out)[key] = default
    return out


_DEFAULTS = _nest(_FIELDS)


def _merge(defaults: dict, user: dict, path: str) -> dict:
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config section {where!r} must be a mapping")
            out[key] = _merge(defaults[key], val, where)
        else:
            out[key] = val
    return out


def parse_config(raw, overrides=None) -> RunConfig:
    """Validate a config mapping (or YAML text) against the full schema;
    ``overrides`` maps ``seed`` or ``section.key`` to values set before checking."""
    if isinstance(raw, str):
        raw = yaml.safe_load(raw)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    raw = dict(raw)
    raw.pop("derived", None)  # round-trip convenience: resolved dumps carry it
    data = _merge(_DEFAULTS, raw, "")
    for name, val in (overrides or {}).items():
        section, _, key = name.rpartition(".")
        data = _merge(data, {section: {key: val}} if section else {key: val}, "")

    for path, (_, check) in _FIELDS.items():
        if check is not None:
            section, _, key = path.rpartition(".")
            fields = data[section] if section else data
            fields[key] = check(path, fields[key])

    # cross-field: the window must hold an integer number of steps, the
    # constructors check their ranges, a set burn-in must end before the run,
    # and the quadrature grid must resolve products of the retained modes
    _window_steps(data["delay"]["h"], data["solver"]["dt"], "delay.h / solver.dt")
    rc = RunConfig(**data)
    make_solver_config(rc)
    make_coefficients(rc)
    burn_in, t_end = rc.measure["burn_in"], rc.solver["t_end"]
    _need(burn_in is None or burn_in < t_end,
          f"measure.burn_in = {burn_in} must be < solver.t_end = {t_end}")
    n_modes = rc.operator["n_modes"]
    gp = rc.coefficients["grid_points"]
    _need(gp is None or gp > 2 * n_modes,
          f"coefficients.grid_points = {gp} must exceed 2 * operator.n_modes = {2 * n_modes}")
    _need(rc.initial["kind"] != "coeffs" or rc.initial["coeffs"] is not None
          and len(rc.initial["coeffs"]) == n_modes, _COEFFS_MSG)
    return rc


def load_config(path, overrides=None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse failure in {path}: {exc}") from None
    return parse_config(raw, overrides)


# ---------------------------------------------------------------------------
# builders


def make_operator(rc: RunConfig):
    return spectral.assemble_operator(**rc.operator)


def make_noise(rc: RunConfig, op) -> noise_mod.QWienerSpec:
    if rc.noise["spectrum"] == "power":
        return noise_mod.power_qwiener(op.n_modes, exponent=rc.noise["exponent"],
                                       trace_target=rc.noise["trace"])
    return noise_mod.geometric_qwiener(op.n_modes, trace_target=rc.noise["trace"])


def make_coefficients(rc: RunConfig) -> coeff_mod.CoefficientSet:
    return coeff_mod.builtin_coefficients(**dict(rc.coefficients, grid_points=rc.grid_points()))


def make_solver_config(rc: RunConfig) -> SolverConfig:
    return SolverConfig(**rc.solver)


def make_initial_segment(rc: RunConfig, op):
    return from_initial_condition(rc.initial, rc.h, rc.dt, op, n_grid=rc.grid_points())


def resolved_dict(rc: RunConfig, op, qspec: noise_mod.QWienerSpec) -> dict:
    """Fully defaulted config plus a ``derived`` block read from the built run."""
    out = asdict(rc)
    out["coefficients"]["grid_points"] = rc.grid_points()
    out["derived"] = {
        "burn_in": rc.burn_in(),   # measure.burn_in echoes the config: null reloads
        "window_steps": _window_steps(rc.h, rc.dt),
        "n_steps": _window_steps(rc.solver["t_end"], rc.dt),
        "mu_1": float(op.eigenvalues[0]),
        "mu_max": float(op.eigenvalues[-1]),
        "delta": float(op.delta),
        "noise_trace": float(qspec.trace),
    }
    return out


def dump_resolved(rc: RunConfig, path, op, qspec: noise_mod.QWienerSpec):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(resolved_dict(rc, op, qspec), fh, sort_keys=False)
