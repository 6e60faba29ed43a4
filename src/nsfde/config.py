"""Run configuration: YAML loading, strict validation, resolved dumps.

A config file is a nested mapping with the sections below; every omitted
field takes the documented default and every unknown key is rejected with
its dotted path.  The ``operator`` and ``solver`` sections are the keyword
arguments of ``assemble_operator`` and ``SolverConfig``, and ``initial`` is
the descriptor ``from_initial_condition`` reads; the builders pass them whole.
``resolved_dict`` echoes the fully defaulted config (plus a ``derived``
block of computed quantities, ignored on reload) so that a dumped resolved
config reloads to bit-identical behaviour.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import yaml

from . import coefficients as coeff_mod
from . import noise as noise_mod
from . import spectral
from .errors import ConfigError
from .segment import PROFILES, _window_steps, from_initial_condition
from .solver import SolverConfig

_DEFAULTS = {
    "seed": 12345,
    "operator": {
        "kind": "laplacian_1d",
        "n_modes": 32,
        "a": 1.0,
        "delta_fraction": 0.5,
        "quad_factor": 16,
    },
    "noise": {
        "spectrum": "power",   # power | geometric
        "exponent": 2.0,
        "trace": 1.0,
    },
    "delay": {
        "h": 0.1,
    },
    "coefficients": {
        "f": "osgood",
        "sigma": "osgood",
        "kernel": "separable",     # separable | linear | zero
        "kernel_scale": 0.1,
        "kernel_delay": "point",   # point | instant
        "modulus": "osgood",
        "p": 3.0,
        "Mg": 0.5,
        "K": 1.0,
        "alpha": 0.5,
        "grid_points": None,       # resolved to 4 * n_modes; must exceed 2 * n_modes
    },
    "solver": {
        "dt": 1.0e-3,
        "t_end": 1.0,
        "fp_tol": 1.0e-12,
        "fp_max": 200,
        "mode": "direct",
        "picard_iters": 8,
        "store_stride": 1,
        "segment_stride": 0,
        "blowup_threshold": 1.0e8,
    },
    "measure": {
        "burn_in": None,           # resolved to 2 h
        "thin": 1,
        "n_trajectories": 50,
        "r_grid": [0.5, 1.0, 2.0, 4.0, 8.0],
    },
    "initial": {
        "kind": "zero",            # zero | profile | coeffs
        "profile": "sin_pi",
        "amplitude": 1.0,
        "ramp": False,
        "coeffs": None,
    },
}


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


def _need(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_finite(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def _as_real(data: dict, section: str, key: str, lo=None, hi=None,
             lo_open=True, hi_open=True, allow_none=False):
    val = data[section][key]
    if val is None and allow_none:
        return
    where = f"{section}.{key}"
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where} must be a number")
    val = float(val)
    _need(math.isfinite(val), f"{where} = {val!r} must be finite")
    if lo is not None:
        _need(val > lo if lo_open else val >= lo,
              f"{where} = {val!r} out of range")
    if hi is not None:
        _need(val < hi if hi_open else val <= hi,
              f"{where} = {val!r} out of range")
    data[section][key] = val


def _as_int(data: dict, section: str, key: str, lo: int):
    val = data[section][key]
    where = f"{section}.{key}"
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where} must be an integer")
    _need(val >= lo, f"{where} = {val} must be >= {lo}")


def _choice(data: dict, section: str, key: str, allowed):
    val = data[section][key]
    _need(val in allowed,
          f"{section}.{key} = {val!r} not one of {sorted(allowed)}")


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

    if isinstance(data["seed"], bool) or not isinstance(data["seed"], int):
        raise ConfigError("seed must be an integer")
    _need(data["seed"] >= 0, "seed must be nonnegative")
    _need(data["seed"] < noise_mod.SOURCE_LIMIT, f"seed = {data['seed']} must be < 2**63")

    _choice(data, "operator", "kind", {"laplacian_1d"})
    _as_int(data, "operator", "n_modes", 1)
    _as_real(data, "operator", "delta_fraction", lo=0.0, hi=1.0)
    _as_int(data, "operator", "quad_factor", 2)
    a = data["operator"]["a"]
    if isinstance(a, (int, float)) and not isinstance(a, bool):
        _need(0.0 < float(a) < math.inf, "operator.a must be positive and finite")
        data["operator"]["a"] = float(a)
    elif isinstance(a, list):
        _need(len(a) >= 2 and all(isinstance(r, list) and len(r) == 2
                                  and _is_finite(r[0]) and _is_finite(r[1]) for r in a),
              "operator.a must be a number or a list of [x, a(x)] pairs of finite numbers")
    else:
        raise ConfigError("operator.a must be a number or a list of [x, a(x)] pairs")

    _choice(data, "noise", "spectrum", {"power", "geometric"})
    _as_real(data, "noise", "exponent", lo=1.0)
    _as_real(data, "noise", "trace", lo=0.0)

    _as_real(data, "delay", "h", lo=0.0)

    _choice(data, "coefficients", "f", set(coeff_mod._SCALARS))
    _choice(data, "coefficients", "sigma", set(coeff_mod._SCALARS))
    _choice(data, "coefficients", "kernel", {"separable", "linear", "zero"})
    _as_real(data, "coefficients", "kernel_scale", lo=0.0, lo_open=False)
    _choice(data, "coefficients", "kernel_delay", {"point", "instant"})
    _choice(data, "coefficients", "modulus", set(coeff_mod._MODULI))
    _as_real(data, "coefficients", "p", lo=2.0)
    _as_real(data, "coefficients", "Mg", lo=0.0, hi=1.0)
    _as_real(data, "coefficients", "K", lo=0.0)
    _as_real(data, "coefficients", "alpha", lo=0.0, hi=1.0, hi_open=False)
    gp = data["coefficients"]["grid_points"]
    if gp is not None:
        _as_int(data, "coefficients", "grid_points", 4)
        _need(gp % 2 == 0, "coefficients.grid_points must be even")

    _as_real(data, "solver", "dt", lo=0.0)
    _as_real(data, "solver", "t_end", lo=0.0)
    _as_real(data, "solver", "fp_tol", lo=0.0)
    _as_int(data, "solver", "fp_max", 1)
    _choice(data, "solver", "mode", {"direct", "picard"})
    _as_int(data, "solver", "picard_iters", 1)
    _as_int(data, "solver", "store_stride", 1)
    _as_int(data, "solver", "segment_stride", 0)
    _as_real(data, "solver", "blowup_threshold", lo=0.0)

    _as_real(data, "measure", "burn_in", lo=0.0, lo_open=False, allow_none=True)
    _as_int(data, "measure", "thin", 1)
    _as_int(data, "measure", "n_trajectories", 1)
    r_grid = data["measure"]["r_grid"]
    _need(isinstance(r_grid, list) and len(r_grid) >= 1
          and all(_is_finite(r) and r >= 0.0 for r in r_grid),
          "measure.r_grid must be a nonempty list of finite nonnegative radii")
    data["measure"]["r_grid"] = [float(r) for r in r_grid]

    _choice(data, "initial", "kind", {"zero", "profile", "coeffs"})
    _choice(data, "initial", "profile", set(PROFILES))
    _as_real(data, "initial", "amplitude")
    _need(isinstance(data["initial"]["ramp"], bool), "initial.ramp must be a boolean")
    if data["initial"]["kind"] == "coeffs":
        coeffs = data["initial"]["coeffs"]
        _need(isinstance(coeffs, list) and len(coeffs) == data["operator"]["n_modes"]
              and all(_is_finite(c) for c in coeffs),
              "initial.coeffs must list one coefficient per mode, each a finite number")

    # cross-field: the window must hold an integer number of steps, and the
    # quadrature grid must resolve products of the retained modes
    _window_steps(data["delay"]["h"], data["solver"]["dt"], "delay.h / solver.dt")
    n_modes = data["operator"]["n_modes"]
    _need(gp is None or gp > 2 * n_modes,
          f"coefficients.grid_points = {gp} must exceed 2 * operator.n_modes = {2 * n_modes}")

    return RunConfig(**data)


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
    c = rc.coefficients
    return coeff_mod.builtin_coefficients(
        f=c["f"], sigma=c["sigma"], kernel=c["kernel"],
        kernel_scale=c["kernel_scale"], kernel_delay=c["kernel_delay"],
        modulus=c["modulus"], p=c["p"], Mg=c["Mg"], growth_K=c["K"],
        grid_points=rc.grid_points())


def make_solver_config(rc: RunConfig) -> SolverConfig:
    return SolverConfig(**rc.solver)


def make_initial_segment(rc: RunConfig, op):
    return from_initial_condition(rc.initial, rc.h, rc.dt, op, n_grid=rc.grid_points())


def resolved_dict(rc: RunConfig) -> dict:
    """Fully defaulted config plus a ``derived`` block of computed values."""
    op = make_operator(rc)
    out = asdict(rc)
    out["coefficients"]["grid_points"] = rc.grid_points()
    out["measure"]["burn_in"] = rc.burn_in()
    out["derived"] = {
        "window_steps": _window_steps(rc.h, rc.dt),
        "n_steps": make_solver_config(rc).n_steps,
        "mu_1": float(op.eigenvalues[0]),
        "mu_max": float(op.eigenvalues[-1]),
        "delta": float(op.delta),
        "noise_trace": float(make_noise(rc, op).trace),
    }
    return out


def dump_resolved(rc: RunConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(resolved_dict(rc), fh, sort_keys=False)
