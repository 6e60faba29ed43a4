"""Run configuration: YAML loading, strict validation, resolved dumps.

A config file is a nested mapping with the sections below; every omitted field
takes its default and every unknown key is rejected with its dotted path.  The
``operator``, ``coefficients``, ``noise`` and ``solver`` sections go whole to
``assemble_operator``, ``builtin_coefficients``, ``builtin_qwiener`` and
``SolverConfig``, and ``initial`` to ``from_initial_condition``.  A section
passed whole to a builder takes that builder's defaults, and the builder is the
one checker of its fields; ``parse_config`` runs those checks, and
``RngStream``'s on the seed, so a config is refused when it loads.  ``_CHECKS``
checks only the fields no builder takes: ``delay.h``, ``measure.burn_in``,
``measure.n_trajectories`` and ``measure.r_grid``.  Every refusal names the
dotted path.  Each run setting has one field: ``solver.segment_stride`` is the
checkpoint stride the solver records at and ``estimate-measure`` pools at.
``resolved_dict`` echoes the fully defaulted config, plus a ``derived`` block
read from the run's built operator and noise (ignored on reload), so that a
dumped resolved config reloads to bit-identical behaviour.
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import asdict, dataclass
from functools import partial

import yaml

from . import coefficients as coeff_mod
from . import noise as noise_mod
from . import spectral
from .errors import ConfigError, check_count, check_number, is_finite
from .segment import _check_initial, _window_steps, from_initial_condition
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
        return gp if gp is not None else 4 * self.operator["n_modes"]

    def burn_in(self) -> float:
        b = self.measure["burn_in"]
        return float(b) if b is not None else 2.0 * self.h


def _need(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _radii(where, r_grid):
    _need(isinstance(r_grid, list) and len(r_grid) >= 1
          and all(is_finite(r) and r >= 0.0 for r in r_grid),
          "measure.r_grid must be a nonempty list of finite nonnegative radii")
    return [float(r) for r in r_grid]


def _defaults(builder) -> dict:
    """The keyword defaults of ``builder``'s signature, in signature order."""
    return {name: par.default for name, par in inspect.signature(builder).parameters.items()
            if par.default is not inspect.Parameter.empty}


# Every config field with its default.  A section passed whole to a builder
# takes that builder's defaults; solver.dt and t_end have no library default,
# and a null grid_points means 4 * n_modes, a null burn_in 2 h.
_DEFAULTS = {
    "seed": 12345,
    "operator": _defaults(spectral.assemble_operator),
    "noise": _defaults(noise_mod.builtin_qwiener),
    "delay": {"h": 0.1},
    "coefficients": {**_defaults(coeff_mod.builtin_coefficients), "grid_points": None},
    "solver": {"dt": 1.0e-3, "t_end": 1.0, **_defaults(SolverConfig)},
    "measure": {"burn_in": None, "n_trajectories": 50, "r_grid": [0.5, 1.0, 2.0, 4.0, 8.0]},
    "initial": _defaults(from_initial_condition),
}

# The checks of the fields no builder takes: each raises ConfigError naming the
# path and returns the value as stored (numbers as floats).
_CHECKS = {
    "delay.h": partial(check_number, lo=0.0),
    "measure.burn_in": lambda where, val:
        None if val is None else check_number(where, val, 0.0, lo_open=False),
    "measure.n_trajectories": partial(check_count, lo=1),
    "measure.r_grid": _radii,
}


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
    """Validate a config mapping (``load_config`` reads one from YAML) against the full
    schema; ``overrides`` maps ``seed`` or ``section.key`` to values set before checking."""
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

    data["seed"] = int(noise_mod.RngStream(data["seed"]).seed)   # the stream checks its seed
    for path, check in _CHECKS.items():
        section, _, key = path.partition(".")
        data[section][key] = check(path, data[section][key])

    # the builders check their fields, with no assembly or projection; across
    # fields, the window must hold a whole number of steps (refused before the
    # run's step count, so dt is checked first, as SolverConfig checks it), the
    # quadrature grid must resolve products of the retained modes (checked before
    # the coefficient set's own N-free bound), and a set burn-in must end before the run
    dt = check_number("solver.dt", data["solver"]["dt"], 0.0)
    _window_steps(data["delay"]["h"], dt, "delay.h / solver.dt")
    rc = RunConfig(**data)
    make_solver_config(rc)
    spectral._check_operator_args(**rc.operator)
    spectral._check_grid_points(rc.grid_points(), rc.operator["n_modes"])
    make_coefficients(rc)
    noise_mod.builtin_qwiener(rc.operator["n_modes"], **rc.noise)
    _check_initial(rc.operator["n_modes"], **rc.initial)
    burn_in, t_end = rc.measure["burn_in"], rc.solver["t_end"]
    _need(burn_in is None or burn_in < t_end,
          f"measure.burn_in = {burn_in} must be < solver.t_end = {t_end}")
    return rc


def load_config(path, overrides=None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except (yaml.YAMLError, ValueError) as exc:   # ValueError: an integer past 4300 digits
            raise ConfigError(f"config parse failure in {path}: {exc}") from None
    return parse_config(raw, overrides)


# ---------------------------------------------------------------------------
# builders


def make_operator(rc: RunConfig):
    return spectral.assemble_operator(**rc.operator)


def make_noise(rc: RunConfig, op) -> noise_mod.QWienerSpec:
    return noise_mod.builtin_qwiener(op.n_modes, **rc.noise)


def make_coefficients(rc: RunConfig) -> coeff_mod.CoefficientSet:
    return coeff_mod.builtin_coefficients(**dict(rc.coefficients, grid_points=rc.grid_points()))


def make_solver_config(rc: RunConfig) -> SolverConfig:
    return SolverConfig(**rc.solver)


def make_initial_segment(rc: RunConfig, op):
    return from_initial_condition(rc.h, rc.dt, op.grid(rc.grid_points()), **rc.initial)


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
