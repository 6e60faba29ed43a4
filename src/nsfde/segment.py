"""Delay-segment buffers: the discrete history window u_t on [-h, 0].

A window stores mode coefficients at the m + 1 grid offsets
theta_j = -h + j dt (so values[0] is the oldest node and values[m] the
current state).  ``Segment`` is one validated window, the input of a run; a
stack of S windows on one grid (checkpoints, a pooled measure) is a plain
``(S, m + 1, N)`` array.  The sup norm is taken over the stored nodes, and
the coefficient functionals read nodes only: nothing interpolates between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .spectral import SpectralOperator

_RATIO_TOL = 1e-9

PROFILES = {
    "sin_pi": lambda x: np.sin(np.pi * x),
    "sin_2pi": lambda x: np.sin(2.0 * np.pi * x),
    "bump": lambda x: np.exp(-((x - 0.5) / 0.15) ** 2),
}


def _window_steps(h: float, dt: float, name: str = "delay/step ratio h/dt") -> int:
    """The whole number of steps dt in the span h; ``name`` labels the ratio in errors."""
    if not (h > 0.0 and dt > 0.0 and math.isfinite(h / dt)):
        raise ConfigError(f"{name}: span {h!r} and step {dt!r} must be positive and finite")
    ratio = h / dt
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > _RATIO_TOL * max(1.0, ratio):
        raise ConfigError(f"{name} = {ratio!r} must be a positive integer")
    return m


@dataclass(eq=False)
class Segment:
    """History window: values[j] holds the mode coefficients of u(t - h + j dt)."""

    h: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        m = _window_steps(self.h, self.dt)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ShapeError("segment values must be a (m + 1, n_modes) array")
        if self.values.shape[0] != m + 1:
            raise ShapeError(
                f"segment stores {self.values.shape[0]} nodes but h/dt = {m} needs {m + 1}")

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def head(self) -> np.ndarray:
        """Current state u(t) (the newest node)."""
        return self.values[-1]


def sup_norm(values: np.ndarray) -> np.ndarray:
    """sup over the stored window nodes of the H-norm ||u(t + theta)||, for one
    window or a stack: ``values`` has shape ``(..., m + 1, N)``."""
    return np.linalg.norm(values, axis=-1).max(axis=-1)


def zero_segment(h: float, dt: float, n_modes: int) -> Segment:
    return constant_segment(h, dt, np.zeros(n_modes))


def constant_segment(h: float, dt: float, coeffs) -> Segment:
    coeffs = np.asarray(coeffs, dtype=float)
    m = _window_steps(h, dt)
    return Segment(h=h, dt=dt, values=np.tile(coeffs, (m + 1, 1)))


def from_initial_condition(phi, h: float, dt: float, op: SpectralOperator,
                           n_grid: int | None = None) -> Segment:
    """Sample and project an initial trajectory onto the discrete window.

    ``phi`` may be a callable ``phi(theta, x) -> field`` sampled at the window
    nodes, or a descriptor dict: ``{"kind": "zero"}``,
    ``{"kind": "coeffs", "coeffs": v}`` (mode coefficients held constant in
    theta) or
    ``{"kind": "profile", "profile": name_or_callable, "amplitude": a, "ramp": bool}``
    where ``ramp`` scales the profile by (1 + theta / h), vanishing at -h.
    """
    m = _window_steps(h, dt)
    thetas = -h + dt * np.arange(m + 1)
    grid = op.grid(n_grid)

    if isinstance(phi, dict):   # one coefficient vector, weighted at each node
        kind = phi.get("kind", "zero")
        if kind == "zero":
            coeffs = np.zeros(op.n_modes)
        elif kind == "coeffs":
            coeffs = np.asarray(phi["coeffs"], dtype=float)
            if coeffs.shape != (op.n_modes,):
                raise ConfigError("initial.coeffs length must equal n_modes")
        elif kind == "profile":
            prof = phi.get("profile", "sin_pi")
            if isinstance(prof, str):
                try:
                    prof = PROFILES[prof]
                except KeyError:
                    raise ConfigError(f"unknown initial profile {phi['profile']!r}") from None
            amp = float(phi.get("amplitude", 1.0))
            coeffs = grid.project @ (amp * prof(grid.x))
        else:
            raise ConfigError(f"unknown initial kind {kind!r}")
        ramped = kind == "profile" and phi.get("ramp", False)
        weights = 1.0 + thetas / h if ramped else np.ones(m + 1)
        return Segment(h=h, dt=dt, values=np.outer(weights, coeffs))

    if callable(phi):
        rows = np.empty((m + 1, op.n_modes))
        for j, theta in enumerate(thetas):
            field = np.asarray(phi(theta, grid.x), dtype=float)
            if field.shape != grid.x.shape:
                raise ShapeError("initial callable must return one value per grid node")
            rows[j] = grid.project @ field
        return Segment(h=h, dt=dt, values=rows)

    raise ConfigError("unsupported initial-condition descriptor")


def random_segments(op: SpectralOperator, h: float, dt: float,
                    gen: np.random.Generator, amplitudes) -> np.ndarray:
    """Smooth random windows, a ``(..., m + 1, N)`` stack with one window per entry
    of ``amplitudes``: per-mode amplitudes n^{-2}, smooth in theta.

    Used by the condition probes; the theta-dependence mixes a constant, a
    linear ramp and a half-period sine so sampled pairs exercise the whole
    window, not just the endpoints.  One draw of shape ``amplitudes.shape +
    (3, N)`` equals drawing the windows one at a time in C order, bit for bit.
    """
    m = _window_steps(h, dt)
    thetas = -h + dt * np.arange(m + 1)
    amplitudes = np.asarray(amplitudes, dtype=float)
    n = np.arange(1, op.n_modes + 1, dtype=float)
    scales = amplitudes[..., None, None] * n ** -2.0
    weights = gen.standard_normal(amplitudes.shape + (3, op.n_modes)) * scales
    basis = np.stack([np.ones_like(thetas), thetas / h, np.sin(np.pi * thetas / h)])
    return basis.T @ weights
