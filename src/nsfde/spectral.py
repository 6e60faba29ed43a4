"""Diagonal calculus for the elliptic operator: spectrum, semigroup, fractional powers.

The negative generator -A is held in its eigenbasis, so applying the
semigroup S(t) = e^{tA}, fractional powers (-A)^alpha, and the decay
envelope are exact componentwise operations on mode-coefficient vectors.

For the 1-d Dirichlet problem on (0, 1) with constant diffusivity a the
eigenpairs are analytic: e_n(x) = sqrt(2) sin(n pi x), mu_n = a (n pi)^2.
For variable a(x) the operator is assembled in the sine basis (stiffness
matrix of -(a u')' with Dirichlet conditions) and diagonalized with a dense
symmetric eigensolver; the resulting eigenvector mixing is carried along so
physical-grid synthesis and projection stay consistent with the eigenbasis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DomainError, EllipticityError, ShapeError, check_count,
                     check_number, is_finite)


def simpson_weights(n_intervals: int) -> np.ndarray:
    """Composite-Simpson weights on a uniform grid of [0, 1] with an even interval count."""
    if check_count("n_intervals", n_intervals, 2) % 2:
        raise ConfigError(f"n_intervals = {n_intervals} must be even")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (1.0 / (3.0 * n_intervals))


def _check_grid_points(n_grid, n_modes: int) -> int:
    """``n_grid`` as an int if it is an even count of Simpson intervals above 2N, which
    integrates products of the N retained modes exactly; otherwise ConfigError naming
    ``coefficients.grid_points``."""
    n_grid = check_count("coefficients.grid_points", n_grid)
    if n_grid <= 2 * n_modes:
        raise ConfigError(f"coefficients.grid_points = {n_grid} must exceed "
                          f"2 * operator.n_modes = {2 * n_modes}")
    if n_grid % 2:
        raise ConfigError(f"coefficients.grid_points = {n_grid} must be even")
    return n_grid


@dataclass(eq=False)
class GridOps:
    """Physical-grid synthesis/projection pair at one quadrature resolution.

    ``synth`` maps mode coefficients to field values on the nodes ``x``;
    ``project`` maps field values back to coefficients with the quadrature
    weights already folded in.  For the first ``n_modes`` eigenfunctions the
    round trip is exact to machine precision because composite Simpson on
    more than 2N intervals integrates products of the retained sine modes
    exactly; on 2N or fewer, sin(j pi x) sin(k pi x) aliases.
    """

    x: np.ndarray
    weights: np.ndarray
    synth: np.ndarray
    project: np.ndarray


@dataclass(eq=False)
class SpectralOperator:
    """Diagonalized elliptic operator; ``eigenvalues`` is the spectrum of -A (ascending)."""

    eigenvalues: np.ndarray
    delta: float
    mix: np.ndarray | None = None  # (N, N) sine-basis -> eigenbasis change, None when diagonal
    _plan: object = field(default=None, init=False, repr=False)  # the solver's last system

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if self.eigenvalues.ndim != 1 or self.eigenvalues.size == 0:
            raise ShapeError("eigenvalues must be a nonempty 1-d array")
        if not np.all(self.eigenvalues > 0.0):
            raise DomainError("eigenvalues of -A must be strictly positive")
        if np.any(np.diff(self.eigenvalues) < 0.0):
            raise DomainError("eigenvalues must be sorted in nondecreasing order")
        if not 0.0 < self.delta < self.eigenvalues[0]:
            raise DomainError("spectral-gap delta must satisfy 0 < delta < mu_1")
        if self.mix is not None and np.shape(self.mix) != (self.n_modes,) * 2:
            raise ShapeError(f"mix has shape {np.shape(self.mix)}, operator has "
                             f"{self.n_modes} modes: it must be {(self.n_modes,) * 2}")

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    def grid(self, n_grid: int | None = None) -> GridOps:
        """Synthesis/projection matrices on ``n_grid`` Simpson intervals (default 4N), built
        afresh on each call; an odd count is refused, and so are 2N or fewer, which alias
        the retained modes."""
        n_grid = _check_grid_points(4 * self.n_modes if n_grid is None else n_grid,
                                    self.n_modes)
        x = np.linspace(0.0, 1.0, n_grid + 1)
        w = simpson_weights(n_grid)
        n = np.arange(1, self.n_modes + 1)
        synth = math.sqrt(2.0) * np.sin(np.pi * np.outer(x, n))
        if self.mix is not None:
            synth = synth @ self.mix
        return GridOps(x=x, weights=w, synth=synth, project=synth.T * w)


def _check_operator_args(n_modes, a, delta_fraction):
    """``assemble_operator``'s arguments checked before any assembly: the mode count,
    ``delta_fraction`` and ``a`` as a float, or as the (x, a) columns of a table whose
    linear interpolant, clamped beyond the table, is positive on [0, 1]."""
    n_modes = check_count("operator.n_modes", n_modes, 1)
    delta_fraction = check_number("operator.delta_fraction", delta_fraction, 0.0, 1.0)
    if isinstance(a, numbers.Real) and not isinstance(a, bool):
        if not (is_finite(a) and a > 0.0):   # NaN and an int past the double range fail too
            raise EllipticityError(f"operator.a = {a} must be positive and finite")
        return n_modes, float(a), delta_fraction
    try:
        pairs = [(x, y) for x, y in a]   # a bool, a callable or text has no pairs
    except (TypeError, ValueError):
        pairs = []
    if len(pairs) < 2 or not all(is_finite(v) for pair in pairs for v in pair):
        raise ConfigError("operator.a must be a number or a list of (x, a) pairs of finite "
                          "numbers")
    xs, ys = np.array(pairs, dtype=float).T
    if np.any(np.diff(xs) <= 0):
        raise ConfigError(f"operator.a: abscissae {xs.tolist()} must be strictly increasing")
    # the interpolant's minimum on [0, 1] lies at 0, at 1 or at a table abscissa between them
    knots = np.concatenate([[0.0, 1.0], xs[(xs > 0.0) & (xs < 1.0)]])
    lows = np.interp(knots, xs, ys)
    i = int(np.argmin(lows))
    if not lows[i] > 0.0:
        raise EllipticityError(f"operator.a = {lows[i]:g} at x = {knots[i]:g} must be positive")
    return n_modes, (xs, ys), delta_fraction


def assemble_operator(n_modes: int = 32, a=1.0, delta_fraction: float = 0.5) -> SpectralOperator:
    """Assemble and diagonalize the truncated operator -(a u')' on (0, 1), Dirichlet.

    Parameters
    ----------
    n_modes : int
        Truncation dimension N.
    a : real number (not a bool) or (K, 2) table of (x, a(x)) pairs
        Diffusivity; a constant triggers the analytic spectrum, otherwise a
        sine-basis Galerkin stiffness matrix is assembled with composite
        Simpson on 16N intervals and diagonalized.  16N keeps the quadrature
        error on the eigenvalues below 1e-7 relative for smooth
        diffusivities (4N is exact only for constant a, where no assembly
        happens at all).
    delta_fraction : float
        Spectral-gap constant as a fraction of mu_1, default mu_1 / 2.

    Raises
    ------
    EllipticityError
        If the diffusivity is not strictly positive on [0, 1], or a constant is not finite.
    ConfigError
        If ``n_modes`` or ``delta_fraction`` is refused, ``a`` is neither a real number (a
        bool is not) nor a table of finite (x, a) pairs, or the table's values overflow the
        stiffness matrix.
    DomainError
        If the assembled spectrum is not strictly positive (a table's values underflow).
    """
    n_modes, a, delta_fraction = _check_operator_args(n_modes, a, delta_fraction)
    if isinstance(a, float):
        n = np.arange(1, n_modes + 1, dtype=float)
        mu = a * (n * np.pi) ** 2
        return SpectralOperator(eigenvalues=mu, delta=delta_fraction * mu[0])

    n_grid = 16 * n_modes
    x = np.linspace(0.0, 1.0, n_grid + 1)
    a_vals = np.interp(x, *a)
    w = simpson_weights(n_grid)
    n = np.arange(1, n_modes + 1)
    # derivative of sqrt(2) sin(n pi x) at the nodes
    dsines = math.sqrt(2.0) * np.pi * n * np.cos(np.pi * np.outer(x, n))
    with np.errstate(all="ignore"):   # a table too large for doubles gives inf or NaN
        stiff = dsines.T @ (dsines * (w * a_vals)[:, None])
    if not np.isfinite(stiff).all():
        raise ConfigError("operator.a: the table's values overflow the stiffness matrix")
    stiff = 0.5 * (stiff + stiff.T)
    mu, vecs = np.linalg.eigh(stiff)
    return SpectralOperator(eigenvalues=mu, delta=delta_fraction * mu[0], mix=vecs)


def _check_modes(op: SpectralOperator, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != op.n_modes:
        raise ShapeError(
            f"mode vector has length {coeffs.shape[-1]}, operator has {op.n_modes} modes")
    return coeffs


def semigroup_apply(op: SpectralOperator, t: float, coeffs) -> np.ndarray:
    """Apply S(t) = e^{tA}: multiply mode k by exp(-mu_k t).  Exact for t = 0."""
    check_number("t", t, 0.0, lo_open=False)
    coeffs = _check_modes(op, coeffs)
    return coeffs * np.exp(-op.eigenvalues * t)


def fractional_norm(op: SpectralOperator, coeffs, alpha: float = 0.5) -> float:
    """Graph norm ||(-A)^alpha v|| of a mode vector: mode k scaled by mu_k^alpha."""
    check_number("alpha", alpha)
    return float(np.linalg.norm(_check_modes(op, coeffs) * op.eigenvalues ** alpha))


def frac_semigroup_norm(op: SpectralOperator, alpha: float, t: float) -> float:
    """Operator norm ||(-A)^alpha S(t)|| = max_k mu_k^alpha exp(-mu_k t) for t > 0."""
    check_number("t", t, 0.0)
    check_number("alpha", alpha, 0.0, 1.0, lo_open=False, hi_open=False)
    return float(np.max(op.eigenvalues ** alpha * np.exp(-op.eigenvalues * t)))


def decay_constants(op: SpectralOperator, alpha: float) -> tuple[float, float]:
    """Tight envelope constant: smallest C with ||(-A)^alpha S(t)|| <= C t^{-alpha} e^{-delta t}.

    Valid for every t > 0, not just on a test grid: per mode the function
    t^alpha e^{delta t} mu^alpha e^{-mu t} is maximized in closed form at
    t* = alpha / (mu - delta), so C = max_k (alpha mu_k / (mu_k - delta))^alpha e^{-alpha}.
    The spectral-gap invariant delta < mu_1 keeps every denominator positive.
    """
    check_number("alpha", alpha, 0.0, 1.0, lo_open=False, hi_open=False)
    beta = op.eigenvalues - op.delta
    vals = (alpha * op.eigenvalues / beta) ** alpha * math.exp(-alpha)
    return float(np.max(vals)), float(op.delta)
