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

from .errors import ConfigError, DomainError, EllipticityError, ShapeError, check_count

_SYMMETRY_TOL = 1e-12


def simpson_weights(n_intervals: int) -> np.ndarray:
    """Composite-Simpson weights on a uniform grid of [0, 1] with an even interval count."""
    if n_intervals < 2 or n_intervals % 2 != 0:
        raise DomainError("Simpson rule needs an even number of intervals >= 2")
    w = np.ones(n_intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (1.0 / (3.0 * n_intervals))


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
    mix: np.ndarray | None = None  # sine-basis -> eigenbasis change, None when diagonal
    _grids: dict = field(default_factory=dict, repr=False)

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

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    def grid(self, n_grid: int | None = None) -> GridOps:
        """Return (cached) synthesis/projection matrices on ``n_grid`` Simpson intervals
        (default 4N); 2N or fewer alias the retained modes and are refused."""
        if n_grid is None:
            n_grid = 4 * self.n_modes
        n_grid = check_count("coefficients.grid_points", n_grid)
        ops = self._grids.get(n_grid)
        if ops is None:
            if n_grid <= 2 * self.n_modes:
                raise DomainError(f"coefficients.grid_points: {n_grid} quadrature intervals "
                                  f"alias {self.n_modes} modes: need more than 2 * n_modes")
            x = np.linspace(0.0, 1.0, n_grid + 1)
            w = simpson_weights(n_grid)
            n = np.arange(1, self.n_modes + 1)
            sines = math.sqrt(2.0) * np.sin(np.pi * np.outer(x, n))
            if self.mix is not None:
                synth = sines @ self.mix
            else:
                synth = sines
            project = synth.T * w
            ops = GridOps(x=x, weights=w, synth=synth, project=project)
            self._grids[n_grid] = ops
        return ops


def _diffusivity_at(a, x) -> np.ndarray:
    """Diffusivity table ``a`` at the nodes ``x``; refused unless strictly positive on [0, 1]."""
    table = np.asarray(a)   # a bool, a callable or text: a 0-d array of no number kind
    if table.dtype.kind not in "iuf" or table.shape[1:] != (2,) or table.shape[0] < 2:
        raise ConfigError("operator.a: a tabulated diffusivity must be a list of (x, a) pairs")
    xs, ys = table.astype(float).T
    if np.any(np.diff(xs) <= 0):
        raise ConfigError(f"operator.a: abscissae {xs.tolist()} must be strictly increasing")
    # the interpolant is piecewise linear and clamped beyond the table, so its
    # minimum on [0, 1] lies at 0, at 1 or at a table abscissa between them
    knots = np.concatenate([[0.0, 1.0], xs[(xs > 0.0) & (xs < 1.0)]])
    vals, lows = np.interp(x, xs, ys), np.interp(knots, xs, ys)
    i = int(np.argmin(lows))   # the first NaN, if any: refused too
    if not lows[i] > 0.0:
        raise EllipticityError(f"operator.a = {lows[i]:g} at x = {knots[i]:g} must be positive")
    return vals


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
        If ``a`` is neither a real number (a bool is not) nor a table of (x, a) pairs,
        or the table's values overflow the stiffness matrix.
    """
    n_modes = check_count("operator.n_modes", n_modes, 1)
    if not 0.0 < delta_fraction < 1.0:
        raise ConfigError("operator.delta_fraction must lie in (0, 1)")

    if isinstance(a, numbers.Real) and not isinstance(a, bool):
        if not 0.0 < a < math.inf:   # NaN fails too
            raise EllipticityError(f"operator.a = {a} must be positive and finite")
        n = np.arange(1, n_modes + 1, dtype=float)
        mu = float(a) * (n * np.pi) ** 2
        return SpectralOperator(eigenvalues=mu, delta=delta_fraction * mu[0])

    n_grid = 16 * n_modes
    x = np.linspace(0.0, 1.0, n_grid + 1)
    a_vals = _diffusivity_at(a, x)
    w = simpson_weights(n_grid)
    n = np.arange(1, n_modes + 1)
    # derivative of sqrt(2) sin(n pi x) at the nodes
    dsines = math.sqrt(2.0) * np.pi * n * np.cos(np.pi * np.outer(x, n))
    with np.errstate(all="ignore"):   # a table too large for doubles gives inf or NaN
        stiff = dsines.T @ (dsines * (w * a_vals)[:, None])
    if not np.isfinite(stiff).all():
        raise ConfigError("operator.a: the table's values overflow the stiffness matrix")
    asym = np.max(np.abs(stiff - stiff.T))
    scale = max(1.0, np.max(np.abs(stiff)))
    if asym > _SYMMETRY_TOL * scale:
        raise ShapeError(f"assembled stiffness matrix asymmetry {asym:.3e} exceeds tolerance")
    stiff = 0.5 * (stiff + stiff.T)
    mu, vecs = np.linalg.eigh(stiff)
    if mu[0] <= 0.0:
        raise EllipticityError("assembled operator is not positive definite")
    return SpectralOperator(eigenvalues=mu, delta=delta_fraction * mu[0], mix=vecs)


def _check_modes(op: SpectralOperator, coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != op.n_modes:
        raise ShapeError(
            f"mode vector has length {coeffs.shape[-1]}, operator has {op.n_modes} modes")
    return coeffs


def semigroup_apply(op: SpectralOperator, t: float, coeffs) -> np.ndarray:
    """Apply S(t) = e^{tA}: multiply mode k by exp(-mu_k t).  Exact for t = 0."""
    if t < 0.0:
        raise DomainError("semigroup time must be nonnegative")
    coeffs = _check_modes(op, coeffs)
    return coeffs * np.exp(-op.eigenvalues * t)


def fractional_norm(op: SpectralOperator, coeffs, alpha: float = 0.5) -> float:
    """Graph norm ||(-A)^alpha v|| of a mode vector: mode k scaled by mu_k^alpha."""
    return float(np.linalg.norm(_check_modes(op, coeffs) * op.eigenvalues ** alpha))


def frac_semigroup_norm(op: SpectralOperator, alpha: float, t: float) -> float:
    """Operator norm ||(-A)^alpha S(t)|| = max_k mu_k^alpha exp(-mu_k t) for t > 0."""
    if t <= 0.0:
        raise DomainError("frac_semigroup_norm requires t > 0")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    return float(np.max(op.eigenvalues ** alpha * np.exp(-op.eigenvalues * t)))


def decay_constants(op: SpectralOperator, alpha: float) -> tuple[float, float]:
    """Tight envelope constant: smallest C with ||(-A)^alpha S(t)|| <= C t^{-alpha} e^{-delta t}.

    Valid for every t > 0, not just on a test grid: per mode the function
    t^alpha e^{delta t} mu^alpha e^{-mu t} is maximized in closed form at
    t* = alpha / (mu - delta), so C = max_k (alpha mu_k / (mu_k - delta))^alpha e^{-alpha}.
    The spectral-gap invariant delta < mu_1 keeps every denominator positive.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    beta = op.eigenvalues - op.delta
    vals = (alpha * op.eigenvalues / beta) ** alpha * math.exp(-alpha)
    return float(np.max(vals)), float(op.delta)
