"""Drift, diffusion and neutral-kernel functionals plus their condition checkers.

The scalar nonlinearities f and sigma act pointwise in physical space on the
delayed field (Nemytskii maps); the neutral functional g integrates a kernel
b(x, z, y) of the delayed field over the domain.  Built-ins include the
bounded non-Lipschitz pair (f, N): f(x) = |x| (p |ln|x||)^{1/p} capped at
|x| = e^{-2}, an even drift with f >= 0, and the concave modulus N(s) = -s ln s
continued linearly, for which |f(x) - f(0)|^p = N(|x|^p) holds with equality on
the whole core branch.  The checkers turn the standing well-posedness
assumptions (linear growth, modulus bound, divergent modulus integral,
neutral-term smallness) into sampled numerical verdicts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, DomainError, SingularModulusError, check_choice,
                     check_count, check_number)
from .segment import random_segments, sup_norm
from .spectral import SpectralOperator, fractional_norm

E_MINUS_2 = math.exp(-2.0)

_FLOAT_GUARD = 1e-12  # tolerance multiplier separating real violations from rounding


def _pointwise(fn):
    """Lift an array implementation to accept scalars transparently."""

    def wrapped(x):
        arr = np.asarray(x, dtype=float)
        return fn(arr) if arr.ndim else float(fn(arr[None])[0])

    return wrapped


def osgood_drift(p: float) -> Callable:
    """Bounded non-Lipschitz drift with logarithmic modulus, even in x and never
    negative; from |x| = e^{-2} on it holds its bound e^{-2} (2p)^{1/p}."""

    def _impl(x):
        # clipped at e^{-2}, where -ln a = 2 exactly gives the cap; fmin sends NaN there too
        a = np.abs(x)
        np.fmin(a, E_MINUS_2, a)
        out = np.log(np.fmax(a, 5e-324))   # the least subnormal: a = 0 still ends at +0.0
        out *= -p
        out **= 1.0 / p
        out *= a
        return out

    return _pointwise(_impl)


@_pointwise
def osgood_modulus(s):
    """Concave modulus: 0 at 0, -s ln s on (0, e^{-2}], s + e^{-2} beyond."""
    if np.any(s < 0.0):
        raise DomainError("modulus argument must be nonnegative")
    out = s + E_MINUS_2
    out[s == 0.0] = 0.0
    core = (s > 0.0) & (s <= E_MINUS_2)
    sc = s[core]
    out[core] = -sc * np.log(sc)
    return out


@_pointwise
def linear_modulus(s):
    if np.any(s < 0.0):
        raise DomainError("modulus argument must be nonnegative")
    return s.copy()


@dataclass(eq=False)
class Kernel:
    """Integral kernel of the neutral functional g(phi)(x) = int b(x, phi(theta_g, y), y) dy.

    ``delay_mode`` selects the segment node the kernel reads: ``"point"`` is
    the pure point delay theta_g = -h (makes the implicit step explicit on
    the grid), ``"instant"`` reads theta_g = 0 and therefore couples the
    step to the unknown new state, exercising the fixed-point path.
    ``z_map``, b's pointwise map of a field, takes an optional ``out`` as a ufunc does:
    ``np.tanh`` (separable, the default), or ``np.positive`` (the identity) for linear.
    """

    z_map: Callable = np.tanh
    scale: float = 1.0
    delay_mode: str = "point"  # point | instant

    def __post_init__(self):
        self.scale = check_number("coefficients.kernel_scale", self.scale, 0.0, lo_open=False)
        check_choice("coefficients.kernel_delay", self.delay_mode, ("point", "instant"))


_ZERO, _ONE = _pointwise(np.zeros_like), _pointwise(np.ones_like)
_SCALARS = {
    "zero": lambda p: _ZERO,
    "one": lambda p: _ONE,
    "identity": lambda p: _pointwise(lambda x: x),
    "bounded_tanh": lambda p: _pointwise(lambda x: np.tanh(x)),
    "osgood": osgood_drift,
}

_MODULI = {
    "osgood": osgood_modulus,
    "linear": linear_modulus,
}


@dataclass(eq=False)
class CoefficientSet:
    """Bundle of coefficient functionals with their asserted condition constants.

    ``lipschitz_Mg`` is the asserted bound on the neutral functional in the
    fractional graph norm; construction enforces 0 < Mg < 1 together with
    the smallness requirement 2 Mg^2 meas(D)^2 < 1 used by the separable
    kernel class, where D = (0, 1) has measure 1.  ``modulus_N`` only has its
    root pinned here (N(0) = 0); monotonicity/concavity are sampled by the checkers
    so that deliberately ill-shaped moduli can still be constructed and rejected by
    them.  The bound above 2N on ``grid_points`` is checked when the set meets an
    operator's grid.  In a run f and sigma get a view of the (m + 1)-row field buffer of
    the step plan the operator keeps for the last system it stepped, which the next block,
    or a later run of the same system, overwrites: a map must neither keep nor change its
    argument.  A point kernel's ``z_map`` writes into (G,) halves of the (m, 2G) output
    rows that only a point system's plan holds.  Changing the operator's or the noise
    spectrum's arrays in place after a run is unsupported: the plan keeps what it built
    from them.  The forcing shortcuts are read by identity when the set is built:
    ``f_is_zero`` if f is the built-in ``zero`` map, ``sigma_const`` 0.0 or 1.0 if sigma
    is ``zero`` or ``one``, else None.
    """

    f: Callable
    sigma: Callable
    kernel_b: Optional[Kernel]
    modulus_N: Callable
    growth_K: float = 1.0
    lipschitz_Mg: float = 0.5
    p: float = 3.0
    grid_points: int = 128

    def __post_init__(self):
        self.f_is_zero = self.f is _ZERO
        self.sigma_const = 0.0 if self.sigma is _ZERO else 1.0 if self.sigma is _ONE else None
        self.p = check_number("coefficients.p", self.p, 2.0)
        mg = self.lipschitz_Mg = check_number("coefficients.Mg", self.lipschitz_Mg, 0.0, 1.0)
        if 2.0 * mg ** 2 >= 1.0:
            raise ConfigError(f"coefficients.Mg = {mg!r} violates the neutral smallness "
                              "2 Mg^2 meas(D)^2 < 1")
        self.growth_K = check_number("coefficients.K", self.growth_K, 0.0)
        check_count("coefficients.grid_points", self.grid_points, 4)
        if self.grid_points % 2 != 0:
            raise ConfigError(f"coefficients.grid_points = {self.grid_points!r} must be even")
        if not abs(float(self.modulus_N(0.0))) <= 1e-15:   # a NaN root fails too
            raise ConfigError("modulus must vanish at 0")


def builtin_coefficients(f: str = "osgood", sigma: str = "osgood",
                         kernel: str = "separable", kernel_scale: float = 0.1,
                         kernel_delay: str = "point", modulus: str = "osgood",
                         p: float = 3.0, Mg: float = 0.5, K: float = 1.0,
                         grid_points: int = 128) -> CoefficientSet:
    """Construct a coefficient set from built-in names (the config's keys); same-named f and
    sigma share one callable, and ``zero``/``one`` give its shortcuts.  A ``zero`` kernel
    reads no other kernel key, but they are checked all the same."""
    check_choice("coefficients.f", f, _SCALARS)
    check_choice("coefficients.sigma", sigma, _SCALARS)
    check_choice("coefficients.modulus", modulus, _MODULI)
    check_choice("coefficients.kernel", kernel, ("separable", "linear", "zero"))
    kern = Kernel(z_map=np.tanh if kernel == "separable" else np.positive, scale=kernel_scale,
                  delay_mode=kernel_delay)
    f_map = _SCALARS[f](p)
    return CoefficientSet(
        f=f_map, sigma=f_map if sigma == f else _SCALARS[sigma](p),
        kernel_b=None if kernel == "zero" else kern,
        modulus_N=_MODULI[modulus], growth_K=K, lipschitz_Mg=Mg, p=p, grid_points=grid_points)


class GridMaps:
    """The neutral kernel of one coefficient set on one operator's quadrature grid.

    g(phi)(x) = int_D b(x, phi(theta_g, y), y) dy of a built-in kernel factors
    as ``profile`` (the projected x-factor) times the scalar ``mass`` of the
    node g reads, theta_g = -h for ``g_mode`` "point" and 0 for "instant";
    without a kernel ("none") both vanish and ``z_map`` is ``np.zeros_like``, else the
    kernel's ufunc.  The solver's step plan keeps one per system, though each run
    calls its own set's ``z_map``; the Lipschitz probe takes ``mass`` of nodes.
    """

    def __init__(self, cs: CoefficientSet, op: SpectralOperator):
        self.grid = op.grid(cs.grid_points)
        kern = cs.kernel_b
        self.g_mode = "none" if kern is None else kern.delay_mode
        self.profile, self.z_map = np.zeros(op.n_modes), np.zeros_like
        if kern is not None:
            self.profile = self.grid.project @ (kern.scale * np.sin(np.pi * self.grid.x))
            self.z_map = kern.z_map

    def mass(self, states: np.ndarray):
        """Scalar factor of g: grid integral of z_map on the field, (S,) for an (S, N) stack."""
        return self.grid.weights @ self.z_map(self.grid.synth @ states.T)


@functools.cache
def _legendre_rule():   # on first use: a module-level rule would load numpy.polynomial on import
    return np.polynomial.legendre.leggauss(20)


def osgood_integral(cs: CoefficientSet, eps: float) -> float:
    """int_eps^1 ds / N(s) by a fixed composite Gauss-Legendre rule in w = ln(1/s).

    The rule is checked against itself on halved panels; a modulus it cannot
    resolve there (one kinked away from s = e^{-2}, say) raises ``DomainError``
    when the two sums differ by more than 1e-10 relative.
    """
    check_number("eps", eps, 0.0, 1.0)
    n_fn = cs.modulus_N
    probes = np.geomspace(eps, 1.0, 257)
    vals = np.asarray(n_fn(probes), dtype=float)
    if np.any(vals <= 0.0):
        raise SingularModulusError("modulus vanishes inside the integration range")
    w_max = math.log(1.0 / eps)
    head, (x, wts) = min(w_max, 2.0), _legendre_rule()
    sums = []
    for split in (1, 2):   # 20-node panels 1/(4 split) wide up to w = 2, at most 1/split beyond
        edges = np.concatenate([np.linspace(0.0, head, 1 + split * math.ceil(4.0 * head)),
                                np.linspace(head, w_max, 1 + split * math.ceil(w_max - head))[1:]])
        half = np.diff(edges)[:, None] / 2.0
        s = np.exp(-(edges[:-1, None] + half * (1.0 + x)).ravel())
        sums.append(float((half * wts).ravel() @ (s / np.asarray(n_fn(s), dtype=float))))
    coarse, fine = sums
    if not abs(fine - coarse) <= 1e-10 * abs(fine):
        raise DomainError(f"modulus integral at eps = {eps!r} is unresolved: {coarse!r} "
                          f"on the panels, {fine!r} on halved panels")
    return fine


@dataclass(eq=False)
class OsgoodCertificate:
    """Verdict on the divergent-modulus-integral condition along eps_k = e^{-e^k}."""

    eps_values: np.ndarray
    integrals: np.ndarray
    divergent: bool
    shape_ok: bool
    certified: bool


def modulus_shape_check(cs: CoefficientSet) -> bool:
    """Sampled monotonicity/midpoint-concavity check (construction pins N(0) = 0)."""
    s = np.geomspace(1e-10, 1.0, 401)
    vals = np.asarray(cs.modulus_N(s), dtype=float)
    scale = float(np.max(np.abs(vals)))
    if np.any(np.diff(vals) < -1e-12 * max(1.0, scale)):
        return False
    mid = np.asarray(cs.modulus_N(0.5 * (s[:-1] + s[1:])), dtype=float)
    chords = 0.5 * (vals[:-1] + vals[1:])
    return bool(np.all(mid >= chords - 1e-12 * max(1.0, scale)))


def osgood_certificate(cs: CoefficientSet) -> OsgoodCertificate:
    """Certify the divergence condition: shape checks plus unbounded growth of the integral.

    Growth alone is not enough (a convex modulus like s^2 also has a
    divergent integral but fails the concavity requirement), so the verdict
    is the conjunction of the sampled shape check and the monotone-growth
    test along eps_k = e^{-e^k}, k = 1, ..., 5.
    """
    ks = np.arange(1, 6)
    eps = np.exp(-np.exp(ks.astype(float)))
    integrals = np.array([osgood_integral(cs, e) for e in eps])
    diffs = np.diff(integrals)
    divergent = bool(np.all(diffs > 0.0) and diffs[-1] >= 0.25 * diffs[0]
                     and integrals[-1] - integrals[0] > 0.1)
    shape_ok = modulus_shape_check(cs)
    return OsgoodCertificate(eps_values=eps, integrals=integrals, divergent=divergent,
                             shape_ok=shape_ok, certified=bool(divergent and shape_ok))


def modulus_bound_check(cs: CoefficientSet, n_samples: int, gen: np.random.Generator,
                        mixture: float = 0.5) -> tuple[int, float]:
    """Count violations of |f(x) - f(y)|^p <= N(|x - y|^p) over sampled scalar pairs.

    A share ``mixture`` of the pairs has log-uniform magnitudes in
    [1e-12, e^{-2}] (both signs), the regime where the built-in pair
    approaches equality; the rest are uniform draws on [-1, 1].  Returns
    (violations, max ratio LHS/RHS); rounding guard 1e-12 keeps
    exact-equality corners from being miscounted.
    """
    check_count("n_samples", n_samples, 1)
    check_number("mixture", mixture, 0.0, 1.0, lo_open=False, hi_open=False)
    n_log = int(round(n_samples * mixture))
    uni = gen.uniform(-1.0, 1.0, size=(2, n_samples - n_log))  # a 0-size draw uses no state
    mags = 10.0 ** gen.uniform(-12.0, math.log10(E_MINUS_2), size=(2, n_log))
    signs = gen.choice([-1.0, 1.0], size=(2, n_log))
    x, y = np.concatenate([uni, mags * signs], axis=1)
    lhs = np.abs(cs.f(x) - cs.f(y)) ** cs.p
    rhs = np.asarray(cs.modulus_N(np.abs(x - y) ** cs.p), dtype=float)
    pos = rhs > 0.0
    violations = int(np.sum(lhs[pos] > rhs[pos] * (1.0 + _FLOAT_GUARD)))
    violations += int(np.sum(lhs[~pos] > 0.0))
    max_ratio = float(np.max(lhs[pos] / rhs[pos])) if np.any(pos) else 0.0
    return violations, max_ratio


@dataclass(eq=False)
class ProbeReport:
    """Sampled Lipschitz estimate of the neutral functional against its bound."""

    estimate: float
    bound: float
    passed: bool
    margin: float
    n_used: int


def lipschitz_probe_g(cs: CoefficientSet, op: SpectralOperator, n_samples: int,
                      gen: np.random.Generator, h: float) -> ProbeReport:
    """Max over random segment pairs of ||g(phi1) - g(phi2)||_{1/2} / ||phi1 - phi2||_C.

    g is rank one, profile * mass, so the numerator is
    |mass(phi1) - mass(phi2)| ||profile||_{1/2}; pairs closer than 1e-12 are skipped.
    """
    check_count("n_samples", n_samples, 1)
    maps = GridMaps(cs, op)
    pairs = random_segments(op, h, h / 4.0, gen, np.ones((n_samples, 2)))
    denom = sup_norm(pairs[:, 0] - pairs[:, 1])
    keep = denom >= 1e-12
    nodes = pairs[keep, :, -1 if maps.g_mode == "instant" else 0]   # the node g reads
    masses = maps.mass(nodes.reshape(-1, op.n_modes)).reshape(-1, 2)
    num = np.abs(masses[:, 0] - masses[:, 1]) * fractional_norm(op, maps.profile, 0.5)
    best = float(np.max(num / denom[keep], initial=0.0))
    return ProbeReport(estimate=best, bound=cs.lipschitz_Mg,
                       passed=best <= cs.lipschitz_Mg, margin=cs.lipschitz_Mg - best,
                       n_used=int(keep.sum()))


def growth_check(cs: CoefficientSet, op: SpectralOperator, n_samples: int,
                 gen: np.random.Generator, qspec, h: float) -> float:
    """Sampled linear-growth constant: max of (||f(phi)|| + ||sigma(phi)||) / (1 + ||phi||_C).

    The diffusion term is measured in the Hilbert-Schmidt norm against the
    covariance ``qspec`` (sum_k lambda_k ||sigma e_k||^2 via the kernel
    density sum_k lambda_k e_k(x)^2).
    """
    check_count("n_samples", n_samples, 1)
    grid = op.grid(cs.grid_points)
    density = np.einsum("k,jk->j", qspec.lambdas, grid.synth ** 2)
    amps = 10.0 ** gen.uniform(-3.0, 2.0, size=n_samples)
    segs = random_segments(op, h, h / 4.0, gen, amps)
    delayed = segs[:, 0] @ grid.synth.T   # the fields at theta = -h, one row a sample
    f_norm = np.sqrt(cs.f(delayed) ** 2 @ grid.weights)
    s_norm = np.sqrt((cs.sigma(delayed) ** 2 * density) @ grid.weights)
    return float(np.max((f_norm + s_norm) / (1.0 + sup_norm(segs))))
