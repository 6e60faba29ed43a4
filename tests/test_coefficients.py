"""Coefficient functionals and the sampled condition checkers."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nsfde import (CoefficientSet, ConfigError, DomainError, GridMaps, Kernel,
                   RngStream, SingularModulusError,
                   assemble_operator, builtin_coefficients,
                   growth_check, linear_modulus, lipschitz_probe_g,
                   modulus_bound_check, modulus_shape_check,
                   osgood_certificate, osgood_integral, osgood_modulus,
                   power_qwiener)

E2 = math.exp(-2.0)


def test_builtin_registry_and_validation():
    with pytest.raises(ConfigError):
        builtin_coefficients(f="cubic")
    with pytest.raises(ConfigError):
        builtin_coefficients(sigma="cubic")
    with pytest.raises(ConfigError):
        builtin_coefficients(modulus="quadratic")
    with pytest.raises(ConfigError):
        builtin_coefficients(kernel="rbf")
    with pytest.raises(ConfigError):
        builtin_coefficients(p=2.0)  # exponent must exceed 2
    with pytest.raises(ConfigError):
        builtin_coefficients(Mg=1.2)
    with pytest.raises(ConfigError):
        builtin_coefficients(Mg=0.8)  # 2 Mg^2 = 1.28 breaks the smallness bound
    with pytest.raises(ConfigError):
        builtin_coefficients(grid_points=33)
    cs = builtin_coefficients(Mg=0.7)  # 2 * 0.49 = 0.98 still admissible
    assert cs.lipschitz_Mg == 0.7

    with pytest.raises(ConfigError):
        Kernel(kind="rbf")
    with pytest.raises(ConfigError):
        Kernel(delay_mode="mid")

    with pytest.raises(ConfigError):
        CoefficientSet(f=lambda x: x, sigma=lambda x: x, kernel_b=None,
                       modulus_N=lambda s: np.asarray(s) + 1.0)  # N(0) != 0


def test_drift_cap_and_modulus_identity():
    cs = builtin_coefficients()
    cap = E2 * 6.0 ** (1.0 / 3.0)
    assert float(cs.f(0.0)) == 0.0
    assert float(cs.f(E2)) == pytest.approx(cap, rel=1e-15)
    assert float(cs.f(5.0)) == cap   # saturated
    assert float(cs.f(-5.0)) == cap  # depends on |x| only

    # exact equality branch: |f(x) - f(0)|^3 = N(|x|^3) for |x| <= e^{-2}
    xs = np.geomspace(1e-10, E2, 200)
    lhs = np.abs(cs.f(xs)) ** 3
    rhs = np.asarray(cs.modulus_N(xs ** 3))
    assert np.allclose(lhs, rhs, rtol=1e-12)

    # the corner value itself
    assert abs(float(cs.f(E2)) ** 3 - 6.0 * math.exp(-6.0)) <= 1e-14 * 6.0 * math.exp(-6.0)


def test_moduli_shapes():
    assert float(osgood_modulus(0.0)) == 0.0
    assert float(osgood_modulus(E2)) == pytest.approx(2.0 * E2, rel=1e-15)
    assert float(osgood_modulus(1.0)) == pytest.approx(1.0 + E2, rel=1e-15)
    with pytest.raises(DomainError):
        osgood_modulus(-0.5)
    assert float(linear_modulus(0.3)) == 0.3

    assert modulus_shape_check(builtin_coefficients())
    assert modulus_shape_check(builtin_coefficients(modulus="linear"))
    convex = CoefficientSet(f=lambda x: x, sigma=lambda x: x, kernel_b=None,
                            modulus_N=lambda s: np.asarray(s, dtype=float) ** 2)
    assert not modulus_shape_check(convex)
    wobble = CoefficientSet(f=lambda x: x, sigma=lambda x: x, kernel_b=None,
                            modulus_N=lambda s: np.abs(np.sin(3.0 * np.asarray(s))))
    assert not modulus_shape_check(wobble)  # not monotone on (0, 1]


def test_modulus_bound_check_counts_real_violations():
    gen = RngStream(21, 0).generator()
    v, ratio = modulus_bound_check(builtin_coefficients(), 10 ** 4, gen)
    assert v == 0 and ratio <= 1.0 + 1e-12

    doubled = CoefficientSet(f=lambda x: 2.0 * np.asarray(x, dtype=float),
                             sigma=lambda x: np.asarray(x, dtype=float),
                             kernel_b=None, modulus_N=osgood_modulus)
    v2, ratio2 = modulus_bound_check(doubled, 10 ** 4, gen)
    assert v2 > 0 and ratio2 > 1.0

    with pytest.raises(DomainError):
        modulus_bound_check(builtin_coefficients(), 0, gen)
    with pytest.raises(DomainError):
        modulus_bound_check(builtin_coefficients(), 10, gen, mixture=1.5)


def test_osgood_integral_and_certificate():
    cs = builtin_coefficients()
    # int_eps^1 ds/(-s ln s) telescopes to ln ln(1/eps) - ln 2 on the core
    # branch plus a fixed tail from the linear continuation
    tail = 2.0 - math.log(2.0) + math.log1p(E2)
    for k in (2, 3):
        got = osgood_integral(cs, math.exp(-math.exp(k)))
        assert got == pytest.approx(k - math.log(2.0) + tail, rel=1e-9)
    with pytest.raises(DomainError):
        osgood_integral(cs, 1.5)

    cert = osgood_certificate(cs)
    assert cert.certified and cert.divergent and cert.shape_ok
    assert np.all(np.diff(cert.integrals) > 0.0)

    linear = builtin_coefficients(modulus="linear")
    assert osgood_certificate(linear).certified  # int ds/s also diverges

    flat = CoefficientSet(f=cs.f, sigma=cs.sigma, kernel_b=None,
                          modulus_N=lambda s: np.maximum(np.asarray(s) - 0.5, 0.0))
    with pytest.raises(SingularModulusError):
        osgood_integral(flat, 1e-3)  # vanishes inside the range


def test_eval_f_matches_adaptive_quadrature():
    op = assemble_operator(n_modes=4)
    cs = builtin_coefficients(f="bounded_tanh", sigma="one", kernel="zero")
    coeffs = np.array([0.4, -0.2, 0.1, 0.05])

    def field(x):
        n = np.arange(1, 5)
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(np.atleast_1d(x), n)) @ coeffs

    maps = GridMaps(cs, op)
    got = maps.grid.project @ maps.f_field(coeffs)
    for k in range(1, 5):
        want = quad(lambda x: math.tanh(field(x)[0]) * math.sqrt(2.0) * math.sin(k * np.pi * x),
                    0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
        assert got[k - 1] == pytest.approx(want, abs=1e-8)


def test_eval_sigma_is_grid_field():
    op = assemble_operator(n_modes=4)
    cs = builtin_coefficients(sigma="one")
    out = GridMaps(cs, op).sigma(np.zeros(4))
    assert np.array_equal(out, np.ones_like(out))
    assert out.size == cs.grid_points + 1


def test_eval_g_separable_kernel():
    op = assemble_operator(n_modes=4)
    c = 0.3
    cs = builtin_coefficients(kernel_scale=c)
    maps = GridMaps(cs, op)
    coeffs = np.array([0.5, 0.1, 0.0, 0.0])

    def field(x):
        n = np.arange(1, 5)
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(np.atleast_1d(x), n)) @ coeffs

    mass = quad(lambda x: math.tanh(field(x)[0]), 0.0, 1.0, epsabs=1e-12)[0]
    got = maps.g(coeffs)
    # c sin(pi x) = (c/sqrt2) e_1: only the first mode is hit
    assert got[0] == pytest.approx(c / math.sqrt(2.0) * mass, abs=1e-9)
    assert np.max(np.abs(got[1:])) <= 1e-12

    # constant-in-theta window: point and instant reads agree
    inst = GridMaps(builtin_coefficients(kernel_scale=c, kernel_delay="instant"), op)
    window = np.tile(coeffs, (3, 1))
    assert np.array_equal(maps.g_window(window), got)
    assert np.array_equal(inst.g_window(window), got)

    # theta-dependent window separates the two reads: the point kernel sees
    # the (zero) oldest node, the instant kernel sees the current one
    ramp = np.outer([0.0, 0.5, 1.0], coeffs)
    assert not maps.g_window(ramp).any()
    assert abs(inst.g_window(ramp)[0]) > 0.01

    none = GridMaps(builtin_coefficients(kernel="zero"), op)
    assert none.g_mode == "none"
    assert not none.g(coeffs).any() and not none.g_window(ramp).any()

    # linear kernel: g is linear in u, and its mass is int_0^1 u dx, where
    # int e_1 = sqrt2 * 2/pi and int e_2 = 0
    lin = GridMaps(builtin_coefficients(kernel="linear", kernel_scale=c), op)
    got_lin = lin.g(coeffs)
    assert np.array_equal(lin.g(2.0 * coeffs), 2.0 * got_lin)
    mass_lin = math.sqrt(2.0) * (2.0 / math.pi) * coeffs[0]
    assert got_lin[0] == pytest.approx(c / math.sqrt(2.0) * mass_lin, abs=1e-9)
    assert np.max(np.abs(got_lin[1:])) <= 1e-12


def test_lipschitz_probe_scales_linearly_with_kernel():
    op = assemble_operator(n_modes=8)
    small = builtin_coefficients(kernel_scale=0.1, kernel_delay="instant")
    rep = lipschitz_probe_g(small, op, 300, RngStream(555, 0).generator(), h=0.05)
    assert rep.passed and rep.n_used == 300
    assert 0.15 < rep.estimate < 0.25  # ~1.89 * scale at this seed

    big = builtin_coefficients(kernel_scale=0.30, kernel_delay="instant")
    rep2 = lipschitz_probe_g(big, op, 300, RngStream(555, 0).generator(), h=0.05)
    # g is linear in the kernel scale, so the sampled constant is too
    assert rep2.estimate == pytest.approx(3.0 * rep.estimate, rel=1e-10)
    assert not rep2.passed  # exceeds the declared bound 0.5
    assert rep2.margin < 0.0


def test_growth_check_bounded_pair_stays_under_one():
    op = assemble_operator(n_modes=8)
    cs = builtin_coefficients()  # f and sigma both bounded by ~0.246
    q = power_qwiener(8, trace_target=1.0)
    gen = RngStream(31, 0).generator()
    assert growth_check(cs, op, 200, gen, qspec=q) <= 1.0
