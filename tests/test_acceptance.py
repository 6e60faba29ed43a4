"""Twelve pinned end-to-end checks of the assembled toolkit.

One test per shipping criterion (the conftest hook prints a per-criterion
verdict line after the run).  Every random draw goes through a pinned
Philox stream, so the numbers asserted here are reproducible bit for bit.
"""
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nsfde import (CoefficientSet, RngStream, Segment, SolverConfig,
                   assemble_operator, builtin_coefficients, builtin_qwiener,
                   constant_segment, contraction_factor, continuous_dependence_probe,
                   decay_constants, find_horizon, frac_semigroup_norm,
                   from_initial_condition, homogeneity_test,
                   invariance_test, krylov_bogoliubov, lipschitz_probe_g,
                   modulus_bound_check, osgood_certificate, osgood_integral,
                   picard_run, run_ensemble, simulate,
                   stability_bound, tightness_diagnostic, zero_segment)

E2 = math.exp(-2.0)


# -------------------------------------------------------------- criterion 1

def test_criterion_01_ou_stationary_variance():
    """Pure-noise run: mode-k variance of the pooled measure vs lambda_k/(2 mu_k)."""
    t0 = time.monotonic()
    n = 8
    op = assemble_operator(n_modes=n)
    q = builtin_qwiener(n, spectrum="geometric",
                        trace=float(sum(2.0 ** -k for k in range(1, n + 1))))
    assert np.array_equal(q.lambdas, 2.0 ** -np.arange(1, n + 1))

    cs = builtin_coefficients(f="zero", sigma="one", kernel="zero")
    cfg = SolverConfig(dt=1e-3, t_end=200.0, store_stride=100, segment_stride=100)
    traj = simulate(zero_segment(0.1, 1e-3, n), cs, op, q, cfg, RngStream(2024, 0))
    mu = krylov_bogoliubov([traj], burn_in=50.0)
    modes = mu.segments[:, -1]
    assert mu.n_samples >= 1000

    nb = 8
    for k in (1, 2, 3):
        xs = modes[:, k - 1]
        target = q.lambdas[k - 1] / (2.0 * op.eigenvalues[k - 1])
        cut = (xs.size // nb) * nb
        # batch means of the squared deviations: a standard error that
        # survives the serial correlation of the time average
        bvars = ((xs[:cut].reshape(nb, -1) - xs[:cut].mean()) ** 2).mean(axis=1)
        se = bvars.std(ddof=1) / math.sqrt(nb)
        assert abs(xs.var() - target) <= 3.0 * se
    assert time.monotonic() - t0 <= 120.0


# -------------------------------------------------------------- criterion 2

def test_criterion_02_neutral_point_delay_oracle():
    """Single-mode deterministic run vs an independent method-of-steps integration.

    Mode-1 reduction with mu = pi^2, separable point-delay kernel of scale c
    and the capped-logarithm drift, which is even:

        d/dt [U(t) + kappa M(U(t-h))] = -mu U(t) + F(U(t-h)),
        kappa = c / sqrt2, M(v) = int tanh(v sqrt2 sin(pi x)) dx,
        F(v) = int f(v sqrt2 sin(pi x)) sqrt2 sin(pi x) dx.

    The oracle solves the bracket ODE window by window with DOP853 dense
    output, sharing nothing with the scheme.  M and F are composite 20-point
    Gauss-Legendre rules on [0, 1/2], doubled by the symmetry x -> 1 - x; F
    splits at the cap's kink x*, where |v| sqrt2 sin(pi x*) = e^{-2}, with
    panels graded toward x = 0, where the logarithm in f is singular.  Two
    histories: 0.3 e^theta keeps the mode positive, and the ramp
    -0.3 (1 + 10 theta) changes its sign at theta = -h / 2, after which the
    path changes sign too, so M and the even F are read on both sides of 0
    (an odd F there misses the bound by two orders of magnitude).
    """
    t0 = time.monotonic()
    h, dt, t_end, c_ker = 0.2, 1e-4, 1.0, 0.3
    mu = math.pi ** 2
    kappa = c_ker / math.sqrt(2.0)
    p = 3.0
    cap = E2 * (2.0 * p) ** (1.0 / p)

    s2 = math.sqrt(2.0)
    gx, gw = np.polynomial.legendre.leggauss(20)

    def gauss(fn, edges):
        mid, half = (edges[1:] + edges[:-1])[:, None] / 2.0, np.diff(edges)[:, None] / 2.0
        return float(np.sum(half * gw * fn(mid + half * gx)))

    def big_m(v):
        return 2.0 * gauss(lambda x: np.tanh(v * s2 * np.sin(np.pi * x)), np.linspace(0.0, 0.5, 3))

    def big_f(v):
        if v == 0.0:
            return 0.0

        def integrand(x):   # f(v sqrt2 sin(pi x)) sqrt2 sin(pi x), f even; x > 0 at every node
            s = s2 * np.sin(np.pi * x)
            a = abs(v) * s
            return np.where(a < E2, a * (p * -np.log(a)) ** (1.0 / p), cap) * s

        x_star = math.asin(min(1.0, E2 / (s2 * abs(v)))) / math.pi
        core = x_star * np.concatenate([[0.0], np.logspace(-6.0, 0.0, 7)])
        return 2.0 * (gauss(integrand, core) + gauss(integrand, np.linspace(x_star, 0.5, 3)))

    def oracle(phi, t_grid):
        pieces = []

        def u_hist(t):
            if t <= 0.0:
                return float(phi(t))
            for lo, hi, fn in pieces:
                if lo - 1e-12 <= t <= hi + 1e-12:
                    return fn(t)
            raise RuntimeError(f"history miss at t={t}")

        u_left = float(phi(0.0))
        for k in range(int(round(t_end / h))):
            t_lo, t_hi = k * h, (k + 1) * h

            def rhs(t, y):
                ud = u_hist(t - h)
                return [-mu * (y[0] - kappa * big_m(ud)) + big_f(ud)]

            v_left = u_left + kappa * big_m(u_hist(t_lo - h))
            sol = solve_ivp(rhs, (t_lo, t_hi), [v_left], method="DOP853",
                            rtol=1e-11, atol=1e-13, dense_output=True)
            assert sol.success

            def u_fn(t, _sol=sol):
                return float(_sol.sol(t)[0]) - kappa * big_m(u_hist(t - h))

            pieces.append((t_lo, t_hi, u_fn))
            u_left = u_fn(t_hi)
        return np.array([u_hist(t) for t in t_grid])

    op = assemble_operator(n_modes=1)
    cs = builtin_coefficients(f="osgood", sigma="zero", kernel="separable",
                              kernel_scale=c_ker, kernel_delay="point",
                              grid_points=256)
    q = builtin_qwiener(1, trace=1.0)  # inert: sigma = 0
    cfg = SolverConfig(dt=dt, t_end=t_end, store_stride=50)
    m = int(round(h / dt))
    for phi in (lambda theta: 0.3 * np.exp(theta), lambda theta: -0.3 * (1.0 + 10.0 * theta)):
        seg0 = Segment(h=h, dt=dt, values=phi(-h + dt * np.arange(m + 1))[:, None])
        traj = simulate(seg0, cs, op, q, cfg, RngStream(1, 0))
        u_ref = oracle(phi, traj.times)
        err = np.max(np.abs(traj.snapshots[:, 0] - u_ref)) / np.max(np.abs(u_ref))
        assert err < 1e-3
    assert u_ref.min() < 0.0 < u_ref.max()   # the ramp's path changes sign
    assert time.monotonic() - t0 <= 60.0


# -------------------------------------------------------------- criterion 3

def test_criterion_03_successive_approximations():
    """sup_diff strictly decreasing from iterate 2 on; iterate 8 matches direct mode."""
    t0 = time.monotonic()
    n, h, dt = 8, 0.05, 1e-3
    op = assemble_operator(n_modes=n)
    cs = builtin_coefficients(kernel_scale=0.2)
    q = builtin_qwiener(n, exponent=2.0, trace=0.1)
    ini = from_initial_condition(h, dt, op.grid(), kind="profile", profile="sin_pi", amplitude=0.2)

    cfg = SolverConfig(dt=dt, t_end=0.5, mode="picard", picard_iters=8)
    iterates = picard_run(ini, cs, op, q, cfg, RngStream(7, 0))
    d = [diff for _, diff in iterates]
    assert math.isnan(d[0]) and len(d) == 9
    assert all(d[k] > d[k + 1] > 0.0 for k in range(2, 8))

    direct = simulate(ini, cs, op, q, SolverConfig(dt=dt, t_end=0.5),
                      RngStream(7, 0))
    gap = np.max(np.linalg.norm(iterates[-1][0].snapshots - direct.snapshots,
                                axis=1))
    assert gap <= 1e-6
    assert time.monotonic() - t0 <= 120.0


# -------------------------------------------------------------- criterion 4

def test_criterion_04_window_arithmetic_50_digits():
    """Both window bounds vs a 50-digit reference on 20 random admissible tuples."""
    mp.mp.dps = 50

    def mp_bounds(mg, p, alpha, c, t):
        mg, p, alpha, c, t = map(mp.mpf, (mg, p, alpha, c, t))
        b1 = mg + mg ** p * c ** p * t ** (alpha * p) / ((1 - mg) ** (p - 1) * alpha ** p)
        b2 = mg + (5 / (1 - mg)) ** (p - 1) * (c * t ** alpha * mg / alpha) ** p
        return float(b1), float(b2)

    gen = RngStream(13, 0).generator()
    for _ in range(20):
        mg = gen.uniform(0.1, 0.65)
        p = gen.uniform(2.2, 5.0)
        alpha = gen.uniform(0.25, 1.0)
        c = gen.uniform(0.3, 3.0)
        t = 10.0 ** gen.uniform(-3, 2)

        r1, r2 = mp_bounds(mg, p, alpha, c, t)
        assert abs(contraction_factor(mg, p, alpha, c, t) - r1) <= 1e-12 * r1
        assert abs(stability_bound(mg, p, alpha, c, t) - r2) <= 1e-12 * r2

        res = find_horizon(mg, p, alpha, c)
        assert not res.capped
        assert res.contraction < 1.0 and res.stability < 1.0
        # feasibility is the conjunction of the two bounds; just past the
        # returned window it must already be lost
        assert max(*mp_bounds(mg, p, alpha, c, 1.01 * res.horizon)) >= 1.0


# -------------------------------------------------------------- criterion 5

def test_criterion_05_fractional_decay_bound():
    """||(-A)^a S(t)|| <= C_a t^{-a} e^{-dt} on a 1000-point log grid, zero violations."""
    op = assemble_operator(n_modes=8)
    ts = np.logspace(-6.0, 3.0, 1000)
    for alpha in (0.25, 0.5, 0.75):
        c_a, delta = decay_constants(op, alpha)
        lhs = np.array([frac_semigroup_norm(op, alpha, t) for t in ts])
        rhs = c_a * ts ** (-alpha) * np.exp(-delta * ts)
        # compared directly: at large t both sides underflow to 0 and the
        # inequality still holds, while any ratio would be 0/0
        assert np.all(lhs <= rhs)


# -------------------------------------------------------------- criterion 6

def test_criterion_06_modulus_bound_sampling():
    """|f(x)-f(y)|^p <= N(|x-y|^p) over 1e6 pairs; corner equality to 1e-14."""
    cs = builtin_coefficients()
    gen = RngStream(77, 0).generator()
    v_mixed, ratio_mixed = modulus_bound_check(cs, 10 ** 6, gen)
    v_log, ratio_log = modulus_bound_check(cs, 10 ** 4, gen, mixture=1.0)
    assert v_mixed == 0 and v_log == 0
    assert ratio_mixed <= 1.0 + 1e-12 and ratio_log <= 1.0 + 1e-12

    # the cap corner: |f(e^{-2}) - f(0)|^3 = N(e^{-6}) = 6 e^{-6} exactly
    lhs = abs(float(cs.f(E2)) - float(cs.f(0.0))) ** 3
    rhs = float(cs.modulus_N(E2 ** 3))
    want = 6.0 * math.exp(-6.0)
    assert abs(lhs - want) <= 1e-14 * want
    assert abs(rhs - want) <= 1e-14 * want


# -------------------------------------------------------------- criterion 7

def test_criterion_07_osgood_divergence():
    """Integral of 1/N along eps_k = e^{-e^k} vs closed form; s^2 verdict negative."""
    cs = builtin_coefficients()
    # int_eps^1 ds/(-s ln s) = ln ln(1/eps) - ln 2 on the core branch; the
    # linear continuation past e^{-2} adds the finite tail below
    tail = 2.0 - math.log(2.0) + math.log1p(math.exp(-2.0))
    for k in range(2, 6):
        got = osgood_integral(cs, math.exp(-math.exp(k)))
        want = k - math.log(2.0) + tail
        assert abs(got - want) <= 0.01 * want

    assert osgood_certificate(cs).certified

    cs_sq = CoefficientSet(f=cs.f, sigma=cs.sigma, kernel_b=None,
                           modulus_N=lambda s: np.asarray(s, dtype=float) ** 2)
    cert = osgood_certificate(cs_sq)
    # raw growth alone diverges for s^2 too; the verdict must still be
    # negative because the convex shape fails the modulus requirements
    assert not cert.certified
    assert not cert.shape_ok


# ------------------------------------------------------- criteria 8 and 9

@pytest.fixture(scope="module")
def bounded_ensemble():
    """200 trajectories of the bounded-coefficient system, T = 100, checkpoints 1.0."""
    n, dt, h = 16, 0.01, 0.1
    op = assemble_operator(n_modes=n)
    cs = builtin_coefficients(sigma="one", kernel_scale=0.2)
    q = builtin_qwiener(n, exponent=2.0, trace=2.0)
    ini = from_initial_condition(h, dt, op.grid(), kind="profile", profile="sin_pi", amplitude=0.5)
    cfg = SolverConfig(dt=dt, t_end=100.0, store_stride=100, segment_stride=100)
    trajs = run_ensemble(ini, cs, op, q, cfg, seed=777, n_traj=200)
    return trajs, cs, op, q, dt


def test_criterion_08_tightness_profile(bounded_ensemble):
    trajs, _, _, _, _ = bounded_ensemble
    rep = tightness_diagnostic(trajs, [0.5, 1.0, 2.0, 4.0, 8.0])
    assert rep.n_trajectories == 200
    assert np.allclose(np.diff(rep.checkpoints), 1.0)
    assert np.all(np.diff(rep.estimates) <= 0.0)
    assert rep.estimates[-1] < 0.05


def test_criterion_09_invariance_of_pooled_measure(bounded_ensemble):
    trajs, cs, op, q, dt = bounded_ensemble
    mu = krylov_bogoliubov(trajs, burn_in=50.0)
    assert mu.n_samples == 200 * 50
    inv = invariance_test(mu, 5.0, cs, op, q, dt, RngStream(1234, 0),
                          n_draws=500)
    assert np.all(inv.ks_stat < inv.ks_crit)
    assert inv.all_passed


# ------------------------------------------------------------- criterion 10

def test_criterion_10_time_homogeneity():
    """Law started at s=1 run to s+t vs law started at 0 run to t, 1000 per side."""
    n, dt, h = 8, 0.01, 0.1
    op = assemble_operator(n_modes=n)
    cs = builtin_coefficients(sigma="one", kernel_scale=0.2)
    q = builtin_qwiener(n, exponent=2.0, trace=2.0)
    ini = from_initial_condition(h, dt, op.grid(), kind="profile", profile="sin_pi", amplitude=0.5)
    rep = homogeneity_test(ini, 1.0, 3.0, cs, op, q, dt, RngStream(4242, 0),
                           n_samples=1000)
    assert np.all(rep.ks_stat < rep.ks_crit)
    assert rep.all_passed


# ------------------------------------------------------------- criterion 11

def test_criterion_11_continuous_dependence():
    """Coupled pairs at window distances 2^{-n}: p-th moment estimates taper off."""
    n, dt, h = 8, 0.01, 0.1
    op = assemble_operator(n_modes=n)
    cs = builtin_coefficients(sigma="one", kernel_scale=0.2)
    q = builtin_qwiener(n, exponent=2.0, trace=2.0)
    base = from_initial_condition(h, dt, op.grid(),
                                  kind="profile", profile="sin_pi", amplitude=0.5)
    chi = np.zeros(n)
    chi[0] = 1.0
    psis = [Segment(h=h, dt=dt, values=base.values + (2.0 ** -k) * chi)
            for k in range(1, 7)]

    dep = continuous_dependence_probe(base, psis, 3.0, 2.0, cs, op, q, dt,
                                      RngStream(5151, 0), n_paths=100)
    assert np.allclose(dep.offsets, 2.0 ** -np.arange(1, 7), rtol=1e-12)
    steps_ok = all(dep.estimates[i + 1] <= dep.estimates[i]
                   + 2.0 * math.hypot(dep.stderrs[i], dep.stderrs[i + 1])
                   for i in range(5))
    assert steps_ok
    assert dep.estimates[-1] < dep.estimates[0] / 10.0
    # dissipation keeps each difference path below its t=0 value, so the
    # estimates sit exactly at offset^3; a drift-dominated regime would
    # only satisfy the two inequalities above
    assert np.allclose(dep.estimates, dep.offsets ** 3.0, rtol=1e-9)


# ------------------------------------------------------------- criterion 12

def test_criterion_12_fixed_point_contraction():
    """Instant-read neutral term: probed constant ~0.5, residual rate <= 0.55."""
    n, h, dt = 8, 0.05, 1e-3
    op = assemble_operator(n_modes=n)
    cs = builtin_coefficients(kernel_scale=0.265, kernel_delay="instant",
                              Mg=0.55)
    probe = lipschitz_probe_g(cs, op, 300, RngStream(555, 0).generator(), h=h)
    assert probe.passed
    assert abs(probe.estimate - 0.5) <= 0.05

    q = builtin_qwiener(n, exponent=2.0, trace=0.1)
    ini = from_initial_condition(h, dt, op.grid(), kind="profile", profile="sin_pi", amplitude=0.2)
    cfg = SolverConfig(dt=dt, t_end=0.5, fp_tol=1e-12, fp_max=200)
    traj = simulate(ini, cs, op, q, cfg, RngStream(99, 0),
                    collect_fp_residuals=True)

    rates = []
    for res in traj.fp_residuals:
        r = np.asarray(res)
        if r.size >= 2:
            usable = r[:-1] >= 1e3 * cfg.fp_tol  # above the rounding floor
            rates.extend(r[1:][usable] / r[:-1][usable])
        if r[0] > cfg.fp_tol:
            # contraction at rate 1/2 caps the iteration count
            limit = math.ceil(math.log(cfg.fp_tol / r[0]) / math.log(0.5)) + 1
            assert r.size <= limit
    assert len(rates) > 1000
    assert max(rates) <= 0.55
