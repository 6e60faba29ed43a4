"""Coefficient functionals and the sampled condition checkers."""
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from nsfde import (CoefficientSet, ConfigError, DomainError, GridMaps, Kernel,
                   RngStream, Segment, SingularModulusError, SolverConfig,
                   assemble_operator, builtin_coefficients, builtin_qwiener,
                   growth_check, linear_modulus, lipschitz_probe_g,
                   modulus_bound_check, modulus_shape_check,
                   fractional_norm, osgood_certificate, osgood_integral,
                   osgood_modulus, random_segments, simulate, sup_norm)
from nsfde.coefficients import _ONE, _ZERO

E2 = math.exp(-2.0)


def test_builtin_registry_and_validation():
    with pytest.raises(ConfigError):
        builtin_coefficients(f="cubic")
    with pytest.raises(ConfigError):
        builtin_coefficients(sigma="cubic")
    with pytest.raises(ConfigError):
        builtin_coefficients(modulus="quadratic")
    with pytest.raises(ConfigError, match="coefficients.kernel = 'rbf' not one of"):
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

    with pytest.raises(ConfigError, match="coefficients.kernel_delay = 'mid' not one of"):
        Kernel(delay_mode="mid")

    with pytest.raises(ConfigError):
        CoefficientSet(f=lambda x: x, sigma=lambda x: x, kernel_b=None,
                       modulus_N=lambda s: np.asarray(s) + 1.0)  # N(0) != 0


def test_a_modulus_that_is_nan_at_zero_is_refused():
    def log_squared(s):   # s log(e/s)^2 is 0 * inf = NaN at s = 0
        s = np.asarray(s, dtype=float)
        return s * np.log(np.e / s) ** 2

    with np.errstate(divide="ignore", invalid="ignore"):
        assert math.isnan(log_squared(0.0))
        with pytest.raises(ConfigError, match="modulus must vanish at 0"):
            CoefficientSet(f=lambda x: x, sigma=lambda x: x, kernel_b=None,
                           modulus_N=log_squared)


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


def _masked_osgood_drift(p):
    """The drift evaluated on masks: 0 at 0, the cap set apart, the core on its own."""
    cap = E2 * (2.0 * p) ** (1.0 / p)

    def impl(x):
        ax = np.abs(x)
        out = np.full(ax.shape, cap)
        out[ax == 0.0] = 0.0
        core = (ax > 0.0) & (ax <= E2)
        a = ax[core]
        out[core] = a * (p * (-np.log(a))) ** (1.0 / p)
        return out

    return impl


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 7.3])
def test_osgood_drift_equals_its_masked_form_bit_for_bit(p):
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, E2, -E2,
                      math.nextafter(E2, 0.0), math.nextafter(E2, 1.0), 1e300,
                      math.inf, -math.inf, math.nan])
    rng = np.random.default_rng(round(10 * p))
    decades = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-12.0, 1.0, 4000)
    f, ref = builtin_coefficients(f="osgood", p=p).f, _masked_osgood_drift(p)
    for x in (edges, decades.reshape(40, 100)):
        got = f(x)
        assert got.shape == x.shape and got.tobytes() == ref(x).tobytes()
    assert f(math.nan) == f(1.0) == ref(np.array([1.0]))[0]   # NaN maps to the cap
    for x in edges:   # the scalar path through _pointwise
        got = f(float(x))
        assert type(got) is float
        assert np.float64(got).tobytes() == ref(np.array([x])).tobytes()


def test_simulate_from_a_zero_history_warns_nothing():
    # the osgood f and sigma read an all-zero field, where ln|x| is never taken
    op = assemble_operator(n_modes=8)
    ini = Segment(h=0.05, dt=0.01, values=np.zeros((6, 8)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate(ini, builtin_coefficients(), op, builtin_qwiener(8, trace=1.0),
                        SolverConfig(dt=0.01, t_end=0.2), RngStream(3, 0),
                        noise_z=np.zeros((20, 8)))
    assert not traj.snapshots.any()


def test_a_coefficient_set_takes_no_claims_about_its_maps():
    # the forcing shortcuts are read from f and sigma, and z_map is the kernel's own
    for claim in ("f_is_zero", "sigma_const"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{claim}'"):
            CoefficientSet(f=np.tanh, sigma=np.tanh, kernel_b=None, modulus_N=osgood_modulus,
                           **{claim: 0.0})
    with pytest.raises(TypeError, match="unexpected keyword argument 'kind'"):
        Kernel(kind="linear")


def test_builtin_names_give_the_forcing_shortcuts():
    names = ["zero", "one", "identity", "bounded_tanh", "osgood"]
    for f, sigma in itertools.product(names, names):
        cs = builtin_coefficients(f=f, sigma=sigma)
        assert cs.f_is_zero is (f == "zero")
        assert cs.sigma_const == {"zero": 0.0, "one": 1.0}.get(sigma)
        assert (cs.sigma is cs.f) is (sigma == f)


def test_a_hand_built_set_of_the_builtin_maps_runs_as_the_named_one():
    # the shortcuts follow the maps: the built-in zero and one maps skip f and
    # sigma whoever builds the set, and any other map is called
    op, q = assemble_operator(n_modes=8), builtin_qwiener(8, trace=0.5)
    ini = Segment(h=0.05, dt=0.01, values=np.full((6, 8), 0.05))
    cfg = SolverConfig(dt=0.01, t_end=0.5)
    named = builtin_coefficients(f="zero", sigma="one", kernel_scale=0.2)
    kept = builtin_coefficients(f="zero", sigma="one", kernel_scale=0.2)

    def run(cs):
        return simulate(ini, cs, op, q, cfg, RngStream(5, 0)).snapshots.tobytes()

    by_hand = CoefficientSet(f=_ZERO, sigma=_ONE, kernel_b=named.kernel_b,
                             modulus_N=osgood_modulus)
    assert by_hand.f_is_zero and by_hand.sigma_const == 1.0
    assert run(by_hand) == run(named)
    kept.f, kept.sigma = np.tanh, np.tanh   # assigned after the build: the shortcuts stay
    assert run(kept) == run(named)
    calls = []

    def own_zero(x):
        calls.append(x.shape)
        return np.zeros_like(x)

    mine = CoefficientSet(f=own_zero, sigma=_ONE, kernel_b=named.kernel_b,
                          modulus_N=osgood_modulus)
    assert not mine.f_is_zero
    assert run(mine) == run(named) and calls   # an equal map of one's own is called
    tanh = CoefficientSet(f=np.tanh, sigma=np.tanh, kernel_b=named.kernel_b,
                          modulus_N=osgood_modulus)
    assert (tanh.f_is_zero, tanh.sigma_const) == (False, None)
    assert run(tanh) != run(named)


@pytest.mark.parametrize("name", ["zero", "one", "identity", "bounded_tanh", "osgood"])
def test_builtin_scalar_maps_leave_their_argument_unchanged(name):
    # f and sigma get rows of a run's field buffer, which a point block's z_map
    # reads after them: a map must not write into its argument
    x = np.random.default_rng(9).normal(scale=0.2, size=(7, 64))
    x[0, :6] = [0.0, -0.0, E2, -E2, 1e-300, np.nan]
    before = x.tobytes()
    cs = builtin_coefficients(f=name, sigma=name)
    cs.f(x)
    assert x.tobytes() == before
    cs.f(x[1:, ::2])   # a strided view too
    assert x.tobytes() == before


@pytest.mark.parametrize("kind", ["separable", "linear"])
def test_z_map_writes_into_out(kind):
    kern = builtin_coefficients(kernel=kind).kernel_b
    assert kern.z_map is (np.tanh if kind == "separable" else np.positive)   # the ufunc itself
    z = np.random.default_rng(4).normal(scale=3.0, size=129)
    out = np.full(129, np.nan)
    assert kern.z_map(z, out) is out
    assert out.tobytes() == kern.z_map(z).tobytes()
    own = z.copy()   # in place on its own input, as the instant fixed point calls it
    assert kern.z_map(own, own) is own and own.tobytes() == out.tobytes()


def test_moduli_shapes():
    assert float(osgood_modulus(0.0)) == 0.0
    assert float(osgood_modulus(E2)) == pytest.approx(2.0 * E2, rel=1e-15)
    assert float(osgood_modulus(1.0)) == pytest.approx(1.0 + E2, rel=1e-15)
    with pytest.raises(DomainError):
        osgood_modulus(-0.5)
    assert float(linear_modulus(0.3)) == 0.3
    with pytest.raises(DomainError, match="modulus argument must be nonnegative"):
        linear_modulus(np.array([0.5, -1e-300]))

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

    with pytest.raises(ConfigError, match="^n_samples = 0 must be >= 1$"):
        modulus_bound_check(builtin_coefficients(), 0, gen)
    with pytest.raises(ConfigError, match=re.escape("mixture = 1.5 out of range [0, 1]")):
        modulus_bound_check(builtin_coefficients(), 10, gen, mixture=1.5)


def test_osgood_integral_and_certificate():
    cs = builtin_coefficients()
    # int_eps^1 ds/(-s ln s) telescopes to ln ln(1/eps) - ln 2 on the core
    # branch plus a fixed tail from the linear continuation
    tail = 2.0 - math.log(2.0) + math.log1p(E2)
    for k in (2, 3):
        got = osgood_integral(cs, math.exp(-math.exp(k)))
        assert got == pytest.approx(k - math.log(2.0) + tail, rel=1e-9)
    with pytest.raises(ConfigError, match=re.escape("eps = 1.5 out of range (0, 1)")):
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


def _vanishing_at_zero(core):
    """The modulus that is core(s) for s > 0 and 0 at 0."""

    def modulus(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0.0, core(np.where(s > 0.0, s, 1.0)), 0.0)

    return modulus


def _log_log(s):   # smooth in w = ln(1/s), no closed form
    lg = np.log(1.0 / s + math.e)
    return s * lg * np.log(lg + math.e)


_OSGOOD_TAIL = 2.0 - math.log(2.0) + math.log1p(E2)   # int_{e^-2}^1 ds / (s + e^-2)

# name: (modulus, int_eps^1 ds / N(s) in closed form, or None)
_SMOOTH_MODULI = {
    "osgood": (osgood_modulus, lambda e: math.log(math.log(1.0 / e)) - math.log(2.0) + _OSGOOD_TAIL
               if e < E2 else math.log1p(E2) - math.log(e + E2)),
    "linear": (linear_modulus, lambda e: math.log(1.0 / e)),
    "square": (lambda s: np.asarray(s, dtype=float) ** 2, lambda e: 1.0 / e - 1.0),
    "sqrt": (lambda s: np.sqrt(np.asarray(s, dtype=float)), lambda e: 2.0 * (1.0 - math.sqrt(e))),
    "log_squared": (_vanishing_at_zero(lambda s: s * np.log(math.e / s) ** 2),
                    lambda e: 1.0 - 1.0 / (1.0 + math.log(1.0 / e))),
    "log_log": (_vanishing_at_zero(_log_log), None),
}

# the certificate's eps_k = e^{-e^k}, k = 1..5, and one eps above e^{-2}, where
# ln(1/eps) < 2 and no panel lies past the junction
_RULE_EPS = [math.exp(-math.exp(k)) for k in range(1, 6)] + [0.3]


@pytest.mark.parametrize("name", sorted(_SMOOTH_MODULI))
def test_osgood_integral_matches_quad_and_closed_forms(name):
    modulus, exact = _SMOOTH_MODULI[name]
    cs = CoefficientSet(f=np.tanh, sigma=np.tanh, kernel_b=None, modulus_N=modulus)
    for eps in _RULE_EPS:
        got = osgood_integral(cs, eps)
        w_max = math.log(1.0 / eps)
        want, _ = quad(lambda w: math.exp(-w) / float(modulus(math.exp(-w))), 0.0, w_max,
                       points=[2.0] if w_max > 2.0 else None, limit=400)
        assert abs(got - want) <= 1e-13 * want, (eps, got, want)
        if exact is not None:
            assert abs(got - exact(eps)) <= 1e-13 * exact(eps), (eps, got, exact(eps))


def test_osgood_integral_refuses_a_modulus_it_cannot_resolve():
    # kinked at s = 0.3, inside a panel: halving the panels moves the sum by 1e-7 to 4e-6
    kinked = CoefficientSet(f=np.tanh, sigma=np.tanh, kernel_b=None,
                            modulus_N=lambda s: np.minimum(s, 0.3 + 0.1 * (np.asarray(s) - 0.3)))
    for eps in _RULE_EPS[:5]:
        with pytest.raises(DomainError, match=f"eps = {re.escape(repr(eps))} is unresolved"):
            osgood_integral(kinked, eps)
    # from the kink on the modulus is 0.27 + 0.1 s, and the rule resolves it
    assert osgood_integral(kinked, 0.3) == pytest.approx(10.0 * math.log(0.37 / 0.3), rel=1e-13)


def test_eval_f_matches_adaptive_quadrature():
    op = assemble_operator(n_modes=4)
    cs = builtin_coefficients(f="bounded_tanh", sigma="one", kernel="zero")
    coeffs = np.array([0.4, -0.2, 0.1, 0.05])

    def field(x):
        n = np.arange(1, 5)
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(np.atleast_1d(x), n)) @ coeffs

    grid = GridMaps(cs, op).grid
    got = grid.project @ cs.f(coeffs @ grid.synth.T)
    for k in range(1, 5):
        want = quad(lambda x: math.tanh(field(x)[0]) * math.sqrt(2.0) * math.sin(k * np.pi * x),
                    0.0, 1.0, epsabs=1e-12, epsrel=1e-12)[0]
        assert got[k - 1] == pytest.approx(want, abs=1e-8)


def test_eval_sigma_is_grid_field():
    op = assemble_operator(n_modes=4)
    cs = builtin_coefficients(sigma="one")
    out = cs.sigma(np.zeros(4) @ GridMaps(cs, op).grid.synth.T)
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
    got = maps.profile * maps.mass(coeffs)
    # c sin(pi x) = (c/sqrt2) e_1: only the first mode is hit
    assert got[0] == pytest.approx(c / math.sqrt(2.0) * mass, abs=1e-9)
    assert np.max(np.abs(got[1:])) <= 1e-12

    none = GridMaps(builtin_coefficients(kernel="zero"), op)
    assert none.g_mode == "none"
    assert not (none.profile * none.mass(coeffs)).any()

    # linear kernel: g is linear in u, and its mass is int_0^1 u dx, where
    # int e_1 = sqrt2 * 2/pi and int e_2 = 0
    lin = GridMaps(builtin_coefficients(kernel="linear", kernel_scale=c), op)
    got_lin = lin.profile * lin.mass(coeffs)
    assert np.array_equal(lin.profile * lin.mass(2.0 * coeffs), 2.0 * got_lin)
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
    q = builtin_qwiener(8, trace=1.0)
    gen = RngStream(31, 0).generator()
    assert growth_check(cs, op, 200, gen, qspec=q, h=0.1) <= 1.0


def _lipschitz_reference(cs, op, n_samples, gen, h):
    """lipschitz_probe_g one random pair at a time: (estimate, pairs used)."""
    maps = GridMaps(cs, op)
    node = -1 if maps.g_mode == "instant" else 0   # the node g reads
    best, used = 0.0, 0
    for _ in range(n_samples):
        s1 = random_segments(op, h, h / 4.0, gen, 1.0)
        s2 = random_segments(op, h, h / 4.0, gen, 1.0)
        denom = float(sup_norm(s1 - s2))
        if denom < 1e-12:
            continue
        g1, g2 = (maps.profile * maps.mass(s[node]) for s in (s1, s2))
        best = max(best, fractional_norm(op, g1 - g2, 0.5) / denom)
        used += 1
    return best, used


def _growth_reference(cs, op, n_samples, gen, qspec, h):
    """growth_check one random window at a time."""
    grid = GridMaps(cs, op).grid
    density = np.einsum("k,jk->j", qspec.lambdas, grid.synth ** 2)
    worst = 0.0
    for amp in 10.0 ** gen.uniform(-3.0, 2.0, size=n_samples):
        seg = random_segments(op, h, h / 4.0, gen, amp)
        field = seg[0] @ grid.synth.T   # theta = -h
        f_norm = math.sqrt(float(grid.weights @ cs.f(field) ** 2))
        s_norm = math.sqrt(float(grid.weights @ (cs.sigma(field) ** 2 * density)))
        worst = max(worst, (f_norm + s_norm) / (1.0 + float(sup_norm(seg))))
    return worst


class _Replay:
    """Generator stand-in handing out a fixed sequence of normals in order."""

    def __init__(self, values):
        self.values, self.pos = values.ravel(), 0

    def standard_normal(self, shape):
        k = math.prod(shape)
        self.pos += k
        return self.values[self.pos - k:self.pos].reshape(shape)


@pytest.mark.parametrize("kernel, delay, f, sigma", [
    ("separable", "point", "osgood", "osgood"),
    ("separable", "instant", "bounded_tanh", "one"),
    ("linear", "point", "identity", "bounded_tanh"),
    ("zero", "point", "zero", "osgood"),
])
def test_probes_equal_a_per_segment_loop(kernel, delay, f, sigma):
    op = assemble_operator(n_modes=8)
    q = builtin_qwiener(8, trace=0.5)
    cs = builtin_coefficients(f=f, sigma=sigma, kernel=kernel, kernel_delay=delay,
                              kernel_scale=0.2)
    for n, h in ((1, 0.1), (60, 0.05)):
        gen, ref = RngStream(77, n).generator(), RngStream(77, n).generator()
        rep = lipschitz_probe_g(cs, op, n, gen, h=h)
        best, used = _lipschitz_reference(cs, op, n, ref, h)
        assert rep.n_used == used == n
        assert abs(rep.estimate - best) <= 1e-15
        assert np.array_equal(gen.random(4), ref.random(4))   # the same next draw
        growth = growth_check(cs, op, n, gen, qspec=q, h=h)
        assert abs(growth - _growth_reference(cs, op, n, ref, q, h)) <= 1e-15
        assert np.array_equal(gen.random(4), ref.random(4))   # the same next draw

    # pairs that coincide are skipped, as in the loop
    z = np.random.default_rng(8).standard_normal((30, 2, 3, 8))
    z[::3, 1] = z[::3, 0]
    rep = lipschitz_probe_g(cs, op, 30, _Replay(z), h=0.05)
    best, used = _lipschitz_reference(cs, op, 30, _Replay(z), 0.05)
    assert rep.n_used == used == 20
    assert abs(rep.estimate - best) <= 1e-15


@pytest.mark.parametrize("count", [10.5, True])
@pytest.mark.parametrize("probe", ["modulus_bound_check", "lipschitz_probe_g", "growth_check"])
def test_probe_sample_counts_must_be_integers(probe, count):
    # a float count failed late with numpy's or range's bare TypeError
    cs, op = builtin_coefficients(grid_points=32), assemble_operator(n_modes=4)
    gen = RngStream(7, 0).generator()
    call = {"modulus_bound_check": lambda n: modulus_bound_check(cs, n, gen),
            "lipschitz_probe_g": lambda n: lipschitz_probe_g(cs, op, n, gen, h=0.05),
            "growth_check": lambda n: growth_check(cs, op, n, gen,
                                                   qspec=builtin_qwiener(4), h=0.05)}[probe]
    with pytest.raises(ConfigError, match="^n_samples must be an integer$"):
        call(count)
    with pytest.raises(ConfigError, match="^n_samples = 0 must be >= 1$"):
        call(0)   # an integer count, but no sample
