"""Operator assembly, semigroup algebra and the fractional decay envelope."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfde import (ConfigError, DomainError, EllipticityError, RngStream,
                   ShapeError, SolverConfig, SpectralOperator, assemble_operator,
                   builtin_coefficients, builtin_qwiener, constant_segment, decay_constants,
                   frac_semigroup_norm, fractional_norm, parse_config,
                   semigroup_apply, simpson_weights, simulate)


def test_constant_coefficient_spectrum_is_analytic():
    op = assemble_operator(n_modes=8)
    n = np.arange(1, 9, dtype=float)
    assert np.array_equal(op.eigenvalues, (n * np.pi) ** 2)

    op2 = assemble_operator(n_modes=4, a=2.0)
    assert np.allclose(op2.eigenvalues, 2.0 * (np.arange(1, 5) * np.pi) ** 2,
                       rtol=1e-15)
    for a in (np.int64(2), np.float32(2.0)):   # any real scalar is the constant
        assert np.array_equal(assemble_operator(n_modes=4, a=a).eigenvalues, op2.eigenvalues)


def test_semigroup_scalar_example():
    op = assemble_operator(n_modes=1)
    out = semigroup_apply(op, 0.1, np.array([1.0]))
    assert out[0] == pytest.approx(0.3727078, abs=5e-8)
    assert out[0] == math.exp(-np.pi ** 2 * 0.1)


@given(t=st.floats(0.0, 5.0), scale=st.floats(-3.0, 3.0))
@settings(max_examples=50, deadline=None)
def test_semigroup_apply_matches_per_mode_exponentials(t, scale):
    op = assemble_operator(n_modes=6)
    coeffs = scale * np.linspace(1.0, -1.0, 6)
    got = semigroup_apply(op, t, coeffs)
    want = np.exp(-op.eigenvalues * t) * coeffs
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


def test_fractional_norm_examples():
    op = assemble_operator(n_modes=2)
    # alpha = 1/2 on the first mode: mu_1^{1/2} = pi
    assert fractional_norm(op, np.array([1.0, 0.0]), 0.5) == pytest.approx(np.pi, rel=1e-15)
    # alpha = -1 inverts the spectrum
    inv = fractional_norm(op, np.array([1.0, 1.0]), -1.0)
    assert inv == pytest.approx(math.hypot(1.0 / np.pi ** 2, 1.0 / (4.0 * np.pi ** 2)),
                                rel=1e-15)
    with pytest.raises(ShapeError, match="mode vector has length 3, operator has 2 modes"):
        fractional_norm(op, np.ones(3))


def test_frac_semigroup_norm_examples():
    op = assemble_operator(n_modes=8)
    # alpha = 0: plain semigroup norm e^{-mu_1 t}
    assert frac_semigroup_norm(op, 0.0, 0.3) == pytest.approx(math.exp(-np.pi ** 2 * 0.3), rel=1e-14)
    # large t: the first mode dominates, sup = mu_1^{1/2} e^{-mu_1 t}
    got = frac_semigroup_norm(op, 0.5, 1.0)
    assert got == pytest.approx(np.pi * math.exp(-np.pi ** 2), rel=1e-14)
    assert got == pytest.approx(1.6249e-4, rel=1e-3)
    # small t: the continuous envelope (alpha/(e t))^alpha is attained when
    # its maximizer alpha/t clears the bottom of the spectrum
    t_small = 0.5 / np.pi ** 2 * 0.9
    bound = (0.5 / (math.e * t_small)) ** 0.5
    assert frac_semigroup_norm(op, 0.5, t_small) <= bound
    for t in (0.0, -0.1):
        with pytest.raises(ConfigError, match=f"^t = {t!r} out of range"):
            frac_semigroup_norm(op, 0.5, t)
    for alpha in (-0.1, 1.1):
        with pytest.raises(ConfigError, match=re.escape(f"alpha = {alpha!r} out of range [0, 1]")):
            frac_semigroup_norm(op, alpha, 0.3)


def test_semigroup_at_time_zero_returns_a_new_array_bit_for_bit():
    op = assemble_operator(n_modes=4)
    v = np.array([1.5, -0.0, 3e-310, -2.0])
    out = semigroup_apply(op, 0.0, v)
    assert out is not v and out.tobytes() == v.tobytes()   # -0.0 and the subnormal kept
    with pytest.raises(ConfigError, match=re.escape("t = -1e-300 out of range [0, inf)")):
        semigroup_apply(op, -1e-300, v)


def test_decay_constant_examples():
    op = assemble_operator(n_modes=8)
    c0, delta0 = decay_constants(op, 0.0)
    assert (c0, delta0) == (1.0, op.delta)
    assert delta0 == pytest.approx(np.pi ** 2 / 2.0, rel=1e-15)
    c1, _ = decay_constants(op, 1.0)
    assert c1 == pytest.approx(2.0 / math.e, rel=1e-12)
    for alpha in (-0.1, 1.1):
        with pytest.raises(ConfigError, match=re.escape(f"alpha = {alpha!r} out of range [0, 1]")):
            decay_constants(op, alpha)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_decay_bound_holds_on_log_grid(alpha):
    op = assemble_operator(n_modes=8)
    c_a, delta = decay_constants(op, alpha)
    ts = np.logspace(-8.0, 3.0, 400)
    lhs = np.array([frac_semigroup_norm(op, alpha, t) for t in ts])
    with np.errstate(over="ignore"):
        rhs = c_a * ts ** (-alpha) * np.exp(-delta * ts)
    assert np.all(lhs <= rhs)


# ---- variable-coefficient assembly vs an independent construction ----

def _analytic_stiffness(n):
    """Exact sine-basis stiffness of -(a u')' with a(x) = 1 + x/2 on (0, 1).

    K_nn = 1.25 n^2 pi^2; K_mn = -mn [ (m-n)^{-2} + (m+n)^{-2} ] for odd
    m - n, zero otherwise (basis sqrt2 sin(n pi x)).
    """
    k = np.zeros((n, n))
    for m in range(1, n + 1):
        for j in range(1, n + 1):
            if m == j:
                k[m - 1, j - 1] = 1.25 * m * m * np.pi ** 2
            elif (m - j) % 2 == 1:
                k[m - 1, j - 1] = -m * j * (1.0 / (m - j) ** 2 + 1.0 / (m + j) ** 2)
    return k


@pytest.mark.parametrize("n", [8, 64])
def test_variable_coefficient_eigenvalues(n):
    exact = np.sort(scipy.linalg.eigvalsh(_analytic_stiffness(n)))
    op = assemble_operator(n_modes=n, a=[[0.0, 1.0], [1.0, 1.5]])   # 1 + x/2 exactly
    assert np.max(np.abs(op.eigenvalues - exact) / exact) <= 1e-6


def test_variable_coefficient_tabulated_form():
    xs = np.linspace(0.0, 1.0, 257)
    table = np.column_stack([xs, 1.0 + 0.5 * xs])
    op_t = assemble_operator(n_modes=8, a=table)
    op_c = assemble_operator(n_modes=8, a=[[0.0, 1.0], [1.0, 1.5]])
    assert np.max(np.abs(op_t.eigenvalues - op_c.eigenvalues) / op_c.eigenvalues) <= 1e-9


def test_variable_coefficient_grid_and_semigroup():
    op = assemble_operator(n_modes=6, a=[[0.0, 1.0], [0.5, 2.0], [1.0, 1.5]])
    grid = op.grid()
    # synthesis in the rotated eigenbasis stays inverse to projection
    assert np.max(np.abs(grid.project @ grid.synth - np.eye(6))) <= 1e-12

    u0 = np.array([1.0, -0.5, 0.25, 0.2, -0.1, 0.05])
    cfg = SolverConfig(dt=0.01, t_end=0.2)
    traj = simulate(constant_segment(0.05, 0.01, u0),
                    builtin_coefficients(f="zero", sigma="zero", kernel="zero"),
                    op, builtin_qwiener(6, trace=0.5), cfg, RngStream(5, 0))
    exact = semigroup_apply(op, 0.2, u0)
    assert np.linalg.norm(traj.snapshots[-1] - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_quadrature_grid_must_exceed_twice_the_mode_count(n):
    op = assemble_operator(n_modes=n)
    grid = op.grid(2 * n + 2)
    # measured worst case over N = 4..64: 5.1e-15, at N = 64
    assert np.max(np.abs(grid.project @ grid.synth - np.eye(n))) <= 1e-14
    # sin(j pi x) sin(k pi x) with j + k = 2N is not integrated exactly; the grid and
    # the config refuse a count with one message
    for count, needle in ((2 * n, f"must exceed 2 * operator.n_modes = {2 * n}"),
                          (2 * n + 3, "must be even")):
        message = f"coefficients.grid_points = {count} {needle}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            op.grid(count)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config({"operator": {"n_modes": n}, "coefficients": {"grid_points": count}})


def test_an_operator_made_by_replace_builds_its_own_grid():
    # replace passes the fields to a new operator: its grid is that of a freshly built
    # operator with the same fields, not one the first operator built
    op = assemble_operator(n_modes=4)
    table = assemble_operator(n_modes=4, a=[[0.0, 1.0], [0.5, 2.0], [1.0, 1.5]])
    for old, new, fresh in (
            (op, replace(op, eigenvalues=op.eigenvalues[:2]),
             SpectralOperator(eigenvalues=op.eigenvalues[:2], delta=op.delta)),
            (table, replace(table, mix=-table.mix),
             SpectralOperator(eigenvalues=table.eigenvalues, delta=table.delta,
                              mix=-table.mix))):
        for n_grid in (None, 16):
            old.grid(n_grid)
            got, want = new.grid(n_grid), fresh.grid(n_grid)
            assert got.synth.shape == (want.x.size, new.n_modes)
            for name in ("x", "weights", "synth", "project"):
                assert np.array_equal(getattr(got, name), getattr(want, name))


def test_ellipticity_rejected():
    with pytest.raises(EllipticityError):
        assemble_operator(n_modes=4, a=[[0.0, 0.5], [1.0, -0.5]])
    with pytest.raises(EllipticityError):
        assemble_operator(n_modes=4, a=0.0)


TABLE4 = assemble_operator(n_modes=4, a=[[0.0, 1.0], [1.0, 2.0]])


@pytest.mark.parametrize("build, error, needle", [
    (lambda: SpectralOperator(eigenvalues=[], delta=0.5), ShapeError,
     "eigenvalues must be a nonempty 1-d array"),
    (lambda: SpectralOperator(eigenvalues=[[1.0, 2.0]], delta=0.5), ShapeError,
     "eigenvalues must be a nonempty 1-d array"),
    (lambda: SpectralOperator(eigenvalues=[0.0, 1.0], delta=0.5), DomainError,
     "eigenvalues of -A must be strictly positive"),
    (lambda: SpectralOperator(eigenvalues=[2.0, 1.0], delta=0.5), DomainError,
     "eigenvalues must be sorted in nondecreasing order"),
    (lambda: SpectralOperator(eigenvalues=[1.0, 2.0], delta=1.0), DomainError,
     "spectral-gap delta must satisfy 0 < delta < mu_1"),
    # the mixing is an (N, N) change of basis: a wider one would synthesize 5 columns
    (lambda: SpectralOperator(eigenvalues=[1.0, 2.0], delta=0.5, mix=np.ones((2, 5))),
     ShapeError, "mix has shape (2, 5), operator has 2 modes: it must be (2, 2)"),
    (lambda: SpectralOperator(eigenvalues=[1.0, 2.0], delta=0.5, mix=np.ones(2)),
     ShapeError, "mix has shape (2,), operator has 2 modes: it must be (2, 2)"),
    # a table operator cut to its first modes keeps its 4 x 4 mixing
    (lambda: replace(TABLE4, eigenvalues=TABLE4.eigenvalues[:2]), ShapeError,
     "mix has shape (4, 4), operator has 2 modes: it must be (2, 2)"),
    (lambda: assemble_operator(n_modes=0), ConfigError, "operator.n_modes = 0 must be >= 1"),
    (lambda: assemble_operator(delta_fraction=1.0), ConfigError,
     "delta_fraction = 1.0 out of range (0, 1)"),
    (lambda: assemble_operator(delta_fraction=0.0), ConfigError,
     "operator.delta_fraction = 0.0 out of range (0, 1)"),
    (lambda: assemble_operator(n_modes=4, a=[[0.0, 1.0]]), ConfigError,
     "operator.a must be a number or a list of (x, a) pairs"),
    # a diffusivity is a number or a table: a callable, text or a bool is neither
    (lambda: assemble_operator(n_modes=4, a=lambda x: 1.0 + 0.5 * x), ConfigError,
     "operator.a must be a number or a list of (x, a) pairs"),
    (lambda: assemble_operator(n_modes=4, a="[[0, 1], [1, 2]]"), ConfigError,
     "operator.a must be a number or a list of (x, a) pairs"),
    (lambda: assemble_operator(n_modes=4, a=True), ConfigError,
     "operator.a must be a number or a list of (x, a) pairs"),
    (lambda: assemble_operator(n_modes=4, a=np.nan), EllipticityError,
     "operator.a = nan must be positive and finite"),
    (lambda: assemble_operator(n_modes=4, a=np.inf), EllipticityError,
     "operator.a = inf must be positive and finite"),
    (lambda: assemble_operator(n_modes=4, a=[[0, 1], [1, np.inf]]), ConfigError,
     "operator.a must be a number or a list of (x, a) pairs of finite numbers"),
    # finite and positive, but too large for doubles: the stiffness matrix overflows
    (lambda: assemble_operator(n_modes=4, a=[[0, 1], [0.5, 1.0e308], [1, 1]]), ConfigError,
     "operator.a: the table's values overflow the stiffness matrix"),
    # positive, but the stiffness products underflow to an all-zero spectrum, which the
    # operator refuses as any spectrum of -A that is not strictly positive
    (lambda: assemble_operator(n_modes=4, a=[[0, 5e-324], [1, 5e-324]]), DomainError,
     "eigenvalues of -A must be strictly positive"),
])
def test_operator_constructors_refuse_bad_arguments(build, error, needle):
    with pytest.raises(error, match=re.escape(needle)):
        build()


def test_a_table_of_tiny_positive_values_still_builds():
    # 5e-324 underflows to an all-zero spectrum (refused above); these do not
    for a in (1e-320, 1e-300):
        assert assemble_operator(n_modes=4, a=[[0, a], [1, a]]).eigenvalues[0] > 0.0


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_a_table_dipping_between_the_assembly_nodes_is_refused(n):
    table = [[0.0, 1.0], [0.5001, -0.0001], [1.0, 1.0]]
    xs, vals = np.array(table).T
    assert np.interp(np.linspace(0.0, 1.0, 16 * n + 1), xs, vals).min() > 0.0
    with pytest.raises(EllipticityError, match="operator.a = -0.0001 at x = 0.5001 must be"):
        assemble_operator(n_modes=n, a=table)


def test_simpson_weights_integrate_cubics_exactly():
    w = simpson_weights(16)
    x = np.linspace(0.0, 1.0, 17)
    assert w @ x ** 3 == pytest.approx(0.25, rel=1e-15)
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ConfigError, match="^n_intervals = 7 must be even$"):
        simpson_weights(7)  # odd interval count has no composite rule


def test_fractional_norm_is_weighted_l2():
    op = assemble_operator(n_modes=3)
    coeffs = np.array([1.0, 2.0, -1.0])
    want = math.sqrt(float(np.sum(op.eigenvalues * coeffs ** 2)))
    assert fractional_norm(op, coeffs, 0.5) == pytest.approx(want, rel=1e-15)
