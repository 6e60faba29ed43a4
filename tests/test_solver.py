"""Time stepper, successive approximations and contraction-window arithmetic."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfde import (BlowupError, ConfigError, DomainError, HorizonResult,
                   NonconvergenceError, RngStream, Segment, ShapeError,
                   SolverConfig, assemble_operator, builtin_coefficients,
                   constant_segment, contraction_factor, find_horizon,
                   from_initial_condition, ou_std, picard_run, power_qwiener,
                   simulate, stability_bound, zero_segment)

OP4 = assemble_operator(n_modes=4)
Q4 = power_qwiener(4, trace_target=0.5)
LINEAR = builtin_coefficients(f="zero", sigma="zero", kernel="zero")


def test_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_end=0.05)  # less than one step
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_end=1.0, mode="euler")
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_end=1.0, fp_tol=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=0.1, t_end=1.0, store_stride=0)
    with pytest.raises(ConfigError, match="solver.t_end"):
        SolverConfig(dt=0.3, t_end=1.0)  # 3.33 steps: would stop at 0.9
    with pytest.raises(ConfigError, match="solver.t_end"):
        SolverConfig(dt=0.1, t_end=1.05)
    assert SolverConfig(dt=0.1, t_end=1.0).n_steps == 10
    assert SolverConfig(dt=0.3, t_end=0.3).n_steps == 1
    assert SolverConfig(dt=1e-3, t_end=0.5).n_steps == 500


def test_initial_segment_checks():
    cfg = SolverConfig(dt=0.01, t_end=0.1)
    with pytest.raises(ShapeError):
        simulate(zero_segment(0.05, 0.01, 3), LINEAR, OP4, Q4, cfg, RngStream(0, 0))
    with pytest.raises(ConfigError):
        simulate(zero_segment(0.05, 0.005, 4), LINEAR, OP4, Q4, cfg, RngStream(0, 0))
    with pytest.raises(ShapeError):
        simulate(zero_segment(0.05, 0.01, 4), LINEAR, OP4, Q4, cfg, RngStream(0, 0),
                 noise_z=np.zeros((3, 4)))


def test_zero_dynamics_stays_zero():
    cfg = SolverConfig(dt=0.01, t_end=0.5)
    cs = builtin_coefficients(f="zero", sigma="zero", kernel="separable")
    traj = simulate(zero_segment(0.05, 0.01, 4), cs, OP4, Q4, cfg, RngStream(1, 0))
    assert not traj.snapshots.any()
    assert not traj.seg_norms.any()
    assert not traj.final_segment.values.any()


def test_pure_decay_matches_semigroup():
    # drift, diffusion and the neutral term all off: u(t) = e^{-mu t} u(0)
    cfg = SolverConfig(dt=0.01, t_end=1.0)
    u0 = np.array([1.0, -0.5, 0.25, 2.0])
    traj = simulate(constant_segment(0.05, 0.01, u0), LINEAR, OP4, Q4, cfg,
                    RngStream(2, 0))
    want = np.exp(-np.outer(traj.times, OP4.eigenvalues)) * u0
    assert np.allclose(traj.snapshots, want, rtol=1e-12, atol=1e-300)


def test_ou_recursion_matches_manual_replay():
    cs = builtin_coefficients(f="zero", sigma="one", kernel="zero")
    cfg = SolverConfig(dt=0.01, t_end=0.3)
    st_ = RngStream(40, 0)
    traj = simulate(zero_segment(0.05, 0.01, 4), cs, OP4, Q4, cfg, st_)

    z = st_.generator().standard_normal((30, 4))
    decay = np.exp(-OP4.eigenvalues * 0.01)
    std = ou_std(Q4, OP4, 0.01)
    u = np.zeros(4)
    for i in range(30):
        u = decay * u + std * z[i]
        assert np.allclose(traj.snapshots[i + 1], u, rtol=1e-13, atol=0.0)


def test_noise_block_override_replays_exactly():
    cs = builtin_coefficients(kernel_scale=0.2)
    cfg = SolverConfig(dt=0.01, t_end=0.2)
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.1}, 0.05, 0.01, OP4)
    st_ = RngStream(77, 4)
    a = simulate(ini, cs, OP4, Q4, cfg, st_)
    z = st_.generator().standard_normal((20, 4))
    b = simulate(ini, cs, OP4, Q4, cfg, st_, noise_z=z)
    assert np.array_equal(a.snapshots, b.snapshots)
    assert np.array_equal(a.seg_norms, b.seg_norms)


def test_store_stride_and_endpoint_bookkeeping():
    cfg = SolverConfig(dt=0.01, t_end=0.05, store_stride=2)
    traj = simulate(zero_segment(0.05, 0.01, 4), LINEAR, OP4, Q4, cfg, RngStream(3, 0))
    # 5 steps at stride 2: records at steps 2 and 4, the endpoint is off-grid
    assert np.allclose(traj.times, [0.0, 0.02, 0.04])
    assert traj.fp_iters[0] == 0
    assert traj.n_modes == 4

    cfg2 = SolverConfig(dt=0.01, t_end=0.05, store_stride=5, segment_stride=5)
    traj2 = simulate(zero_segment(0.05, 0.01, 4), LINEAR, OP4, Q4, cfg2, RngStream(3, 0))
    assert np.allclose(traj2.times, [0.0, 0.05])
    assert len(traj2.segments) == 1
    assert np.allclose(traj2.segment_times, [0.05])
    assert traj2.segments.shape == (1, 6, 4)
    assert np.array_equal(traj2.segments[0, -1], traj2.snapshots[-1])
    assert np.array_equal(traj2.final_segment.values, traj2.segments[0])


def test_single_step_helper_is_pure_decay_for_linear():
    seg = constant_segment(0.05, 0.01, np.array([1.0, 0.0, -1.0, 0.5]))
    cfg = SolverConfig(dt=0.01, t_end=0.01)
    traj = simulate(seg, LINEAR, OP4, Q4, cfg, RngStream(8, 0),
                    collect_fp_residuals=True)
    assert traj.fp_iters[-1] == 0 and traj.fp_residuals == [[]]
    assert np.allclose(traj.snapshots[-1], np.exp(-OP4.eigenvalues * 0.01) * seg.head(),
                       rtol=1e-14)


def test_blowup_guard_raises():
    cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_threshold=1e-6)
    ini = constant_segment(0.05, 0.01, np.ones(4))
    with pytest.raises(BlowupError):
        simulate(ini, LINEAR, OP4, Q4, cfg, RngStream(4, 0))


def test_fixed_point_nonconvergence_raises():
    cs = builtin_coefficients(kernel_scale=0.265, kernel_delay="instant", Mg=0.55)
    cfg = SolverConfig(dt=0.01, t_end=0.1, fp_tol=1e-12, fp_max=2)
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.2}, 0.05, 0.01, OP4)
    with pytest.raises(NonconvergenceError):
        simulate(ini, cs, OP4, Q4, cfg, RngStream(5, 0))


def test_point_and_instant_kernels_differ_but_stay_close_for_small_dt():
    # same dynamics class, different read node; with a slowly varying path
    # the two runs agree to O(h) but are not identical
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.3}, 0.05, 0.01, OP4)
    cfg = SolverConfig(dt=0.01, t_end=0.3)
    pt = simulate(ini, builtin_coefficients(kernel_scale=0.1, sigma="zero"),
                  OP4, Q4, cfg, RngStream(6, 0))
    inst = simulate(ini, builtin_coefficients(kernel_scale=0.1, sigma="zero",
                                              kernel_delay="instant"),
                    OP4, Q4, cfg, RngStream(6, 0))
    gap = np.max(np.linalg.norm(pt.snapshots - inst.snapshots, axis=1))
    assert 0.0 < gap < 0.05
    assert inst.fp_iters.max() >= 2  # the implicit branch actually iterated


def test_picard_mode_gate_and_iterate_count():
    cfg = SolverConfig(dt=0.01, t_end=0.1, mode="picard", picard_iters=4)
    ini = zero_segment(0.05, 0.01, 4)
    out = picard_run(ini, builtin_coefficients(), OP4, Q4, cfg, RngStream(9, 0))
    assert len(out) == 5
    assert math.isnan(out[0][1])
    with pytest.raises(ConfigError):
        picard_run(ini, builtin_coefficients(), OP4, Q4,
                   SolverConfig(dt=0.01, t_end=0.1), RngStream(9, 0))


def test_picard_is_exact_when_forcing_is_off():
    # without drift and diffusion, iterate 0 already solves the equation, so
    # every later sweep reproduces it bit for bit
    cs = builtin_coefficients(f="zero", sigma="zero", kernel_scale=0.2)
    cfg = SolverConfig(dt=0.01, t_end=0.2, mode="picard", picard_iters=3)
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.4}, 0.05, 0.01, OP4)
    out = picard_run(ini, cs, OP4, Q4, cfg, RngStream(10, 0))
    assert all(d == 0.0 for _, d in out[1:])


def test_picard_matches_direct_on_shared_noise():
    cs = builtin_coefficients(kernel_scale=0.2)
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.2}, 0.05, 0.01, OP4)
    cfg = SolverConfig(dt=0.01, t_end=0.3, mode="picard", picard_iters=10)
    final = picard_run(ini, cs, OP4, Q4, cfg, RngStream(11, 0))[-1][0]
    direct = simulate(ini, cs, OP4, Q4, SolverConfig(dt=0.01, t_end=0.3),
                      RngStream(11, 0))
    gap = np.max(np.linalg.norm(final.snapshots - direct.snapshots, axis=1))
    assert gap <= 1e-9


def test_picard_store_stride_keeps_every_kth_row():
    cs = builtin_coefficients(kernel_scale=0.2)
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.2}, 0.05, 0.01, OP4)
    runs = [picard_run(ini, cs, OP4, Q4,
                       SolverConfig(dt=0.01, t_end=0.3, mode="picard", picard_iters=3,
                                    store_stride=k), RngStream(14, 0))
            for k in (1, 5)]
    for (full, d_full), (thin, d_thin) in zip(*runs):
        for name in ("times", "snapshots", "seg_norms", "fp_iters"):
            assert np.array_equal(getattr(thin, name), getattr(full, name)[::5])
        assert np.array_equal(thin.final_segment.values, full.final_segment.values)
        assert d_thin == d_full or (math.isnan(d_thin) and math.isnan(d_full))


def test_picard_iterates_equal_simulate_without_drift_and_state_noise():
    # with f = 0 and sigma = 1 the previous iterate feeds nothing, so every
    # sweep from 1 on is the direct run on the same noise
    cs = builtin_coefficients(f="zero", sigma="one", kernel_scale=0.2)
    ini = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                  "amplitude": 0.4}, 0.05, 0.01, OP4)
    cfg = SolverConfig(dt=0.01, t_end=0.2, mode="picard", picard_iters=3)
    direct = simulate(ini, cs, OP4, Q4, cfg, RngStream(15, 0))
    for traj, _ in picard_run(ini, cs, OP4, Q4, cfg, RngStream(15, 0))[1:]:
        for name in ("times", "snapshots", "seg_norms", "fp_iters"):
            assert np.array_equal(getattr(traj, name), getattr(direct, name))
        assert np.array_equal(traj.final_segment.values, direct.final_segment.values)


@given(scale=st.floats(-4.0, 4.0))
@settings(max_examples=40, deadline=None)
def test_linear_dynamics_scale_equivariance(scale):
    # with every nonlinearity off the solve is linear in the initial window
    cfg = SolverConfig(dt=0.01, t_end=0.2)
    u0 = np.array([0.7, -0.3, 0.2, 0.1])
    base = simulate(constant_segment(0.05, 0.01, u0), LINEAR, OP4, Q4, cfg,
                    RngStream(12, 0))
    scaled = simulate(constant_segment(0.05, 0.01, scale * u0), LINEAR, OP4, Q4,
                      cfg, RngStream(12, 0))
    assert np.allclose(scaled.snapshots, scale * base.snapshots,
                       rtol=1e-12, atol=1e-250)


# ---------------------------------------------------- window arithmetic

def test_window_bounds_at_zero_and_validation():
    assert contraction_factor(0.3, 3.0, 0.5, 1.0, 0.0) == 0.3
    assert stability_bound(0.3, 3.0, 0.5, 1.0, 0.0) == 0.3
    for bad in [dict(mg=0.0), dict(mg=1.0), dict(p=2.0), dict(alpha=0.0),
                dict(alpha=1.5), dict(c_frac=0.0)]:
        args = dict(mg=0.3, p=3.0, alpha=0.5, c_frac=1.0)
        args.update(bad)
        with pytest.raises(DomainError):
            contraction_factor(args["mg"], args["p"], args["alpha"],
                               args["c_frac"], 1.0)
    with pytest.raises(DomainError):
        stability_bound(0.3, 3.0, 0.5, 1.0, -1.0)
    # beyond the double range the bounds are infinite, not an OverflowError
    assert stability_bound(0.3, 500.0, 0.5, 1.0, 1e12) == math.inf
    assert contraction_factor(0.3, 28.0, 1.0, 1.0, 1e300) == math.inf


def test_find_horizon_pinned_example():
    # stability is the binding side here; the root was cross-checked against
    # a high-precision bisection
    res = find_horizon(0.2, 3.0, 0.5, 0.4289)
    assert isinstance(res, HorizonResult)
    assert res.horizon == pytest.approx(2.543243206, rel=1e-8)
    assert not res.capped
    assert 0.9999999 <= res.stability < 1.0
    assert res.contraction == pytest.approx(0.232, abs=1e-3)


def test_find_horizon_monotone_in_coupling():
    t_weak = find_horizon(0.3, 3.0, 0.5, 0.5).horizon
    t_strong = find_horizon(0.3, 3.0, 0.5, 1.5).horizon
    assert t_strong < t_weak
    # both returned windows are feasible, slightly larger ones are not
    for mg, c in [(0.3, 0.5), (0.3, 1.5), (0.55, 2.0)]:
        res = find_horizon(mg, 3.0, 0.5, c)
        assert max(res.contraction, res.stability) < 1.0
        t_above = 1.0001 * res.horizon
        assert max(contraction_factor(mg, 3.0, 0.5, c, t_above),
                   stability_bound(mg, 3.0, 0.5, c, t_above)) >= 1.0


def test_find_horizon_is_the_closed_form_root():
    # the 50-digit root of stability_bound = 1; the returned window lies at
    # or below it, within a few ulps, and keeps both bounds below 1
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    gen = RngStream(16, 0).generator()
    tuples = [(gen.uniform(0.1, 0.65), gen.uniform(2.2, 5.0),
               gen.uniform(0.25, 1.0), gen.uniform(0.3, 3.0)) for _ in range(20)]
    # large p: the bounds at the cap 1e12 lie beyond the double range
    tuples += [(0.3, 28.0, 1.0, 1.0), (0.3, 56.0, 0.5, 1.0), (0.3, 500.0, 0.5, 1.0)]
    for mg, p, alpha, c in tuples:
        res = find_horizon(mg, p, alpha, c)
        m_mg, m_p, m_alpha, m_c = map(mp.mpf, (mg, p, alpha, c))
        a = m_mg ** m_p * m_c ** m_p / ((1 - m_mg) ** (m_p - 1) * m_alpha ** m_p)
        root = ((1 - m_mg) / (5 ** (m_p - 1) * a)) ** (1 / (m_alpha * m_p))
        assert not res.capped
        assert mp.mpf(res.horizon) <= root
        assert (root - res.horizon) / root <= 1e-14
        assert res.contraction < 1.0 and res.stability < 1.0


def test_find_horizon_cap():
    res = find_horizon(0.2, 3.0, 0.5, 1e-12)
    assert res.capped
    assert res.horizon == 1e12
    assert max(res.contraction, res.stability) < 1.0


@given(mg=st.floats(0.05, 0.65), p=st.floats(2.1, 5.0),
       alpha=st.floats(0.1, 1.0), c=st.floats(0.05, 3.0))
@settings(max_examples=60, deadline=None)
def test_window_bounds_increase_with_horizon(mg, p, alpha, c):
    t1, t2 = 0.7, 1.3
    assert contraction_factor(mg, p, alpha, c, t1) <= contraction_factor(mg, p, alpha, c, t2)
    assert stability_bound(mg, p, alpha, c, t1) <= stability_bound(mg, p, alpha, c, t2)
    assert contraction_factor(mg, p, alpha, c, 0.0) == mg
