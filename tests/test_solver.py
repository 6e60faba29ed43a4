"""Time stepper, successive approximations and contraction-window arithmetic."""
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfde import (BlowupError, ConfigError, GridMaps, HorizonResult,
                   NonconvergenceError, RngStream, Segment, ShapeError,
                   SolverConfig, assemble_operator, builtin_coefficients, builtin_qwiener,
                   constant_segment, contraction_factor, find_horizon,
                   from_initial_condition, osgood_drift, ou_std, picard_run,
                   run_ensemble, simulate, stability_bound, zero_segment)
from nsfde.segment import _window_steps
from nsfde.solver import _window_max

OP4 = assemble_operator(n_modes=4)
Q4 = builtin_qwiener(4, trace=0.5)
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
    for key, val, needle in (("fp_tol", float("nan"), "must be finite"),
                             ("blowup_threshold", float("nan"), "must be finite"),
                             ("blowup_threshold", -1.0, "out of range")):
        with pytest.raises(ConfigError, match=f"solver.{key} = {val!r} {needle}"):
            SolverConfig(dt=0.1, t_end=1.0, **{key: val})
    for key in ("dt", "t_end", "fp_tol", "blowup_threshold"):
        with pytest.raises(ConfigError, match=f"solver.{key} must be a number"):
            SolverConfig(**{"dt": 0.1, "t_end": 1.0, key: True})
    with pytest.raises(ConfigError, match="solver.t_end"):
        SolverConfig(dt=0.3, t_end=1.0)  # 3.33 steps: would stop at 0.9
    with pytest.raises(ConfigError, match="solver.t_end"):
        SolverConfig(dt=0.1, t_end=1.05)
    assert SolverConfig(dt=0.1, t_end=1.0).n_steps == 10
    assert SolverConfig(dt=0.3, t_end=0.3).n_steps == 1
    assert SolverConfig(dt=1e-3, t_end=0.5).n_steps == 500


def test_the_step_count_is_stored_when_the_config_is_built():
    cfg = SolverConfig(dt=0.01, t_end=0.3)
    assert cfg.n_steps == _window_steps(cfg.t_end, cfg.dt) == 30
    assert replace(cfg, t_end=2 * cfg.t_end).n_steps == 2 * cfg.n_steps   # rebuilt, not copied
    with pytest.raises(TypeError):
        SolverConfig(dt=0.01, t_end=0.3, n_steps=5)   # not a parameter
    with pytest.raises(ConfigError, match=re.escape("solver.t_end / solver.dt = 0.5 must be")):
        SolverConfig(dt=1e-3, t_end=5e-4)   # half a step


def test_initial_segment_checks():
    cfg = SolverConfig(dt=0.01, t_end=0.1)
    with pytest.raises(ShapeError):
        simulate(zero_segment(0.05, 0.01, 3), LINEAR, OP4, Q4, cfg, RngStream(0, 0))
    with pytest.raises(ConfigError):
        simulate(zero_segment(0.05, 0.005, 4), LINEAR, OP4, Q4, cfg, RngStream(0, 0))
    with pytest.raises(ShapeError):
        simulate(zero_segment(0.05, 0.01, 4), LINEAR, OP4, Q4, cfg, RngStream(0, 0),
                 noise_z=np.zeros((3, 4)))
    with pytest.raises(ShapeError, match="covariance spectrum and operator truncation"):
        simulate(zero_segment(0.05, 0.01, 4), LINEAR, OP4, builtin_qwiener(3), cfg,
                 RngStream(0, 0))


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
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.1)
    st_ = RngStream(77, 4)
    a = simulate(ini, cs, OP4, Q4, cfg, st_)
    z = st_.generator().standard_normal((20, 4))
    b = simulate(ini, cs, OP4, Q4, cfg, st_, noise_z=z)
    assert np.array_equal(a.snapshots, b.snapshots)
    assert np.array_equal(a.seg_norms, b.seg_norms)


def test_store_stride_and_endpoint_bookkeeping():
    cfg = SolverConfig(dt=0.01, t_end=0.05, store_stride=2)
    traj = simulate(zero_segment(0.05, 0.01, 4), LINEAR, OP4, Q4, cfg, RngStream(3, 0))
    # 5 steps at stride 2: records at steps 2 and 4, and at the off-grid endpoint
    assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.05])
    assert np.array_equal(traj.snapshots[-1], traj.final_segment.head())
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


def test_one_linear_step_is_pure_decay():
    seg = constant_segment(0.05, 0.01, np.array([1.0, 0.0, -1.0, 0.5]))
    cfg = SolverConfig(dt=0.01, t_end=0.01)
    traj = simulate(seg, LINEAR, OP4, Q4, cfg, RngStream(8, 0),
                    collect_fp_residuals=True)
    assert traj.fp_iters[-1] == 0 and traj.fp_residuals == [[]]
    assert np.allclose(traj.snapshots[-1], np.exp(-OP4.eigenvalues * 0.01) * seg.head(),
                       rtol=1e-14)


@pytest.mark.parametrize("kernel_delay", ["point", "instant"])
@pytest.mark.parametrize("t_end", [0.5, 0.55])   # ends on a block boundary; on a 5-step tail
def test_a_run_is_the_first_part_of_a_longer_run_on_its_stream(kernel_delay, t_end):
    # results are independent of chunking: how long a run is changes none of its steps
    cs = builtin_coefficients(kernel_scale=0.2, kernel_delay=kernel_delay)
    ini = from_initial_condition(0.1, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    short, full = (simulate(ini, cs, OP4, Q4, SolverConfig(dt=0.01, t_end=t), RngStream(21, 3))
                   for t in (t_end, 1.0))
    k = short.times.size
    assert k == round(t_end / 0.01) + 1
    for name in ("snapshots", "seg_norms", "fp_iters"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:k]), name


def test_blowup_guard_raises():
    cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_threshold=1e-6)
    ini = constant_segment(0.05, 0.01, np.ones(4))
    with pytest.raises(BlowupError):
        simulate(ini, LINEAR, OP4, Q4, cfg, RngStream(4, 0))


def test_fixed_point_nonconvergence_raises():
    cs = builtin_coefficients(kernel_scale=0.265, kernel_delay="instant", Mg=0.55)
    cfg = SolverConfig(dt=0.01, t_end=0.1, fp_tol=1e-12, fp_max=2)
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.2)
    with pytest.raises(NonconvergenceError) as err:
        simulate(ini, cs, OP4, Q4, cfg, RngStream(5, 0))
    assert err.value.iterations == 2 and err.value.residual > cfg.fp_tol
    # a single iteration: the first residual alone decides
    cfg = SolverConfig(dt=0.01, t_end=0.1, fp_tol=1e-12, fp_max=1)
    with pytest.raises(NonconvergenceError) as err:
        simulate(ini, cs, OP4, Q4, cfg, RngStream(5, 0))
    assert err.value.iterations == 1 and err.value.residual > cfg.fp_tol


def test_point_and_instant_kernels_differ_but_stay_close_for_small_dt():
    # same dynamics class, different read node; with a slowly varying path
    # the two runs agree to O(h) but are not identical
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.3)
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
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.4)
    out = picard_run(ini, cs, OP4, Q4, cfg, RngStream(10, 0))
    assert all(d == 0.0 for _, d in out[1:])


def test_picard_matches_direct_on_shared_noise():
    cs = builtin_coefficients(kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.2)
    cfg = SolverConfig(dt=0.01, t_end=0.3, mode="picard", picard_iters=10)
    final = picard_run(ini, cs, OP4, Q4, cfg, RngStream(11, 0))[-1][0]
    direct = simulate(ini, cs, OP4, Q4, SolverConfig(dt=0.01, t_end=0.3),
                      RngStream(11, 0))
    gap = np.max(np.linalg.norm(final.snapshots - direct.snapshots, axis=1))
    assert gap <= 1e-9


def test_picard_store_stride_keeps_every_kth_row():
    cs = builtin_coefficients(kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.2)
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
    ini = from_initial_condition(0.05, 0.01, OP4.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.4)
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


def _per_step_reference(ini, cs, op, qspec, dt, z, src_rows=None):
    """The scheme one step at a time through the 1-D maps: returns the rows
    u(-h), ..., u(t_end), the fixed-point iterations of each step and each
    step's residuals ||u_k - u_{k-1}|| of the vector iteration."""
    maps, mu = GridMaps(cs, op), op.eigenvalues
    grid = maps.grid
    decay, phi1, std = np.exp(-mu * dt), -np.expm1(-mu * dt) / mu, ou_std(qspec, op, dt)
    m = ini.m
    rows, iters, residuals = list(ini.values), [0], []
    for i in range(z.shape[0]):
        hist = np.array(rows[i:i + m + 1])
        src = hist[0] if src_rows is None else src_rows[i]
        node = hist[-1] if maps.g_mode == "instant" else hist[0]   # the node g reads
        rhs = decay * hist[-1] + maps.profile * maps.mass(node)
        if not cs.f_is_zero:
            rhs = rhs + phi1 * (grid.project @ cs.f(grid.synth @ src))
        ou = std * z[i]
        if cs.sigma_const is None:
            rhs = rhs + grid.project @ (cs.sigma(grid.synth @ src) * (grid.synth @ ou))
        else:
            rhs = rhs + cs.sigma_const * ou
        n_it, res = 0, []
        if maps.g_mode == "point":
            rhs = rhs - maps.profile * maps.mass(hist[1])
        elif maps.g_mode == "instant":
            u_k = hist[-1]
            while True:
                u_next = rhs - maps.profile * maps.mass(u_k)
                n_it += 1
                res.append(np.linalg.norm(u_next - u_k))
                u_k = u_next
                if res[-1] < 1e-12:   # the default fp_tol
                    break
            rhs = u_k
        rows.append(rhs)
        iters.append(n_it)
        residuals.append(res)
    return np.array(rows), np.array(iters), residuals


OP8 = assemble_operator(n_modes=8)
Q8 = builtin_qwiener(8, trace=0.5)


def _block_test_steps(h):
    # 53 steps is a multiple of neither m = 5 nor m = 8 (a power of two: a full block's
    # scan over its start state and 8 increments takes shifts up to 8); at m = 37 (six
    # scan levels, not a power of two) 75 = 2m + 1 steps end on a one-step tail block
    return 75 if h == 0.37 else 53


@pytest.mark.parametrize("kernel, delay, sigma, h", [
    ("separable", "point", "osgood", 0.05),
    ("separable", "instant", "osgood", 0.05),
    ("zero", "point", "osgood", 0.05),
    ("separable", "point", "one", 0.05),
    ("linear", "instant", "one", 0.05),
    ("separable", "point", "osgood", 0.01),     # m = 1: one step a block
    ("separable", "point", "osgood", 0.08),
    ("zero", "point", "one", 0.08),
    ("separable", "point", "osgood", 0.37),
    ("zero", "point", "osgood", 0.37),
    ("separable", "instant", "osgood", 0.37),
])
def test_block_loop_matches_the_per_step_scheme(kernel, delay, sigma, h):
    cs = builtin_coefficients(kernel=kernel, kernel_delay=delay, sigma=sigma,
                              kernel_scale=0.2)
    ini = from_initial_condition(h, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    steps = _block_test_steps(h)
    cfg = SolverConfig(dt=0.01, t_end=steps * 0.01)
    traj = simulate(ini, cs, OP8, Q8, cfg, RngStream(21, 3), collect_fp_residuals=True)
    z = RngStream(21, 3).generator().standard_normal((steps, 8))
    rows, iters, residuals = _per_step_reference(ini, cs, OP8, Q8, 0.01, z)
    assert np.allclose(traj.snapshots, rows[ini.m:], rtol=0.0, atol=1e-13)
    assert np.array_equal(traj.fp_iters, iters)
    # the scalar-mass iteration logs the residuals of the vector one
    assert len(traj.fp_residuals) == len(residuals) == steps
    for got, want in zip(traj.fp_residuals, residuals):
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
    assert (traj.fp_iters.max() > 0) == (delay == "instant" and kernel != "zero")


def _check_picard_against_the_per_step_scheme(h):
    cs = builtin_coefficients(kernel_scale=0.2)
    ini = from_initial_condition(h, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    steps = _block_test_steps(h)
    cfg = SolverConfig(dt=0.01, t_end=steps * 0.01, mode="picard", picard_iters=3)
    out = picard_run(ini, cs, OP8, Q8, cfg, RngStream(22, 0))
    z = RngStream(22, 0).generator().standard_normal((steps, 8))
    off = builtin_coefficients(kernel_scale=0.2, f="zero", sigma="zero")
    rows, _, _ = _per_step_reference(ini, off, OP8, Q8, 0.01, z)
    for traj, _ in out:
        assert np.allclose(traj.snapshots, rows[ini.m:], rtol=0.0, atol=1e-13)
        rows, _, _ = _per_step_reference(ini, cs, OP8, Q8, 0.01, z, src_rows=rows)


def test_block_loop_matches_the_per_step_scheme_for_picard():
    _check_picard_against_the_per_step_scheme(0.05)


def test_block_loop_matches_the_per_step_scheme_for_picard_on_long_blocks():
    _check_picard_against_the_per_step_scheme(0.37)


def test_block_loop_matches_the_per_step_scheme_for_picard_on_power_of_two_blocks():
    _check_picard_against_the_per_step_scheme(0.08)


@pytest.mark.parametrize("h", [0.05, 0.37])
def test_drift_and_diffusion_read_one_synthesized_field_a_block(h):
    # f and sigma are evaluated once a block, on one array: the grid field of the
    # block's delayed nodes rows[b0:b1], which in Picard iterate n >= 1 are those
    # of iterate n - 1.  At h = 0.37 (m = 37) the last block is one step long.  The
    # array is a view of a buffer the next block overwrites, so the recording maps
    # keep copies, and sigma's argument is checked to be f's at the call
    cs = builtin_coefficients(sigma="osgood", kernel_delay="point", kernel_scale=0.2)
    f, sigma, f_args, sigma_args, f_last = cs.f, cs.sigma, [], [], []
    cs.f = lambda x: f_last.append(x) or f_args.append(x.copy()) or f(x)
    cs.sigma = lambda x: sigma_args.append((x is f_last[-1], x.copy())) or sigma(x)
    ini = from_initial_condition(h, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    steps, m = _block_test_steps(h), ini.m
    blocks = [(b0, min(b0 + m, steps)) for b0 in range(0, steps, m)]
    assert len(blocks) == math.ceil(steps / m)
    synth = GridMaps(cs, OP8).grid.synth

    def check_reads(f_seen, sigma_seen, traj):
        # one f and one sigma argument a block, read from the nodes of ``traj``
        rows = np.vstack([ini.values, traj.snapshots[1:]])
        assert len(f_seen) == len(sigma_seen) == len(blocks)
        for (b0, b1), f_arg, (sigma_is_f_arg, sigma_arg) in zip(blocks, f_seen, sigma_seen):
            assert sigma_is_f_arg
            assert sigma_arg.tobytes() == f_arg.tobytes()
            assert np.allclose(f_arg, rows[b0:b1] @ synth.T, rtol=0.0, atol=1e-15)

    cfg = SolverConfig(dt=0.01, t_end=steps * 0.01)
    check_reads(f_args, sigma_args, simulate(ini, cs, OP8, Q8, cfg, RngStream(27, 0)))

    # iterate 0 runs with drift and diffusion off: the calls are iterate 1's, then 2's
    f_args.clear()
    sigma_args.clear()
    cfg = SolverConfig(dt=0.01, t_end=steps * 0.01, mode="picard", picard_iters=2)
    out = picard_run(ini, cs, OP8, Q8, cfg, RngStream(27, 1))
    k = len(blocks)
    assert len(f_args) == 2 * k
    for n in (1, 2):
        check_reads(f_args[(n - 1) * k:n * k], sigma_args[(n - 1) * k:n * k], out[n - 1][0])


def test_builtin_f_and_sigma_share_one_map_when_their_names_match():
    cs, other = builtin_coefficients(), builtin_coefficients(sigma="one")
    assert cs.sigma is cs.f
    assert other.sigma is not other.f


@pytest.mark.parametrize("picard", [False, True])
@pytest.mark.parametrize("delay", ["point", "instant"])
def test_a_shared_f_and_sigma_is_evaluated_once_a_block(delay, picard):
    # the built-in osgood pair is one callable: a run evaluates it once a block for
    # both maps, and every bit equals a run whose sigma is built apart from its f
    cs = builtin_coefficients(kernel_delay=delay, kernel_scale=0.2, grid_points=32)
    apart = replace(cs, sigma=osgood_drift(3.0))
    shared, calls = cs.f, []
    cs.f = cs.sigma = lambda x: calls.append(1) or shared(x)
    ini = from_initial_condition(0.05, 0.01, OP8.grid(32),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    cfg = SolverConfig(dt=0.01, t_end=0.23, segment_stride=4, picard_iters=2)
    blocks = math.ceil(cfg.n_steps / ini.m)   # 5-step blocks, the last one 3 steps

    def run(c):
        if picard:
            iterates = picard_run(ini, c, OP8, Q8, replace(cfg, mode="picard"), RngStream(35, 0))
            return [traj for traj, _ in iterates]
        return [simulate(ini, c, OP8, Q8, cfg, RngStream(35, 0), collect_fp_residuals=True)]

    once, twice = run(cs), run(apart)
    assert len(calls) == (cfg.picard_iters if picard else 1) * blocks
    for a, b in zip(once, twice, strict=True):
        for name in ("snapshots", "seg_norms", "segments", "fp_iters"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.fp_residuals == b.fp_residuals
    assert picard or once[0].fp_residuals is not None
    assert delay == "point" or once[-1].fp_iters[1:].min() >= 2


@pytest.mark.parametrize("delay", ["point", "instant"])
def test_kernel_evaluations_per_step(delay):
    # g is evaluated through the kernel's z_map: twice a point-delay step (the
    # delayed node and its successor), fp_iters[k] times on instant step k
    ini = from_initial_condition(0.05, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    for t_end, seed in ((0.53, 0), (0.01, 1), (0.01, 2), (0.01, 3)):
        cs = builtin_coefficients(kernel_delay=delay, kernel_scale=0.2)
        z_map, calls = cs.kernel_b.z_map, []
        cs.kernel_b.z_map = lambda z, out=None: calls.append(1) or z_map(z, out)
        traj = simulate(ini, cs, OP8, Q8, SolverConfig(dt=0.01, t_end=t_end),
                        RngStream(24, seed))
        steps = len(traj.fp_iters) - 1
        if delay == "point":
            assert len(calls) == 2 * steps
        else:
            assert traj.fp_iters[1:].min() >= 2
            assert len(calls) == traj.fp_iters.sum()
        ini = traj.final_segment   # the one-step runs pin the count of one step each


def test_a_z_map_swapped_between_runs_is_the_one_the_next_run_calls():
    # the benchmark's tracer wraps cs.kernel_b.z_map between rounds and counts
    # two calls a point step: each run must look the map up afresh
    ini = from_initial_condition(0.05, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    cs = builtin_coefficients(kernel_scale=0.2)
    cfg = SolverConfig(dt=0.01, t_end=0.23)
    first = simulate(ini, cs, OP8, Q8, cfg, RngStream(29, 0))
    z_map, calls = cs.kernel_b.z_map, []
    cs.kernel_b.z_map = lambda z, out=None: calls.append(1) or z_map(z, out)
    second = simulate(ini, cs, OP8, Q8, cfg, RngStream(29, 0))
    assert len(calls) == 2 * cfg.n_steps
    cs.kernel_b.z_map = z_map   # the kernel's ufunc again, as the tracer restores it
    third = simulate(ini, cs, OP8, Q8, cfg, RngStream(29, 0))
    assert len(calls) == 2 * cfg.n_steps
    assert np.array_equal(first.snapshots, second.snapshots)
    assert np.array_equal(first.snapshots, third.snapshots)


def _plan_run(op, qspec=Q8, dt=0.01, h=0.05, seed=0, cs=None, **coeffs):
    ini = from_initial_condition(h, dt, op.grid(), kind="profile", profile="sin_pi",
                                 amplitude=0.5)
    cs = cs or builtin_coefficients(**{"kernel_scale": 0.2, **coeffs})
    return simulate(ini, cs, op, qspec, SolverConfig(dt=dt, t_end=0.3),
                    RngStream(30, seed)).snapshots.tobytes()


def test_one_operator_stepping_other_systems_in_turn_gives_each_its_own_bits():
    # the operator keeps the last system's step plan: each change of qspec, dt, m,
    # grid, kernel scale, delay or kernel map must give the run a fresh operator gives
    systems = [{}, {"kernel": "linear"}, {"qspec": builtin_qwiener(8, trace=2.0)},
               {"dt": 0.025}, {"h": 0.09}, {"grid_points": 40}, {"kernel_scale": 0.3},
               {"kernel_delay": "instant"}, {"kernel": "zero"}]
    op = assemble_operator(n_modes=8)
    for system in systems + systems[::-1] + systems:
        assert _plan_run(op, **system) == _plan_run(assemble_operator(n_modes=8), **system)
    assert len(op._plan.free) == 1


def test_repeated_runs_of_one_system_keep_one_plan_and_read_each_sets_kernel_map():
    # picard_run's iterate 0 and every caller that rebuilds its coefficient set (the CLI
    # does per command) reuse the plan, and each run calls the z_map of its own set
    op, calls = assemble_operator(n_modes=8), []
    ini = from_initial_condition(0.05, 0.01, op.grid(), kind="profile", profile="sin_pi",
                                 amplitude=0.5)
    cfg = SolverConfig(dt=0.01, t_end=0.1, mode="picard", picard_iters=2)
    cs = builtin_coefficients(kernel_scale=0.2)
    simulate(ini, cs, op, Q8, cfg, RngStream(31, 0))
    plan = op._plan
    for k in range(50):
        picard_run(ini, cs, op, Q8, cfg, RngStream(31, k))
        run_ensemble(ini, cs, op, Q8, cfg, seed=k, n_traj=2)
        rebuilt = builtin_coefficients(kernel_scale=0.2)
        rebuilt.kernel_b.z_map = lambda z, out=None: calls.append(1) or np.tanh(z, out)
        simulate(ini, rebuilt, op, Q8, cfg, RngStream(31, k))
        assert len(calls) == 2 * cfg.n_steps * (k + 1)
    assert op._plan is plan and len(plan.free) == 1


@pytest.mark.parametrize("coeffs, point", [({}, True), ({"kernel": "linear"}, True),
                                           ({"kernel_delay": "instant"}, False),
                                           ({"kernel": "zero"}, False)])
def test_only_a_point_systems_buffers_hold_the_z_map_outputs(coeffs, point):
    # a point block's z_map writes rows j and j + 1 of its field into the two halves of
    # row j of an (m, 2G) buffer (m = 5, G = 129); an instant or kernel-less run reads
    # neither those rows nor their pairs
    op = assemble_operator(n_modes=8)
    _plan_run(op, **coeffs)
    [(fbuf, zs, z_args, scan, diff)] = op._plan.free
    assert (fbuf.shape, scan.shape, diff.shape) == ((6, 129), (5, 8), (129,))
    assert zs.shape == ((5 if point else 0), 258) and len(z_args) == 2 * zs.shape[0]
    for i, (z, out) in enumerate(z_args):
        j, half = divmod(i, 2)
        assert np.shares_memory(z, fbuf[j + half]) and z.shape == out.shape == (129,)
        assert out.base is zs and np.shares_memory(out, zs[j, half * 129:(half + 1) * 129])
        assert not np.shares_memory(out, zs[j, (1 - half) * 129:(2 - half) * 129])


@pytest.mark.parametrize("coeffs", [{}, {"kernel_delay": "instant"}, {"kernel": "zero"}])
def test_the_step_plans_constants_are_read_only_and_runs_leave_them_unchanged(coeffs):
    # concurrent runs of one system share the plan's constant arrays
    op = assemble_operator(n_modes=8)
    _plan_run(op, **coeffs)
    plan = op._plan
    consts = [plan.decay, *plan.decay_powers, plan.ou_std, plan.phi1_project, plan.wdiff,
              plan.profile_field, plan.maps.profile]
    assert len(plan.decay_powers) == 3   # shifts 1, 2 and 4 at m = 5
    kept = [a.tobytes() for a in consts]
    for a in consts:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    for seed in range(3):
        _plan_run(op, seed=seed, **coeffs)
        _plan_run(op, seed=seed, cs=builtin_coefficients(sigma="one", kernel_scale=0.2,
                                                         **coeffs))
    assert op._plan is plan and [a.tobytes() for a in consts] == kept


def test_two_threads_stepping_one_system_give_the_serial_bits():
    # each f call waits for the other thread's, so both runs hold run buffers at once
    f, barrier = osgood_drift(3.0), threading.Barrier(2, timeout=60)

    def paired_f(x):
        barrier.wait()
        return f(x)

    cs = builtin_coefficients(kernel_scale=0.2)
    paired = replace(cs, f=paired_f)
    serial = [_plan_run(OP8, seed=i, cs=replace(cs, f=f)) for i in range(16)]
    op = assemble_operator(n_modes=8)
    with ThreadPoolExecutor(2) as pool:
        halves = pool.map(lambda ids: [_plan_run(op, seed=i, cs=paired) for i in ids],
                          (range(8), range(8, 16)))
        assert [b for half in halves for b in half] == serial


def test_threads_stepping_two_systems_on_one_operator_give_the_serial_bits():
    # more threads than cores and a short switch interval: runs of two systems
    # replace each other's plan on the shared operator while other runs step
    jobs = [(system, seed) for seed in range(12) for system in ({}, {"kernel_delay": "instant"})]
    serial = [_plan_run(assemble_operator(n_modes=8), seed=seed, **system)
              for system, seed in jobs]
    op, interval = assemble_operator(n_modes=8), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(_plan_run, op, seed=seed, **system) for system, seed in jobs]
            assert [run.result(timeout=120) for run in runs] == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("h", [0.05, 0.37])
def test_point_kernel_increments_integrate_each_row(h):
    # a point block of k steps makes 2k z_map calls, on rows j and j + 1 of its
    # field, and adds profile * (mass_j - mass_{j+1}) for step j.  At a = 1e6,
    # exp(-mu dt) is exactly 0, and with zero drift and noise the scan adds exact
    # zeros, so each new row is its increment.  A recording f that returns zeros
    # marks each block's start.  At h = 0.37 (m = 37) the last block is one step long
    op = assemble_operator(n_modes=8, a=1e6)
    assert not np.exp(-op.eigenvalues * 0.01).any()
    log = []
    cs = builtin_coefficients(f="identity", sigma="zero", kernel_scale=0.2)
    cs.f = lambda x: log.append(len(x)) or np.zeros_like(x)
    z_map = cs.kernel_b.z_map
    cs.kernel_b.z_map = lambda z, out=None: log.append(z.copy()) or z_map(z, out)
    m, steps = round(h / 0.01), _block_test_steps(h)
    ini = Segment(h=h, dt=0.01, values=np.random.default_rng(5).normal(size=(m + 1, 8)))
    traj = simulate(ini, cs, op, Q8, SolverConfig(dt=0.01, t_end=steps * 0.01),
                    RngStream(28, 0), noise_z=np.zeros((steps, 8)))
    rows = np.vstack([ini.values, traj.snapshots[1:]])
    maps = GridMaps(cs, op)
    fields = rows @ maps.grid.synth.T
    masses = np.array([maps.grid.weights @ z_map(fld) for fld in fields])
    increments = maps.profile * (masses[:steps] - masses[1:steps + 1])[:, None]
    assert np.allclose(traj.snapshots[1:], increments, rtol=0.0, atol=1e-15)

    blocks = [(b0, min(b0 + m, steps)) for b0 in range(0, steps, m)]
    assert blocks[-1][1] - blocks[-1][0] == (1 if h == 0.37 else 3)
    for b0, b1 in blocks:
        k = b1 - b0
        assert log[0] == k   # the block's f call, then its z_map calls
        calls, log = log[1:2 * k + 1], log[2 * k + 1:]
        assert len(calls) == 2 * k and all(isinstance(z, np.ndarray) for z in calls)
        for j in range(k):
            assert np.allclose(calls[2 * j], fields[b0 + j], rtol=0.0, atol=1e-15)
            assert np.allclose(calls[2 * j + 1], fields[b0 + j + 1], rtol=0.0, atol=1e-15)
    assert not log


@pytest.mark.parametrize("n, w", [(101, w) for w in (1, 2, 3, 4, 11, 16, 101)] + [(37, 37)])
def test_window_max_equals_the_sliding_window_max(n, w):
    x = np.random.default_rng(n + w).normal(size=n)
    x[::7] = x[3]   # ties
    assert np.array_equal(_window_max(x, w),
                          np.lib.stride_tricks.sliding_window_view(x, w).max(axis=1))


def test_blowup_guard_fires_mid_block_at_the_first_crossing():
    cs = builtin_coefficients(f="zero", sigma="one", kernel_scale=0.2)
    ini = zero_segment(0.05, 0.01, 8)
    cfg = SolverConfig(dt=0.01, t_end=0.5)
    norms = np.linalg.norm(simulate(ini, cs, OP8, Q8, cfg, RngStream(23, 0)).snapshots,
                           axis=1)
    # the first step past the first block whose norm is a new maximum and
    # which is not the first step of a block (m = 5)
    step = next(k for k in range(7, 51)
                if norms[k] > norms[1:k].max() and (k - 1) % 5)
    guard = 0.5 * (norms[1:step].max() + norms[step])
    with pytest.raises(BlowupError, match=re.escape(f"at t = {step * 0.01:g} exceeds")):
        simulate(ini, cs, OP8, Q8, SolverConfig(dt=0.01, t_end=0.5, blowup_threshold=guard),
                 RngStream(23, 0))


def _huge_run(amplitude, guard):
    # m = 20 steps a block; squares of the huge rows may overflow, which numpy warns of
    cs = builtin_coefficients(f="identity", sigma="one", kernel="linear", kernel_scale=0.2)
    ini = from_initial_condition(0.2, 0.01, OP8.grid(), kind="profile", profile="sin_pi",
                                 amplitude=amplitude)
    with np.errstate(over="ignore"):
        return ini, simulate(ini, cs, OP8, Q8, SolverConfig(dt=0.01, t_end=0.43,
                                                            blowup_threshold=guard),
                             RngStream(32, 0))


def _sliding_norm_max(ini, traj):
    rows = np.vstack([ini.values, traj.snapshots[1:]])
    norms = np.sqrt((rows * rows).sum(axis=1))
    return np.lib.stride_tricks.sliding_window_view(norms, ini.m + 1).max(axis=1)


def test_a_guard_whose_square_overflows_passes_rows_below_it():
    # 1e154 ** 2 raises OverflowError; the first block's sum of squares overflows, but
    # each row's norm, at most about 6.4e153, is below the guard
    ini, traj = _huge_run(9e153, 1e154)
    assert np.isfinite(traj.seg_norms).all() and traj.seg_norms.max() < 1e154
    with np.errstate(over="ignore"):
        assert np.sum(traj.snapshots[1:21] ** 2) == np.inf
    assert traj.seg_norms.tobytes() == _sliding_norm_max(ini, traj).tobytes()


def test_a_guard_whose_square_overflows_catches_a_row_whose_norm_overflows():
    with pytest.raises(BlowupError, match=re.escape(
            "state norm inf at t = 0.01 exceeds blow-up guard 1e+300")):
        _huge_run(5e299, 1e300)


@pytest.mark.parametrize("kernel", ["separable", "zero"])
def test_a_point_runs_seg_norms_are_the_sliding_max_of_its_row_norms(kernel):
    cs = builtin_coefficients(kernel=kernel, kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP8.grid(), kind="profile", profile="sin_pi",
                                 amplitude=0.5)
    traj = simulate(ini, cs, OP8, Q8, SolverConfig(dt=0.01, t_end=0.53), RngStream(33, 0))
    assert traj.seg_norms.tobytes() == _sliding_norm_max(ini, traj).tobytes()


@pytest.mark.parametrize("kernel, delay", [("separable", "point"), ("zero", "point"),
                                           ("separable", "instant")])
def test_blowup_guard_fires_at_a_non_finite_state_mid_block(kernel, delay):
    # step 13 is the third of the block of steps 11-15 (m = 5); its NaN noise row
    # must stop the run there, not at the block's end or in the fixed point
    cs = builtin_coefficients(kernel=kernel, kernel_delay=delay, kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    z = RngStream(25, 0).generator().standard_normal((53, 8))
    z[12, 3] = np.nan
    with pytest.raises(BlowupError, match=re.escape("state norm nan at t = 0.13 exceeds")):
        simulate(ini, cs, OP8, Q8, SolverConfig(dt=0.01, t_end=0.53), RngStream(25, 0),
                 noise_z=z)


@pytest.mark.parametrize("f", ["osgood", "zero"])
@pytest.mark.parametrize("sigma", ["one", "osgood", "zero"])
def test_simulate_leaves_the_callers_noise_unchanged(f, sigma):
    # the block scan runs in place in the forcing, which must never be the caller's
    # noise: continuous_dependence_probe replays one noise block across several runs
    cs = builtin_coefficients(f=f, sigma=sigma, kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP8.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.5)
    z = RngStream(26, 0).generator().standard_normal((53, 8))
    kept = z.copy()
    simulate(ini, cs, OP8, Q8, SolverConfig(dt=0.01, t_end=0.53), RngStream(26, 0),
             noise_z=z)
    assert z.tobytes() == kept.tobytes()


OP16 = assemble_operator(n_modes=16)


def _scaled_paths(scale, kernel, delay, f):
    """The path from a sign-changing window and a given noise block, and the path
    from both multiplied by ``scale``."""
    cs = builtin_coefficients(f=f, sigma="one", kernel=kernel, kernel_delay=delay,
                              kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP16.grid(), kind="profile", profile="sin_2pi",
                                 amplitude=0.5, ramp=True)
    z = RngStream(29, 0).generator().standard_normal((200, 16))
    cfg = SolverConfig(dt=0.01, t_end=2.0)
    base, scaled = (simulate(Segment(h=0.05, dt=0.01, values=k * ini.values), cs, OP16,
                             builtin_qwiener(16, trace=0.5), cfg, RngStream(29, 0),
                             noise_z=k * z).snapshots for k in (1.0, scale))
    return base, scaled


@pytest.mark.parametrize("kernel, delay, f", [("linear", "point", "zero"),
                                              ("linear", "instant", "zero"),
                                              ("separable", "point", "bounded_tanh"),
                                              ("separable", "instant", "identity")])
def test_negating_the_window_and_the_noise_negates_an_odd_system_exactly(kernel, delay, f):
    # with f and the kernel's map odd and sigma even, the scheme keeps the symmetry
    # bit for bit: a sign-dependent slip (an abs or a clip) breaks it
    base, negated = _scaled_paths(-1.0, kernel, delay, f)
    assert np.any(base != 0.0)
    assert negated.tobytes() == (-base).tobytes()


def test_doubling_the_window_and_the_noise_doubles_a_linear_path_exactly():
    # the linear point system is linear in (window, noise); scaling by 2 is exact
    base, doubled = _scaled_paths(2.0, "linear", "point", "zero")
    assert doubled.tobytes() == (2.0 * base).tobytes()


def _dynamic_arch_openblas():
    """Whether numpy's BLAS is an OpenBLAS that picks its kernel when it loads, so
    that ``OPENBLAS_CORETYPE`` selects one for a single process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_the_sign_and_scale_relations_hold_on_other_blas_kernels(coretype):
    # the relations are exact on any BLAS kernel; OPENBLAS_CORETYPE picks the
    # AVX2 (Haswell) or SSE3 (Prescott) kernel for the child process alone
    tests = [f"{__file__}::{t.__name__}" for t in (
        test_negating_the_window_and_the_noise_negates_an_odd_system_exactly,
        test_doubling_the_window_and_the_noise_doubles_a_linear_path_exactly)]
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                          capture_output=True, text=True, timeout=300,
                          cwd=Path(__file__).resolve().parents[1],
                          env={**os.environ, "OPENBLAS_CORETYPE": coretype})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(r"\b5 passed\b", proc.stdout), proc.stdout


def test_the_osgood_drift_is_even_and_nonnegative():
    x = np.linspace(-1.0, 1.0, 2001)
    f = osgood_drift(3.0)(x)
    assert np.array_equal(f, osgood_drift(3.0)(-x))
    assert np.all(f >= 0.0)


# ---------------------------------------------------- window arithmetic

def test_window_bounds_at_zero_and_validation():
    assert contraction_factor(0.3, 3.0, 0.5, 1.0, 0.0) == 0.3
    assert stability_bound(0.3, 3.0, 0.5, 1.0, 0.0) == 0.3
    for bad in [dict(mg=0.0), dict(mg=1.0), dict(p=2.0), dict(alpha=0.0),
                dict(alpha=1.5), dict(c_frac=0.0), dict(p=math.nan), dict(p=math.inf),
                dict(c_frac=math.nan), dict(c_frac=math.inf)]:
        args = dict(mg=0.3, p=3.0, alpha=0.5, c_frac=1.0)
        args.update(bad)
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} = "):
            contraction_factor(args["mg"], args["p"], args["alpha"],
                               args["c_frac"], 1.0)
        with pytest.raises(ConfigError, match=f"^{next(iter(bad))} = "):
            find_horizon(args["mg"], args["p"], args["alpha"], args["c_frac"])
    with pytest.raises(ConfigError, match=re.escape("horizon = -1.0 out of range [0, inf)")):
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
