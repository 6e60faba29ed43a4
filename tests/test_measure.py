"""Occupation measures, KS machinery and the distributional consistency tests."""
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from nsfde import (ConfigError, DomainError, RngStream, Segment, ShapeError,
                   SolverConfig, Trajectory, assemble_operator,
                   builtin_coefficients, builtin_qwiener, constant_segment,
                   continuous_dependence_probe, default_functionals,
                   from_initial_condition, homogeneity_test, invariance_test,
                   krylov_bogoliubov, ks_critical, ks_statistic,
                   run_ensemble, simulate, sup_norm, tightness_diagnostic,
                   zero_segment)

OP = assemble_operator(n_modes=4)
Q = builtin_qwiener(4, trace=0.5)


def _toy_traj(seg_norms, stream_id=0):
    """Hand-built trajectory carrying only what tightness_diagnostic reads."""
    k = len(seg_norms)
    return Trajectory(times=np.arange(k, dtype=float),
                      snapshots=np.zeros((k, 2)),
                      seg_norms=np.asarray(seg_norms, dtype=float),
                      fp_iters=np.zeros(k, dtype=int), seed=0,
                      stream_id=stream_id, cfg=SolverConfig(dt=1.0, t_end=float(k)),
                      final_segment=zero_segment(1.0, 0.5, 2))


def test_ks_statistic_small_cases():
    assert ks_statistic([0.0, 1.0], [0.5]) == 0.5
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_statistic([0.0], [1.0]) == 1.0  # disjoint supports
    with pytest.raises(DomainError, match="KS statistic needs nonempty samples on both sides"):
        ks_statistic([], [1.0])


def test_ks_statistic_matches_scipy():
    gen = RngStream(50, 0).generator()
    a = gen.standard_normal(137)
    b = gen.standard_normal(211) * 1.3 + 0.2
    want = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ks_statistic(a, b) == pytest.approx(want, abs=1e-14)


def test_ks_critical_formula():
    assert ks_critical(100, 100) == pytest.approx(1.358 * np.sqrt(0.02), rel=1e-12)
    with pytest.raises(ConfigError, match="^n = 0 must be >= 1$"):
        ks_critical(0, 5)


def test_default_functionals_follow_truncation():
    assert set(default_functionals(1)) == {"seg_norm", "head_norm", "mode_1"}
    assert set(default_functionals(8)) == {"seg_norm", "head_norm",
                                           "mode_1", "mode_2", "mode_3"}
    fns = default_functionals(2)
    seg = constant_segment(0.1, 0.05, np.array([3.0, 4.0]))
    assert np.array_equal(fns["seg_norm"](seg.values[None]), [5.0])
    assert np.array_equal(fns["mode_2"](seg.values[None]), [4.0])

    # a stack maps to one value per window, equal to the value computed
    # window by window
    gen = RngStream(49, 0).generator()
    for n in (4, 9, 29, 32):
        stack = gen.standard_normal((2000, 6, n)) * 10.0 ** gen.uniform(-3, 3, (2000, 1, 1))
        fns = default_functionals(n)
        per_window = {
            "seg_norm": [float(np.max(np.linalg.norm(w, axis=1))) for w in stack],
            "head_norm": [float(np.linalg.norm(w[-1])) for w in stack],
            **{f"mode_{k}": [float(w[-1][k - 1]) for w in stack] for k in (1, 2, 3)},
        }
        for name, fn in fns.items():
            assert np.array_equal(fn(stack), per_window[name])


def test_run_ensemble_stream_layout():
    cs = builtin_coefficients(f="zero", sigma="one", kernel="zero")
    cfg = SolverConfig(dt=0.01, t_end=0.05)
    ini = zero_segment(0.05, 0.01, 4)
    trajs = run_ensemble(ini, cs, OP, Q, cfg, seed=31, n_traj=3)
    assert [t.stream_id for t in trajs] == [0, 1, 2]
    assert all(t.seed == 31 for t in trajs)
    # distinct streams, distinct paths
    assert not np.array_equal(trajs[0].snapshots, trajs[1].snapshots)
    with pytest.raises(ConfigError, match="^n_traj = 0 must be >= 1$"):
        run_ensemble(ini, cs, OP, Q, cfg, seed=31, n_traj=0)


def test_ensemble_members_do_not_depend_on_the_ensemble_size():
    # member i runs on stream i whatever n_traj is: the first three of seven are
    # bit for bit the three of an ensemble of three, through the fixed point too
    cs = builtin_coefficients(kernel_scale=0.3, kernel_delay="instant", grid_points=64)
    cfg = SolverConfig(dt=0.01, t_end=0.3, store_stride=3, segment_stride=5)
    ini = from_initial_condition(0.05, 0.01, OP.grid(64), kind="profile", ramp=True)
    three, seven = (run_ensemble(ini, cs, OP, Q, cfg, seed=33, n_traj=n) for n in (3, 7))
    assert len(seven) == 7
    for a, b in zip(three, seven[:3]):
        assert a.stream_id == b.stream_id and b.fp_iters[1:].min() > 1
        for name in ("times", "snapshots", "seg_norms", "fp_iters", "segments",
                     "segment_times"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.final_segment.values.tobytes() == b.final_segment.values.tobytes()
    assert not np.array_equal(seven[3].snapshots, seven[0].snapshots)


def _small_ensemble(n_traj=3, t_end=1.0, stride=10):
    cs = builtin_coefficients(f="zero", sigma="one", kernel="zero")
    cfg = SolverConfig(dt=0.01, t_end=t_end, store_stride=stride,
                       segment_stride=stride)
    ini = zero_segment(0.05, 0.01, 4)
    return run_ensemble(ini, cs, OP, Q, cfg, seed=32, n_traj=n_traj)


def test_krylov_bogoliubov_pooling_and_thinning():
    trajs = _small_ensemble()
    mu = krylov_bogoliubov(trajs, burn_in=0.35)
    # checkpoints at 0.1..1.0; seven of them clear the burn-in per trajectory
    assert mu.n_samples == 3 * 7
    assert np.all(mu.times > 0.35)
    assert mu.n_modes == 4
    assert sup_norm(mu.segments).shape == (21,)
    assert mu.segments[:, -1].shape == (21, 4)

    assert mu.thin == 10 and mu.t_end == 1.0
    # a checkpoint every 20 steps keeps 0.4, 0.6, 0.8 and 1.0 of each trajectory
    mu2 = krylov_bogoliubov(_small_ensemble(stride=20), burn_in=0.35)
    assert mu2.n_samples == 3 * 4 and mu2.thin == 20
    assert mu2.times.tolist() == pytest.approx([0.4, 0.6, 0.8, 1.0] * 3)

    # pooling is sorted by provenance: shuffling the ensemble changes nothing
    mu_rev = krylov_bogoliubov(trajs[::-1], burn_in=0.35)
    assert np.array_equal(sup_norm(mu.segments), sup_norm(mu_rev.segments))
    assert np.array_equal(mu.sources, mu_rev.sources)
    assert np.array_equal(mu.segments, mu_rev.segments)
    assert mu.segments.shape == (21, 6, 4) and (mu.h, mu.dt) == (0.05, 0.01)

    with pytest.raises(ConfigError):
        krylov_bogoliubov([], burn_in=0.1)
    with pytest.raises(ConfigError):
        krylov_bogoliubov(trajs, burn_in=2.0)  # past the end of the runs
    no_segs = simulate(zero_segment(0.05, 0.01, 4),
                       builtin_coefficients(f="zero", sigma="one", kernel="zero"),
                       OP, Q, SolverConfig(dt=0.01, t_end=0.5), RngStream(1, 0))
    with pytest.raises(ConfigError):
        krylov_bogoliubov([no_segs], burn_in=0.1)

    # a store stride past the run keeps only the snapshots at t = 0 and at the
    # run's end 0.3, after the burn-in 0.15
    cfg = SolverConfig(dt=0.01, t_end=0.3, store_stride=1000, segment_stride=10)
    sparse = simulate(zero_segment(0.05, 0.01, 4), builtin_coefficients(kernel="zero"),
                      OP, Q, cfg, RngStream(3, 0))
    assert sparse.times.tolist() == [0.0, 0.3]
    mu = krylov_bogoliubov([sparse], burn_in=0.15)
    assert mu.times.tolist() == pytest.approx([0.2, 0.3]) and mu.t_end == pytest.approx(0.3)
    with pytest.raises(ConfigError, match="no segment checkpoints survive the burn-in window"):
        krylov_bogoliubov([sparse], burn_in=0.3)
    # a checkpoint stride of 7 does not divide the 30 steps: the last checkpoint
    # is at 0.28, and the measure still records the run's end and its stride
    sparse = simulate(zero_segment(0.05, 0.01, 4), builtin_coefficients(kernel="zero"),
                      OP, Q, replace(cfg, segment_stride=7), RngStream(3, 0))
    mu = krylov_bogoliubov([sparse], burn_in=0.15)
    assert mu.times.tolist() == pytest.approx([0.21, 0.28])
    assert mu.t_end == 0.3 and mu.thin == 7


def test_krylov_bogoliubov_refuses_a_mixed_ensemble():
    # h = 0.05 on dt = 0.01 and h = 0.1 on dt = 0.02 both give 6-node windows
    cs = builtin_coefficients(f="zero", sigma="one", kernel="zero")
    runs = [simulate(zero_segment(5 * dt, dt, 4), cs, OP, Q,
                     SolverConfig(dt=dt, t_end=0.2, segment_stride=5), RngStream(4, i))
            for i, dt in enumerate((0.01, 0.02))]
    with pytest.raises(ConfigError, match=r"disagree on solver.dt: \[0.01, 0.02\]"):
        krylov_bogoliubov(runs, burn_in=0.1)
    runs[1] = simulate(zero_segment(0.05, 0.01, 4), cs, OP, Q,
                       SolverConfig(dt=0.01, t_end=0.2, segment_stride=4), RngStream(4, 1))
    with pytest.raises(ConfigError, match=r"disagree on solver.segment_stride: \[4, 5\]"):
        krylov_bogoliubov(runs, burn_in=0.1)
    runs[1] = simulate(zero_segment(0.1, 0.01, 4), cs, OP, Q,
                       SolverConfig(dt=0.01, t_end=0.2, segment_stride=5), RngStream(4, 1))
    with pytest.raises(ConfigError, match=r"disagree on delay.h / solver.dt: \[5, 10\]"):
        krylov_bogoliubov(runs, burn_in=0.1)


def test_krylov_bogoliubov_refuses_a_burn_in_past_the_last_checkpoint():
    # checkpoints at 0.3, 0.6 and 0.9: a burn-in of 0.95 precedes the end but drops all
    trajs = _small_ensemble(n_traj=1, t_end=1.0, stride=30)
    with pytest.raises(ConfigError, match="no segment checkpoints survive the burn-in window"):
        krylov_bogoliubov(trajs, burn_in=0.95)


def test_point_mass_measure_from_zero_dynamics():
    cs = builtin_coefficients(f="zero", sigma="zero", kernel="zero")
    cfg = SolverConfig(dt=0.01, t_end=0.5, segment_stride=10)
    traj = simulate(zero_segment(0.05, 0.01, 4), cs, OP, Q, cfg, RngStream(2, 0))
    mu = krylov_bogoliubov([traj], burn_in=0.1)
    assert not sup_norm(mu.segments).any()
    assert not mu.segments[:, -1].any()
    assert not mu.segments.any()


def test_tightness_diagnostic_exact_counts():
    trajs = [_toy_traj([3.0, 1.0, 0.2]), _toy_traj([0.4, 0.3, 0.1], stream_id=1)]
    rep = tightness_diagnostic(trajs, [0.25, 0.5, 2.0])
    assert np.array_equal(rep.estimates, [1.0, 0.5, 0.5])
    assert rep.n_trajectories == 2
    assert np.array_equal(rep.checkpoints, [0.0, 1.0, 2.0])
    # exactly permutation invariant: integer counts over a fixed grid
    rep_rev = tightness_diagnostic(trajs[::-1], [0.25, 0.5, 2.0])
    assert np.array_equal(rep.estimates, rep_rev.estimates)
    # an unsorted radius grid is sorted, keeping estimates nonincreasing
    rep_mix = tightness_diagnostic(trajs, [2.0, 0.25, 0.5])
    assert np.array_equal(rep_mix.r_grid, [0.25, 0.5, 2.0])
    assert np.array_equal(rep_mix.estimates, rep.estimates)

    with pytest.raises(ConfigError):
        tightness_diagnostic([], [1.0])
    with pytest.raises(ConfigError, match="tightness needs at least two checkpoint times"):
        tightness_diagnostic([_toy_traj([1.0])], [1.0])  # single checkpoint
    with pytest.raises(ShapeError, match="ensemble trajectories disagree on checkpoint times"):
        tightness_diagnostic([_toy_traj([1.0, 0.5]), _toy_traj([1.0, 0.5, 0.2])], [1.0])
    for r_grid in ([-1.0], [1.0, np.nan], [np.inf]):   # a NaN radius had a tail fraction of 0
        with pytest.raises(DomainError, match="radius grid must be nonempty and nonnegative"):
            tightness_diagnostic(trajs, r_grid)


def test_invariance_test_exact_fixed_point():
    # the zero measure is invariant for the noise-free zero-drift system, so
    # before and after are the same point mass and every statistic vanishes
    cs = builtin_coefficients(f="zero", sigma="zero", kernel="zero")
    cfg = SolverConfig(dt=0.01, t_end=0.5, segment_stride=10)
    traj = simulate(zero_segment(0.05, 0.01, 4), cs, OP, Q, cfg, RngStream(3, 0))
    mu = krylov_bogoliubov([traj], burn_in=0.1)
    rep = invariance_test(mu, 0.2, cs, OP, Q, 0.01, RngStream(60, 0), n_draws=8)
    assert rep.all_passed
    assert not np.asarray(rep.ks_stat).any()
    assert not rep.diff.any()

    with pytest.raises(ConfigError, match=re.escape("t = 0.0 out of range (0, inf)")):
        invariance_test(mu, 0.0, cs, OP, Q, 0.01, RngStream(60, 0))
    with pytest.raises(ConfigError, match="^n_draws = 1 must be >= 2$"):
        invariance_test(mu, 0.2, cs, OP, Q, 0.01, RngStream(60, 0), n_draws=1)
    with pytest.raises(ConfigError, match="t / dt"):
        # not a whole number of steps: refused, not rounded to 0.2
        invariance_test(mu, 0.205, cs, OP, Q, 0.01, RngStream(60, 0), n_draws=8)
    empty = replace(mu, segments=mu.segments[:0], times=mu.times[:0], sources=mu.sources[:0])
    with pytest.raises(ConfigError, match="empirical measure holds no stored segments"):
        invariance_test(empty, 0.2, cs, OP, Q, 0.01, RngStream(60, 0), n_draws=8)


def test_homogeneity_deterministic_sides_coincide():
    # sigma = 0 makes both sides deterministic and identical, including the
    # noise-row discard bookkeeping on the shifted side
    cs = builtin_coefficients(sigma="zero", kernel_scale=0.2)
    ini = from_initial_condition(0.05, 0.01, OP.grid(),
                                 kind="profile", profile="sin_pi", amplitude=0.3)
    rep = homogeneity_test(ini, 1.0, 1.5, cs, OP, Q, 0.01, RngStream(61, 0),
                           n_samples=3)
    assert rep.all_passed
    assert not np.asarray(rep.ks_stat).any()
    assert not rep.diff.any()

    rep0 = homogeneity_test(ini, 0.0, 0.5, cs, OP, Q, 0.01, RngStream(61, 0),
                            n_samples=3)
    assert rep0.all_passed and not np.asarray(rep0.ks_stat).any()

    with pytest.raises(ConfigError, match=re.escape("t = 1.0 out of range (1, inf)")):
        homogeneity_test(ini, 1.0, 1.0, cs, OP, Q, 0.01, RngStream(61, 0))
    with pytest.raises(ConfigError, match="^n_samples = 1 must be >= 2$"):
        homogeneity_test(ini, 0.0, 0.5, cs, OP, Q, 0.01, RngStream(61, 0),
                         n_samples=1)
    with pytest.raises(ConfigError, match="t - s"):
        homogeneity_test(ini, 0.505, 1.5, cs, OP, Q, 0.01, RngStream(61, 0),
                         n_samples=3)


def test_dependence_probe_identical_windows_give_zero():
    cs = builtin_coefficients(kernel_scale=0.2)
    base = from_initial_condition(0.05, 0.01, OP.grid(),
                                  kind="profile", profile="sin_pi", amplitude=0.3)
    same = Segment(h=0.05, dt=0.01, values=base.values.copy())
    rep = continuous_dependence_probe(base, [same], 3.0, 0.2, cs, OP, Q, 0.01,
                                      RngStream(62, 0), n_paths=4)
    assert np.array_equal(rep.offsets, [0.0])
    assert np.array_equal(rep.estimates, [0.0])
    assert np.array_equal(rep.per_pair, np.zeros((1, 4)))


def test_dependence_probe_validation():
    cs = builtin_coefficients(kernel_scale=0.2)
    base = zero_segment(0.05, 0.01, 4)
    chi = np.eye(4)[0]
    nearer = Segment(h=0.05, dt=0.01, values=base.values + 0.25 * chi)
    farther = Segment(h=0.05, dt=0.01, values=base.values + 0.5 * chi)
    with pytest.raises(DomainError):
        # distances must shrink along the list
        continuous_dependence_probe(base, [nearer, farther], 3.0, 0.2, cs, OP,
                                    Q, 0.01, RngStream(63, 0), n_paths=2)
    with pytest.raises(ConfigError):
        continuous_dependence_probe(base, [], 3.0, 0.2, cs, OP, Q, 0.01,
                                    RngStream(63, 0))
    for p in (0.0, np.nan, np.inf):   # NaN gave NaN estimates and inf gave 0
        with pytest.raises(ConfigError, match="^p = "):
            continuous_dependence_probe(base, [nearer], p, 0.2, cs, OP, Q, 0.01,
                                        RngStream(63, 0), n_paths=2)
    with pytest.raises(ConfigError, match="horizon / dt"):
        continuous_dependence_probe(base, [nearer], 3.0, 0.205, cs, OP, Q, 0.01,
                                    RngStream(63, 0), n_paths=2)
    for n_paths in (0, 1):   # no mean, or no standard error, from fewer than two paths
        with pytest.raises(ConfigError, match=f"^n_paths = {n_paths} must be >= 2$"):
            continuous_dependence_probe(base, [nearer], 3.0, 0.2, cs, OP, Q, 0.01,
                                        RngStream(63, 0), n_paths=n_paths)


def test_dependence_probe_coupled_paths_order():
    # a genuinely stochastic run: estimates still decrease with the offset
    # because each pair shares one noise block
    cs = builtin_coefficients(sigma="one", kernel_scale=0.2)
    base = zero_segment(0.05, 0.01, 4)
    chi = np.eye(4)[0]
    psis = [Segment(h=0.05, dt=0.01, values=base.values + off * chi)
            for off in (0.5, 0.25, 0.125)]
    rep = continuous_dependence_probe(base, psis, 3.0, 0.3, cs, OP, Q, 0.01,
                                      RngStream(64, 0), n_paths=6)
    assert np.array_equal(rep.offsets, [0.5, 0.25, 0.125])
    assert np.all(np.diff(rep.estimates) < 0.0)
    assert rep.horizon == pytest.approx(0.3)
    assert rep.per_pair.shape == (3, 6)


def _zero_measure():
    cs = builtin_coefficients(f="zero", sigma="zero", kernel="zero")
    cfg = SolverConfig(dt=0.01, t_end=0.3, segment_stride=10)
    traj = simulate(zero_segment(0.05, 0.01, 4), cs, OP, Q, cfg, RngStream(3, 0))
    return krylov_bogoliubov([traj], burn_in=0.1)


_DRIVERS = {
    "n_traj": lambda ini, cs, n: run_ensemble(ini, cs, OP, Q, SolverConfig(dt=0.01, t_end=0.05),
                                              seed=31, n_traj=n),
    "n_draws": lambda ini, cs, n: invariance_test(_zero_measure(), 0.1, cs, OP, Q, 0.01,
                                                  RngStream(60, 0), n_draws=n),
    "n_samples": lambda ini, cs, n: homogeneity_test(ini, 0.0, 0.1, cs, OP, Q, 0.01,
                                                     RngStream(61, 0), n_samples=n),
    "n_paths": lambda ini, cs, n: continuous_dependence_probe(ini, [ini], 3.0, 0.1, cs, OP,
                                                              Q, 0.01, RngStream(62, 0),
                                                              n_paths=n),
}


@pytest.mark.parametrize("count", [2.5, True])
@pytest.mark.parametrize("name", sorted(_DRIVERS))
def test_driver_counts_must_be_integers(name, count):
    # a float count failed late with numpy's bare TypeError, and True ran one
    # trajectory (or was refused as too few, naming no type)
    ini, cs = zero_segment(0.05, 0.01, 4), builtin_coefficients(sigma="one", kernel="zero")
    with pytest.raises(ConfigError, match=f"^{name} must be an integer$"):
        _DRIVERS[name](ini, cs, count)
