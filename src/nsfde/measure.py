"""Occupation-measure estimation and distributional test harnesses.

The invariant-law estimator pools segment checkpoints from an ensemble of
trajectories into an equal-weight empirical measure over the history space,
after discarding a burn-in prefix, as one ``(S, m + 1, N)`` window array.
Distribution comparisons go through a fixed family of scalar observables
(segment sup norm, endpoint norm, low mode coefficients), each mapping a
stack to ``(S,)``, and an asymptotic two-sample Kolmogorov-Smirnov test at the
5 percent level.

All reductions are order-independent: pooled samples are sorted by
(seed, stream_id, time) before anything is computed, so permuting the
trajectory list changes nothing, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigError, DomainError, ShapeError, check_count, check_number
from .noise import QWienerSpec, RngStream
from .segment import Segment, _window_steps, sup_norm
from .solver import SolverConfig, Trajectory, simulate
from .spectral import SpectralOperator

#: asymptotic two-sample KS critical coefficient at the 5 percent level
KS_COEFF_5PCT = 1.358


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise DomainError("KS statistic needs nonempty samples on both sides")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int) -> float:
    """5 percent asymptotic critical value c * sqrt((n+m)/(n m)), c = 1.358."""
    check_count("n", n, 1)
    check_count("m", m, 1)
    return KS_COEFF_5PCT * np.sqrt((n + m) / (n * m))


def default_functionals(n_modes: int) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Observables of a ``(S, m + 1, N)`` stack, each ``(S,)``: sup norm, head norm, modes."""
    fns: dict[str, Callable[[np.ndarray], np.ndarray]] = {
        "seg_norm": sup_norm,
        # a BLAS dot per head, bit-identical to np.linalg.norm of that one vector
        "head_norm": lambda w: np.sqrt(w[:, -1, None] @ w[:, -1, :, None])[:, 0, 0],
    }
    for k in range(1, min(3, n_modes) + 1):
        fns[f"mode_{k}"] = lambda w, _k=k: w[:, -1, _k - 1]
    return fns


def run_ensemble(initial: Segment, cs: CoefficientSet, op: SpectralOperator,
                 qspec: QWienerSpec, cfg: SolverConfig, seed: int,
                 n_traj: int) -> list[Trajectory]:
    """Integrate ``n_traj`` independent trajectories on streams 0..n_traj-1 of ``seed``."""
    check_count("n_traj", n_traj, 1)
    return [simulate(initial, cs, op, qspec, cfg, RngStream(seed=seed, stream_id=i))
            for i in range(n_traj)]


@dataclass(eq=False)
class EmpiricalMeasure:
    """Equal-weight occupation measure over pooled segment checkpoints."""

    segments: np.ndarray  # (n, m + 1, n_modes): window i on (h, dt) ends at times[i]
    h: float
    dt: float
    times: np.ndarray
    sources: np.ndarray  # (n, 2) int: seed, stream_id per sample
    burn_in: float
    thin: int       # checkpoint stride of the runs, in steps
    t_end: float    # end of the longest pooled run

    @property
    def n_samples(self) -> int:
        return len(self.segments)

    @property
    def n_modes(self) -> int:
        return self.segments.shape[2]


def krylov_bogoliubov(trajs, burn_in: float) -> EmpiricalMeasure:
    """Pool post-burn-in segment checkpoints into an empirical measure.

    Each trajectory must carry recorded segments (``segment_stride`` > 0 in
    its ``cfg``), and all must share the step, the checkpoint stride and the
    window length; times <= burn_in are dropped.  The measure records the
    runs' checkpoint stride as ``thin`` and the end of the longest run as
    ``t_end``.  Pooled samples are sorted by (seed, stream_id, time), making
    the estimate invariant under reordering of the ensemble.
    """
    check_number("burn_in", burn_in, 0.0, lo_open=False)
    trajs = list(trajs)
    if not trajs:
        raise ConfigError("empty trajectory ensemble")
    if any(t.segments is None or t.segment_times is None for t in trajs):
        raise ConfigError("trajectory carries no segment checkpoints; "
                          "rerun with solver.segment_stride > 0")
    for name, values in (("solver.dt", {t.cfg.dt for t in trajs}),
                         ("solver.segment_stride", {t.cfg.segment_stride for t in trajs}),
                         ("delay.h / solver.dt", {t.final_segment.m for t in trajs})):
        if len(values) > 1:
            raise ConfigError(f"ensemble trajectories disagree on {name}: {sorted(values)}")
    cfg = trajs[0].cfg
    t_end = max(t.cfg.n_steps for t in trajs) * cfg.dt
    keeps = [np.nonzero(t.segment_times > burn_in)[0] for t in trajs]
    times = np.concatenate([t.segment_times[k] for t, k in zip(trajs, keeps)])
    if not times.size:
        raise ConfigError("no segment checkpoints survive the burn-in window")
    sizes = [k.size for k in keeps]
    sources = np.repeat(np.array([[t.seed, t.stream_id] for t in trajs], dtype=np.int64),
                        sizes, axis=0)
    order = np.lexsort((times, sources[:, 1], sources[:, 0]))  # stable
    # each trajectory's windows go straight to their sorted rows: one copy
    segments = np.empty((order.size,) + trajs[0].segments.shape[1:])
    for t, k, rows in zip(trajs, keeps, np.split(np.argsort(order), np.cumsum(sizes))):
        segments[rows] = t.segments[k]
    return EmpiricalMeasure(segments=segments, h=trajs[0].final_segment.h, dt=cfg.dt,
                            times=times[order], sources=sources[order], burn_in=burn_in,
                            thin=cfg.segment_stride, t_end=t_end)


@dataclass(eq=False)
class TightnessReport:
    """Worst-over-time tail fractions of the segment norm at each radius."""

    r_grid: np.ndarray
    estimates: np.ndarray
    n_trajectories: int
    checkpoints: np.ndarray


def tightness_diagnostic(trajs: Sequence[Trajectory], r_grid) -> TightnessReport:
    """For each radius R, the max over checkpoint times of the fraction of
    trajectories whose rolling segment norm exceeds R.

    Exceedance counts are integers divided by the ensemble size, so the
    report is exactly permutation invariant and exactly nonincreasing in R.
    """
    trajs = list(trajs)
    if not trajs:
        raise ConfigError("empty trajectory ensemble")
    times = trajs[0].times
    if times.size < 2:
        raise ConfigError("tightness needs at least two checkpoint times")
    for t in trajs[1:]:
        if t.times.shape != times.shape or not np.array_equal(t.times, times):
            raise ShapeError("ensemble trajectories disagree on checkpoint times")
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    if r_grid.size == 0 or not np.all((r_grid >= 0.0) & (r_grid < np.inf)):   # NaN fails both
        raise DomainError("radius grid must be nonempty and nonnegative, with finite radii")
    norms = np.vstack([t.seg_norms for t in trajs])  # (M, n_times)
    m = norms.shape[0]
    estimates = np.array([
        np.max(np.count_nonzero(norms > r, axis=0)) / m for r in r_grid])
    return TightnessReport(r_grid=r_grid, estimates=estimates,
                           n_trajectories=m, checkpoints=times.copy())


@dataclass(eq=False)
class ComparisonReport:
    """Per-observable distribution comparison (means, SEs, KS vs. 5% critical)."""

    names: list
    mean_before: np.ndarray
    mean_after: np.ndarray
    diff: np.ndarray
    stderr: np.ndarray
    ks_stat: np.ndarray
    ks_crit: float
    passed: np.ndarray

    @property
    def all_passed(self) -> bool:
        return bool(np.all(self.passed))

    def rows(self):
        for i, name in enumerate(self.names):
            yield (name, float(self.mean_before[i]), float(self.mean_after[i]),
                   float(self.diff[i]), float(self.stderr[i]),
                   float(self.ks_stat[i]), self.ks_crit, bool(self.passed[i]))


def _compare(functionals: dict, before: np.ndarray, after: np.ndarray) -> ComparisonReport:
    """Compare the laws of each functional over two window stacks."""
    names = list(functionals)
    before = np.array([fn(before) for fn in functionals.values()])
    after = np.array([fn(after) for fn in functionals.values()])
    nb, na = before.shape[1], after.shape[1]
    crit = ks_critical(nb, na)
    mean_b = before.mean(axis=1)
    mean_a = after.mean(axis=1)
    se = np.sqrt(before.var(axis=1, ddof=1) / nb + after.var(axis=1, ddof=1) / na)
    ks = np.array([ks_statistic(before[i], after[i]) for i in range(len(names))])
    return ComparisonReport(names=names, mean_before=mean_b, mean_after=mean_a,
                            diff=mean_a - mean_b, stderr=se, ks_stat=ks,
                            ks_crit=crit, passed=ks < crit)


def invariance_test(mu: EmpiricalMeasure, t: float, cs: CoefficientSet,
                    op: SpectralOperator, qspec: QWienerSpec, dt: float,
                    stream: RngStream, n_draws: int = 500) -> ComparisonReport:
    """Push ``n_draws`` segments drawn from the measure forward by time ``t``
    (a whole multiple of ``dt``, else ``ConfigError``) with fresh noise and
    compare observable laws before vs. after.

    Draw i evolves on stream_id = stream.stream_id + 1 + i; the index draw
    itself uses the base stream, so the whole test is reproducible.
    """
    check_number("t", t, 0.0)
    check_count("n_draws", n_draws, 2)
    if mu.n_samples < 1:
        raise ConfigError("empirical measure holds no stored segments")

    gen = stream.generator()
    idx = gen.integers(0, mu.n_samples, size=n_draws)
    steps = _window_steps(t, dt, "t / dt")
    cfg = SolverConfig(dt=dt, t_end=steps * dt, store_stride=steps)

    before = mu.segments[idx]
    after = np.empty_like(before)
    for j, window in enumerate(before):
        st = replace(stream, stream_id=stream.stream_id + 1 + j)
        after[j] = simulate(Segment(h=mu.h, dt=mu.dt, values=window), cs, op, qspec,
                            cfg, st).final_segment.values
    return _compare(default_functionals(mu.n_modes), before, after)


def homogeneity_test(phi: Segment, s: float, t: float, cs: CoefficientSet,
                     op: SpectralOperator, qspec: QWienerSpec, dt: float,
                     stream: RngStream, n_samples: int = 1000) -> ComparisonReport:
    """Consistency check that starting at time s and at time 0 give one law.

    Side A imposes phi at time s and runs to t, consuming the noise rows a
    path started at 0 would have used on [0, s) (drawn and discarded); side
    B runs from 0 to t - s directly.  The stepper is autonomous, so this
    validates the harness and the stream bookkeeping, not new dynamics.
    ``t`` and ``t - s`` must be whole multiples of ``dt``, else ``ConfigError``.
    """
    check_number("s", s, 0.0, lo_open=False)
    check_number("t", t, s)
    check_count("n_samples", n_samples, 2)
    steps = _window_steps(t - s, dt, "(t - s) / dt")
    skip = _window_steps(t, dt, "t / dt") - steps
    cfg = SolverConfig(dt=dt, t_end=steps * dt, store_stride=steps)

    side_a, side_b = np.empty((2, n_samples) + phi.values.shape)
    for i in range(n_samples):
        st_a = replace(stream, stream_id=stream.stream_id + 1 + i)
        z = st_a.generator().standard_normal((skip + steps, op.n_modes))[skip:]
        side_a[i] = simulate(phi, cs, op, qspec, cfg, st_a, noise_z=z).final_segment.values
        st_b = replace(stream, stream_id=stream.stream_id + 1 + n_samples + i)
        side_b[i] = simulate(phi, cs, op, qspec, cfg, st_b).final_segment.values
    return _compare(default_functionals(phi.n_modes), side_a, side_b)


@dataclass(eq=False)
class DependenceReport:
    """Coupled Monte Carlo estimates of E sup_{t<=T} ||u(phi) - u(psi_n)||^p."""

    offsets: np.ndarray      # ||phi - psi_n|| in the segment sup norm
    estimates: np.ndarray
    stderrs: np.ndarray
    per_pair: np.ndarray     # (n_levels, n_paths) raw sup^p values
    p: float
    horizon: float


def continuous_dependence_probe(phi: Segment, psi_list: Sequence[Segment],
                                p: float, horizon: float, cs: CoefficientSet,
                                op: SpectralOperator, qspec: QWienerSpec,
                                dt: float, stream: RngStream,
                                n_paths: int = 100) -> DependenceReport:
    """Pathwise-coupled probe of continuous dependence on the initial window.

    Pair j draws one noise block (stream_id = base + 1 + j) shared by the
    phi-path and every psi_n-path, so the difference paths carry no Monte
    Carlo noise of their own and psi = phi returns exactly zero.
    ``horizon`` must be a whole multiple of ``dt``, else ``ConfigError``.
    """
    psi_list = list(psi_list)
    if not psi_list:
        raise ConfigError("need at least one comparison segment")
    check_count("n_paths", n_paths, 2)
    check_number("p", p, 0.0)
    offsets = sup_norm(phi.values - np.array([psi.values for psi in psi_list]))
    if np.any(np.diff(offsets) > 1e-12 * max(1.0, offsets[0])):
        raise DomainError("comparison segments must be ordered with "
                          "nonincreasing distance from the base segment")
    steps = _window_steps(horizon, dt, "horizon / dt")
    cfg = SolverConfig(dt=dt, t_end=steps * dt, store_stride=1)

    per_pair = np.empty((len(psi_list), n_paths))
    for j in range(n_paths):
        st = replace(stream, stream_id=stream.stream_id + 1 + j)
        z = st.generator().standard_normal((steps, op.n_modes))
        base = simulate(phi, cs, op, qspec, cfg, st, noise_z=z).snapshots
        for i, psi in enumerate(psi_list):
            other = simulate(psi, cs, op, qspec, cfg, st, noise_z=z).snapshots
            sup = np.max(np.linalg.norm(base - other, axis=1))
            per_pair[i, j] = sup ** p
    estimates = per_pair.mean(axis=1)
    stderrs = per_pair.std(axis=1, ddof=1) / np.sqrt(n_paths)
    return DependenceReport(offsets=offsets, estimates=estimates,
                            stderrs=stderrs, per_pair=per_pair, p=p,
                            horizon=steps * dt)
