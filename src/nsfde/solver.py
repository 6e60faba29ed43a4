"""One-step mild integration of the neutral delay dynamics and ensemble drivers.

Scheme: over one step the linear part is applied exactly in the eigenbasis
and the drift, diffusion and neutral functionals are frozen at the left
endpoint, which closes the step as the identity

    u(t+dt) + g(u_{t+dt}) = S(dt) u(t) + g(u_t) + Phi1(dt) f(u_t) + xi,

with Phi1 = (1 - e^{-mu dt}) / mu per mode and xi the exactly-sampled
stochastic-convolution increment composed with the sigma multiplier frozen
at t.  The quadrature of the neutral history term is absorbed analytically,
so the internal bracket v = u + g(u_t) advances by
v(t+dt) = S(dt) v(t) + (I - S(dt)) g(u_t) + Phi1 f(u_t) + xi exactly.

When g reads the segment only at theta = -h (and h >= dt) the new state is
explicit; otherwise it is resolved by fixed-point iteration whose residuals
contract at the rate of the neutral Lipschitz constant.  Every built-in
kernel makes g rank one, g(v) = profile * mass(v) with a scalar mass (see
``GridMaps``), so the Picard iteration u <- rhs - g(u) runs on that scalar:
c <- mass(rhs - profile c), with the field of rhs formed once a step and
the new state once at the end.  Its k-th residual ||u_k - u_{k-1}|| is
|c_{k-1} - c_{k-2}| ||profile|| for k >= 2, so iteration counts and
residuals are those of the vector iteration up to rounding, and step k
evaluates the kernel exactly fp_iters[k] times.

Drift and diffusion read the delayed node u(t - h), known m = h / dt steps
ahead (Bellman's method of steps), so the loop advances in blocks of
k = min(m, steps left) and carries a block's nodes rows[b0:b1 + 1] to the grid
in one product, into an (m + 1)-row field buffer of the step plan.  The OU
increments xi of the whole run are written once, into the rows the new states
take; one f and one sigma call a block on its first k field rows (in a Picard
iterate, on the previous iterate's nodes; one call for both when ``cs.sigma is
cs.f``, as ``builtin_coefficients`` makes the pair) compose sigma on them and
add Phi1 f, in place.  The point kernel makes two z_map(z, out) calls a step, on field rows j
and j + 1, as the benchmark pins (``bench/reference/ensemble_bounded.json``):
its 2m (field row, out row) pairs are bound with the plan's buffers, the two
outputs of step j in the halves of row j of an (m, 2G) buffer, and one product
with the grid weights and their negatives a block takes the mass differences.
Without a kernel or with the point kernel, g reads only history too, so the
block's increments w_j are all known and a doubling scan over the start state
and them runs u_{j+1} = decay u_j + w_j in ceil(log2 (k + 1)) whole-block
operations; the instant kernel reads the new state, so it steps.  A scanned
block is tested against the blow-up guard by its sum of squares, and only a
block that may hold a row past the guard takes its exact row norms; the norms
of the whole path are taken once the run ends.  The instant loop takes each
step's norm as it goes.
Blocked products and the scan round differently from per-step evaluation:
results match a per-step evaluation of the vector maps to about 1e-15.

The operator keeps the step plan of the last system it stepped (qspec by
identity, dt, m, ``cs.grid_points``, the kernel's scale and delay mode): the
step constants (read-only, as concurrent runs share them), the kernel on the
grid (``GridMaps``) and a free list of run buffers, one set a concurrent run.
Every set holds the (m + 1, G) field buffer, the scan's (m, N) rows and the
instant iterate's (G,) field; only a point system's set also holds the
(m, 2G) z_map outputs and their 2m pairs.
f, sigma and z_map are read from ``cs`` each run; f and sigma get a view of a
buffer that the next block, or a later run of the same system, overwrites.
Changing the arrays of ``op`` or ``qspec`` in place after a run is unsupported:
the plan keeps what it built from them.

The successive-approximation driver (``picard_run``) replays the same noise
stream across iterates: iterate 0 carries only the neutral-linear dynamics,
and iterate n evaluates drift and diffusion along iterate n - 1 while the
neutral term stays attached to the current iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from typing import NamedTuple, Optional

import numpy as np

from . import noise as noise_mod
from .coefficients import _ZERO, CoefficientSet, GridMaps
from .errors import (BlowupError, ConfigError, NonconvergenceError, ShapeError,
                     check_choice, check_count, check_number)
from .noise import QWienerSpec, RngStream
from .segment import Segment, _window_steps
from .spectral import SpectralOperator


@dataclass(eq=False)
class SolverConfig:
    dt: float
    t_end: float
    fp_tol: float = 1e-12
    fp_max: int = 200
    mode: str = "direct"  # direct | picard
    picard_iters: int = 8
    store_stride: int = 1
    segment_stride: int = 0
    blowup_threshold: float = 1e8
    n_steps: int = field(init=False)   # t_end / dt, set when the config is built

    def __post_init__(self):
        self.dt = check_number("solver.dt", self.dt, 0.0)
        self.t_end = check_number("solver.t_end", self.t_end)
        self.n_steps = _window_steps(self.t_end, self.dt, "solver.t_end / solver.dt")
        self.fp_tol = check_number("solver.fp_tol", self.fp_tol, 0.0)
        check_choice("solver.mode", self.mode, ("direct", "picard"))
        for key, lo in (("fp_max", 1), ("picard_iters", 1), ("store_stride", 1),
                        ("segment_stride", 0)):
            check_count(f"solver.{key}", getattr(self, key), lo)
        self.blowup_threshold = check_number("solver.blowup_threshold", self.blowup_threshold, 0.0)


@dataclass(eq=False)
class Trajectory:
    """A path run under ``cfg``: snapshots every ``cfg.store_stride`` steps and at
    ``t_end``, plus provenance."""

    times: np.ndarray
    snapshots: np.ndarray
    seg_norms: np.ndarray
    fp_iters: np.ndarray
    seed: int
    stream_id: int
    cfg: SolverConfig
    final_segment: Segment
    segments: Optional[np.ndarray] = None  # (C, m + 1, N): window c ends at segment_times[c]
    segment_times: Optional[np.ndarray] = None
    fp_residuals: Optional[list] = None

    @property
    def n_modes(self) -> int:
        return self.snapshots.shape[1]


def _window_max(x: np.ndarray, w: int) -> np.ndarray:
    """max(x[i:i + w]) for every i, in ceil(log2 w) passes of windows doubling in span."""
    span = 1
    while span < w:
        step = min(span, w - span)
        x, span = np.maximum(x[:-step], x[step:]), span + step
    return x


class _StepPlan:
    """What every run of one system reads unchanged: the step constants, the kernel on
    the grid (``maps``; a run calls its own set's ``z_map``), the instant fixed point's
    ``profile_field`` and ``profile_norm``, and a free list of run buffers.  Concurrent
    runs share the constant arrays, so they are read-only."""

    def __init__(self, key, cs: CoefficientSet, op: SpectralOperator, qspec, dt, m):
        mu, maps = op.eigenvalues, GridMaps(cs, op)
        self.key, self.m, self.maps, self.free, self.decay = key, m, maps, [], np.exp(-mu * dt)
        # decay^s for the block scan's shifts s = 1, 2, 4, ... <= m, by repeated squaring
        decay_powers = [self.decay]
        while 2 ** len(decay_powers) <= m:
            decay_powers.append(decay_powers[-1] ** 2)
        self.decay_powers = tuple(decay_powers)
        self.ou_std = noise_mod.ou_std(qspec, op, dt)
        # f on the grid to Phi1 f, Phi1 = (1 - decay) / mu
        self.phi1_project = maps.grid.project.T * (-np.expm1(-mu * dt) / mu)
        # a point step's mass difference mass(row j) - mass(row j + 1), as one dot
        self.wdiff = np.concatenate([maps.grid.weights, -maps.grid.weights])
        self.profile_field = maps.grid.synth @ maps.profile
        self.profile_norm = math.sqrt(maps.profile @ maps.profile)
        for a in (*decay_powers, self.ou_std, self.phi1_project, self.wdiff, self.profile_field,
                  maps.profile):
            a.setflags(write=False)

    def take_buffers(self):
        """(fbuf, zs, z_args, scan, diff), held by one run until it appends them to ``free``.
        A point system's ``zs`` is (m, 2G): the z_map outputs of field rows j and j + 1 go
        into the two halves of row j, bound in ``z_args`` as pairs 2j and 2j + 1; any
        other system's has no rows and ``z_args`` no pairs."""
        try:
            return self.free.pop()
        except IndexError:   # every set is in use, or none was made yet
            m, size = self.m, self.maps.grid.weights.size
            fbuf = np.empty((m + 1, size))   # a block's fields of rows[b0:b1 + 1]
            zs = np.empty((m if self.maps.g_mode == "point" else 0, 2 * size))
            z_args = [(fbuf[j + half], z[half * size:(half + 1) * size])
                      for j, z in enumerate(zs) for half in (0, 1)]
            return fbuf, zs, z_args, np.empty((m, self.decay.size)), np.empty(size)


def _integrate(initial: Segment, cs: CoefficientSet, op: SpectralOperator,
               qspec: QWienerSpec, cfg: SolverConfig, stream: RngStream,
               z_block: Optional[np.ndarray] = None, src_rows: Optional[np.ndarray] = None,
               collect_fp_residuals: bool = False) -> tuple[Trajectory, np.ndarray]:
    """The stepping loop of ``simulate`` and ``picard_run``, on the maps ``cs`` holds now.

    Checks the initial window, draws the run's standard-normal block from
    ``stream`` unless ``z_block`` gives it, and returns the trajectory and
    the rows u(-h), ..., u(t_end) of the whole path, every grid time once.
    Step i reads the window ``rows[i:i + m + 1]`` and takes the state feeding
    drift and diffusion from ``src_rows[i]``, by default ``rows[i]``.
    """
    if initial.n_modes != op.n_modes:
        raise ShapeError("initial segment and operator truncation dimensions disagree")
    if abs(initial.dt - cfg.dt) > 1e-12 * max(1.0, cfg.dt):
        raise ConfigError("initial segment step must equal solver.dt")
    m, steps = initial.m, cfg.n_steps
    shape = (steps, op.n_modes)
    z_block = (stream.generator().standard_normal(shape) if z_block is None
               else np.asarray(z_block, dtype=float))
    if z_block.shape != shape:
        raise ShapeError(f"noise block must have shape {shape}")
    kern = cs.kernel_b
    key = (qspec, cfg.dt, m, cs.grid_points,
           None if kern is None else (kern.scale, kern.delay_mode))
    plan = op._plan
    if plan is None or plan.key != key:   # qspec compares by identity
        plan = op._plan = _StepPlan(key, cs, op, qspec, cfg.dt, m)
    decay, decay_powers, phi1_project = plan.decay, plan.decay_powers, plan.phi1_project
    g_mode, profile, grid = plan.maps.g_mode, plan.maps.profile, plan.maps.grid
    z_map = None if kern is None else kern.z_map   # read afresh: a caller may swap it
    wdiff, profile_field, profile_norm = plan.wdiff, plan.profile_field, plan.profile_norm
    synth, fp_tol, fp_max, thr = grid.synth, cfg.fp_tol, cfg.fp_max, cfg.blowup_threshold
    wdot, multiply, subtract = grid.weights.dot, np.multiply, np.subtract
    # a block whose sum of squares is below this holds no row past the guard, whatever
    # the rounding of either sum (thr * thr overflows to inf where thr ** 2 raises)
    half_thr_sq = 0.5 * thr * thr

    rows = np.empty((m + 1 + steps, initial.n_modes))
    rows[:m + 1] = initial.values
    norms = np.zeros(m + 1 + steps)
    norms[:m + 1] = np.sqrt((initial.values * initial.values).sum(axis=1))
    # the OU increments xi, to which each block adds the rest of its new states' forcing
    new_rows = np.multiply(plan.ou_std, z_block, out=rows[m + 1:])
    fp_iters = np.zeros(steps + 1, dtype=int)
    residual_log = [[] for _ in range(steps)] if collect_fp_residuals else None
    bufs = plan.take_buffers()
    fbuf, zs, z_args, scan, diff = bufs
    try:
        for b0 in range(0, steps, m):
            # one synthesis of the nodes the block reads, rows[b0:b1 + 1], all known at its start
            b1 = min(b0 + m, steps)
            k = b1 - b0
            fields = np.matmul(rows[b0:b1 + 1], synth.T, out=fbuf[:k + 1])
            src = fields[:-1] if src_rows is None else src_rows[b0:b1] @ synth.T
            # the forcing Phi1 f + xi (sigma composed on the OU increment) reads ``src``, in place
            w = new_rows[b0:b1]
            f_src = None if cs.f_is_zero else cs.f(src)
            if cs.sigma_const is None:
                sig = f_src if cs.sigma is cs.f and f_src is not None else cs.sigma(src)
                np.matmul(sig * (w @ synth.T), grid.project.T, out=w)
            elif cs.sigma_const != 1.0:
                w *= cs.sigma_const
            if f_src is not None:
                w += f_src @ phi1_project
            if g_mode != "instant":
                # every node g reads in the block is history: all the increments are
                # known, and a doubling scan over the start state and them,
                # rows[m + b0:m + 1 + b1], runs u_{j+1} = decay u_j + w_j
                if g_mode == "point":
                    for z, out in z_args[:2 * k]:
                        z_map(z, out)
                    w += (zs[:k] @ wdiff)[:, None] * profile
                path = rows[m + b0:m + 1 + b1]
                for level, decay_s in enumerate(decay_powers[:k.bit_length()]):
                    s = 1 << level
                    path[s:] += multiply(decay_s, path[:-s], out=scan[:k + 1 - s])
                if float(np.vdot(w, w)) < half_thr_sq:
                    continue   # the norms are taken once the run ends
                np.sqrt((w * w).sum(axis=1), out=norms[m + 1 + b0:m + 1 + b1])
            else:
                for i, f_i in enumerate(w, b0):
                    # the neutral term reads the unknown new state: contract to the fixed
                    # point of u = rhs - profile * mass(u) on its one scalar, the mass c
                    u = rows[m + i]
                    c = wdot(z_map(synth @ u))   # maps.mass(u)
                    rhs = decay * u + (pc := profile * c) + f_i
                    d = rhs - pc - u
                    r = math.sqrt(d @ d)
                    field = synth @ rhs
                    iters = 1
                    while True:
                        if residual_log is not None:
                            residual_log[i].append(r)
                        if not r >= fp_tol:
                            break   # converged, or NaN: the blow-up guard takes a NaN state
                        if iters == fp_max:
                            raise NonconvergenceError(
                                f"implicit neutral step failed to reach fp_tol={fp_tol:g} "
                                f"within {fp_max} iterations (last residual {r:.3e})",
                                residual=r, iterations=fp_max)
                        c_prev, c = c, float(wdot(z_map(
                            subtract(field, multiply(c, profile_field, diff), diff), diff)))
                        r = abs(c - c_prev) * profile_norm
                        iters += 1
                    u_new = rows[m + 1 + i] = rhs - profile * c
                    fp_iters[i + 1] = iters
                    norms[m + 1 + i] = nrm = math.sqrt(u_new @ u_new)
                    if not nrm <= thr:
                        break   # raised below, before the next step reads this state
            # the block's first norm above the guard or not finite; the instant loop
            # stops there, and the norms after it are still zeros
            block_norms = norms[m + 1 + b0:m + 1 + b1]
            if not block_norms.max() <= thr:
                i = b0 + int((block_norms <= thr).argmin())
                raise BlowupError(f"state norm {norms[m + 1 + i]:.3e} at t = {(i + 1) * cfg.dt:g} "
                                  f"exceeds blow-up guard {thr:g}")
    finally:
        plan.free.append(bufs)
    if g_mode != "instant":   # the instant loop took each norm as it stepped
        np.sqrt((new_rows * new_rows).sum(axis=1), out=norms[m + 1:])

    # the window ending at step k is rows[k:k + m + 1]
    stored = np.append(np.arange(0, steps, cfg.store_stride), steps)
    segments = segment_times = None
    if cfg.segment_stride:
        checkpoints = np.arange(cfg.segment_stride, steps + 1, cfg.segment_stride)
        segments = rows[checkpoints[:, None] + np.arange(m + 1)]
        segment_times = checkpoints * cfg.dt
    traj = Trajectory(
        times=stored * cfg.dt, snapshots=rows[m + stored],
        seg_norms=_window_max(norms, m + 1)[stored], fp_iters=fp_iters[stored],
        seed=stream.seed, stream_id=stream.stream_id, cfg=cfg,
        final_segment=Segment(h=initial.h, dt=cfg.dt, values=rows[steps:].copy()),
        segments=segments, segment_times=segment_times, fp_residuals=residual_log)
    return traj, rows


def simulate(initial: Segment, cs: CoefficientSet, op: SpectralOperator,
             qspec: QWienerSpec, cfg: SolverConfig, stream: RngStream,
             noise_z: Optional[np.ndarray] = None,
             collect_fp_residuals: bool = False) -> Trajectory:
    """Integrate one trajectory on [0, t_end] from the given initial window.

    The whole standard-normal block for the run is drawn in one call from
    the stream's generator (bit-identical to drawing row by row), which is
    what makes picard replays and coupled-noise probes exact.  ``noise_z``
    overrides the block, e.g. for shared-refinement convergence studies.
    """
    return _integrate(initial, cs, op, qspec, cfg, stream, noise_z,
                      collect_fp_residuals=collect_fp_residuals)[0]


def picard_run(initial: Segment, cs: CoefficientSet, op: SpectralOperator,
               qspec: QWienerSpec, cfg: SolverConfig,
               stream: RngStream) -> list[tuple[Trajectory, float]]:
    """Successive approximations with replayed noise.

    Iterate 0 integrates the pure neutral-linear dynamics: f and sigma are the
    built-in ``zero`` map, whose shortcuts skip both.  Iterate n >= 1 re-runs
    the same grid and the same standard-normal block, evaluating drift and
    diffusion along iterate n - 1 (at the delayed node) while the neutral
    term follows the current iterate.  Returns one (trajectory, sup_diff)
    pair per iterate, where sup_diff is the sup over grid times of
    ||u^n - u^{n-1}|| (NaN for iterate 0).
    """
    if cfg.mode != "picard":
        raise ConfigError("picard_run requires solver.mode = 'picard'")
    z_block = stream.generator().standard_normal((cfg.n_steps, op.n_modes))
    traj, rows_prev = _integrate(initial, replace(cs, f=_ZERO, sigma=_ZERO), op, qspec, cfg,
                                 stream, z_block)
    out = [(traj, math.nan)]
    m = initial.m
    for _ in range(cfg.picard_iters):
        traj, rows = _integrate(initial, cs, op, qspec, cfg, stream, z_block,
                                src_rows=rows_prev)
        sup_diff = float(np.max(np.linalg.norm(rows[m:] - rows_prev[m:], axis=1)))
        out.append((traj, sup_diff))
        rows_prev = rows
    return out


# ---------------------------------------------------------------------------
# contraction-window arithmetic


def _check_window_args(mg: float, p: float, alpha: float, c_frac: float):
    check_number("mg", mg, 0.0, 1.0)
    check_number("p", p, 2.0)
    check_number("alpha", alpha, 0.0, 1.0, hi_open=False)
    check_number("c_frac", c_frac, 0.0)


def _window_term(mg: float, p: float, alpha: float, c_frac: float, horizon: float,
                 log_factor: float) -> float:
    """e^{log_factor} a T^{alpha p}, a = Mg^p c^p / ((1 - Mg)^{p-1} alpha^p), summed in
    log space so that no power overflows; ``inf`` beyond the double range."""
    _check_window_args(mg, p, alpha, c_frac)
    if check_number("horizon", horizon, 0.0, lo_open=False) == 0.0:
        return 0.0
    log_term = (log_factor + p * (math.log(mg) + math.log(c_frac) - math.log(alpha))
                + alpha * p * math.log(horizon) - (p - 1.0) * math.log1p(-mg))
    try:
        return math.exp(log_term)
    except OverflowError:
        return math.inf


def contraction_factor(mg: float, p: float, alpha: float, c_frac: float,
                       horizon: float) -> float:
    """Contraction factor of the auxiliary neutral map on a window of length ``horizon``:

        Mg + Mg^p c^p T^{alpha p} / ((1 - Mg)^{p-1} alpha^p),

    where c is the decay-envelope constant at order 1 - alpha.
    """
    return mg + _window_term(mg, p, alpha, c_frac, horizon, 0.0)


def stability_bound(mg: float, p: float, alpha: float, c_frac: float,
                    horizon: float) -> float:
    """Second smallness requirement on the window:

        Mg + (5 / (1 - Mg))^{p-1} (c T^alpha Mg / alpha)^p < 1.
    """
    return mg + _window_term(mg, p, alpha, c_frac, horizon, (p - 1.0) * math.log(5.0))


#: window length returned (``capped``) when even it satisfies both smallness bounds
HORIZON_CAP = 1e12


class HorizonResult(NamedTuple):
    horizon: float
    contraction: float
    stability: float
    capped: bool


def find_horizon(mg: float, p: float, alpha: float, c_frac: float) -> HorizonResult:
    """Largest window length with both smallness bounds strictly below 1 (closed form).

    With a = Mg^p c^p / ((1 - Mg)^{p-1} alpha^p) the contraction factor is
    Mg + a T^{alpha p} and the stability bound Mg + 5^{p-1} a T^{alpha p}.
    As 5^{p-1} > 1, stability is the larger of the two at every T > 0, so it
    alone binds, and it reaches 1 at T1 = ((1 - Mg) / (5^{p-1} a))^{1/(alpha p)}.
    T1 is evaluated to 40 digits and rounded down, so the window lies at or
    below the exact root (double precision lands a few ulps above it on
    about one tuple in eight), then stepped down ulp by ulp until the
    computed stability bound is below 1.  If even ``HORIZON_CAP`` satisfies
    both bounds the cap is returned with ``capped=True``.
    """
    _check_window_args(mg, p, alpha, c_frac)

    def result(t, capped):
        return HorizonResult(t, contraction_factor(mg, p, alpha, c_frac, t),
                             stability_bound(mg, p, alpha, c_frac, t), capped)

    if stability_bound(mg, p, alpha, c_frac, HORIZON_CAP) < 1.0:
        return result(HORIZON_CAP, True)
    with localcontext() as ctx:
        ctx.prec = 40
        d_mg, d_p, d_alpha, d_c = map(Decimal, (mg, p, alpha, c_frac))
        a = d_mg ** d_p * d_c ** d_p / ((1 - d_mg) ** (d_p - 1) * d_alpha ** d_p)
        root = ((1 - d_mg) / (5 ** (d_p - 1) * a)) ** (1 / (d_alpha * d_p))
    t = float(root)
    if Decimal(t) > root:
        t = math.nextafter(t, 0.0)
    while stability_bound(mg, p, alpha, c_frac, t) >= 1.0:
        t = math.nextafter(t, 0.0)
    return result(t, False)
