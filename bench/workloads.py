"""The benchmark's three workloads: their inputs, one round of driver calls,
and the checks on what a round returns.

A round is a fixed amount of work fixed by the sizes below; the timed loop
repeats rounds at one seed, so every round of a run does the same work.
Workloads reach the package only through public entry points and look
functions up on their modules at call time, so the traced run can wrap them.

Sizes are cut down from the acceptance-criteria fixtures so that one round
takes about 3 s on a 2-core machine; the shape of each workload is kept.
"""

from __future__ import annotations

import contextlib
import io
import re
from time import perf_counter

import numpy as np
import yaml

import calibration
from nsfde import cli, config, measure, noise, segment, solver
from nsfde.errors import BlowupError, NonconvergenceError

#: stream ids for harness draws, far above any ensemble index
_STREAM_A = 1 << 20
_STREAM_B = 1 << 21


class Ops:
    """Counts and times the driver calls of a run (closed loop, one caller).

    Each call is bracketed by two calibration runs; ``log`` keeps its name,
    its duration and its duration scaled to the reference speed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.log = []         # (call name, seconds, scaled seconds)
        self.tracer = None    # set while the traced rounds run

    def call(self, name, fn, *args, span=False, **kwargs):
        """Run one driver call; a blow-up or nonconvergence counts as failed.

        ``span`` records a span named ``name`` around the call when tracing.
        """
        self.attempted += 1
        if span and self.tracer is not None:
            fn = self.tracer.wrap(name, fn)
        cal = calibration.seconds()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except (BlowupError, NonconvergenceError):
            self.failed += 1
            raise
        finally:
            d = perf_counter() - t0
            self.log.append((name, d, calibration.scale(d, cal, calibration.seconds())))


def _config(base: dict, seed: int) -> dict:
    return dict(base, seed=seed)


def _load(workdir, name: str, data: dict):
    """Write a YAML config and build the run objects from it, as a user would."""
    path = workdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    rc = config.load_config(path)
    op = config.make_operator(rc)
    return (rc, op, config.make_noise(rc, op), config.make_coefficients(rc),
            config.make_solver_config(rc), config.make_initial_segment(rc, op))


def _steps(t: float, dt: float) -> int:
    return max(int(round(t / dt)), 1)


class EnsembleBounded:
    """Criteria 8 and 9: checkpointed ensemble, pooling, tightness, invariance."""

    name = "ensemble_bounded"
    CONFIG = {
        "operator": {"n_modes": 16},
        "noise": {"spectrum": "power", "exponent": 2.0, "trace": 2.0},
        "delay": {"h": 0.1},
        "coefficients": {"f": "osgood", "sigma": "one", "kernel": "separable",
                         "kernel_scale": 0.2, "kernel_delay": "point",
                         "grid_points": 128},
        "solver": {"dt": 0.01, "t_end": 2.0, "store_stride": 10,
                   "segment_stride": 10},
        "measure": {"n_trajectories": 200, "burn_in": 1.0,
                    "r_grid": [0.5, 1.0, 2.0, 4.0, 8.0]},
        "initial": {"kind": "profile", "profile": "sin_pi", "amplitude": 0.5},
    }
    # few long trajectories, then many short ones
    INVARIANCE_T = 0.5
    DRAWS = 400
    #: invariants that must read the same at every seed (checked when traced)
    PINNED_TRACE = ("coefficients.g.calls_per_step",)

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed: int):
        rc, self.op, self.q, self.cs, self.cfg, self.ini = _load(
            self.workdir, "ensemble_bounded", _config(self.CONFIG, seed))
        self.n_traj = rc.measure["n_trajectories"]
        self.burn_in = rc.burn_in()
        self.r_grid = rc.measure["r_grid"]
        self.phase_steps = {
            "run_ensemble": self.n_traj * self.cfg.n_steps,
            "invariance_test": self.DRAWS * _steps(self.INVARIANCE_T, self.cfg.dt)}
        self.steps_per_round = sum(self.phase_steps.values())

    def coefficient_sets(self):
        return [self.cs]

    def micro_system(self):
        return self.cs, self.op, self.q, self.ini

    def run_round(self, ops: Ops, seed: int) -> dict:
        trajs = ops.call("run_ensemble", measure.run_ensemble, self.ini, self.cs,
                         self.op, self.q, self.cfg, seed, self.n_traj)
        mu = ops.call("krylov_bogoliubov", measure.krylov_bogoliubov, trajs,
                      self.burn_in)
        tight = ops.call("tightness_diagnostic", measure.tightness_diagnostic,
                         trajs, self.r_grid)
        inv = ops.call("invariance_test", measure.invariance_test, mu,
                       self.INVARIANCE_T, self.cs, self.op, self.q, self.cfg.dt,
                       noise.RngStream(seed, _STREAM_A), n_draws=self.DRAWS)
        return {
            "tightness": tight.estimates.tolist(),
            "samples_pooled": mu.n_samples,
            "final_norm_sum": float(sum(np.linalg.norm(t.snapshots[-1])
                                        for t in trajs)),
            "ks": inv.ks_stat.tolist(),
            "ks_crit": float(inv.ks_crit),
            "verdicts": inv.passed.tolist(),
            "mean_after": inv.mean_after.tolist(),
        }

    def invariants(self, out: dict) -> list:
        est = out["tightness"]
        expect = self.n_traj * round((self.cfg.n_steps * self.cfg.dt - self.burn_in)
                                     / (self.cfg.segment_stride * self.cfg.dt))
        return [
            ("tightness nonincreasing in R",
             all(a >= b for a, b in zip(est, est[1:]))),
            ("pooled sample count", out["samples_pooled"] == expect),
        ]

    TOLERANCES = {
        # fractions of 200 trajectories: one trajectory may cross a radius
        "tightness": ("abs", 1.0 / 200),
        "samples_pooled": ("exact",),
        "final_norm_sum": ("rel", 1e-6),
        # KS statistics move in steps of 1/draws
        "ks": ("abs", 1.0 / DRAWS + 1e-12),
        "ks_crit": ("rel", 1e-12),
        "verdicts": ("verdict", "ks", "ks_crit", 1.0 / DRAWS + 1e-12),
        "mean_after": ("rel", 1e-6),
    }


class SmallNDrivers:
    """Criteria 3, 10, 11 and 12 at n = 8: Picard replays, homogeneity,
    continuous dependence and an instant-delay (fixed-point) ensemble."""

    name = "small_n_drivers"
    _SYSTEM = {
        "operator": {"n_modes": 8},
        "noise": {"spectrum": "power", "exponent": 2.0, "trace": 2.0},
        "delay": {"h": 0.1},
        "coefficients": {"f": "osgood", "sigma": "one", "kernel": "separable",
                         "kernel_scale": 0.2, "kernel_delay": "point",
                         "grid_points": 128},
        "solver": {"dt": 0.01, "t_end": 1.0},
        "initial": {"kind": "profile", "profile": "sin_pi", "amplitude": 0.5},
    }
    PICARD = {
        **_SYSTEM,
        "noise": {"spectrum": "power", "exponent": 2.0, "trace": 0.1},
        "delay": {"h": 0.05},
        "coefficients": {**_SYSTEM["coefficients"], "sigma": "osgood"},
        "solver": {"dt": 1e-3, "t_end": 0.5, "mode": "picard", "picard_iters": 8},
        "initial": {**_SYSTEM["initial"], "amplitude": 0.2},
    }
    INSTANT = {
        **PICARD,
        "coefficients": {**PICARD["coefficients"], "kernel_scale": 0.265,
                         "kernel_delay": "instant", "Mg": 0.55},
        "solver": {"dt": 1e-3, "t_end": 0.5, "fp_tol": 1e-12, "fp_max": 200},
        "measure": {"n_trajectories": 10},
    }
    HOMOGENEITY_S, HOMOGENEITY_T, HOMOGENEITY_SAMPLES = 1.0, 3.0, 50
    DEPENDENCE_P, DEPENDENCE_HORIZON, DEPENDENCE_PATHS = 3.0, 2.0, 10
    DEPENDENCE_LEVELS = 6
    PINNED_TRACE = ()

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed: int):
        _, self.p_op, self.p_q, self.p_cs, self.p_cfg, self.p_ini = _load(
            self.workdir, "picard", _config(self.PICARD, seed))
        _, self.s_op, self.s_q, self.s_cs, self.s_cfg, self.s_ini = _load(
            self.workdir, "small_n", _config(self._SYSTEM, seed))
        rc, self.i_op, self.i_q, self.i_cs, self.i_cfg, self.i_ini = _load(
            self.workdir, "instant", _config(self.INSTANT, seed))
        self.i_traj = rc.measure["n_trajectories"]
        chi = np.zeros(self.s_op.n_modes)
        chi[0] = 1.0
        base = self.s_ini
        self.psis = [segment.Segment(h=base.h, dt=base.dt,
                                     values=base.values + 2.0 ** -k * chi)
                     for k in range(1, self.DEPENDENCE_LEVELS + 1)]
        dt = self.s_cfg.dt
        self.phase_steps = {
            "picard_run": (self.p_cfg.picard_iters + 1) * self.p_cfg.n_steps,
            "homogeneity_test": 2 * self.HOMOGENEITY_SAMPLES
            * _steps(self.HOMOGENEITY_T - self.HOMOGENEITY_S, dt),
            "continuous_dependence_probe": self.DEPENDENCE_PATHS
            * (self.DEPENDENCE_LEVELS + 1) * _steps(self.DEPENDENCE_HORIZON, dt),
            "run_ensemble_instant": self.i_traj * self.i_cfg.n_steps}
        self.steps_per_round = sum(self.phase_steps.values())

    def coefficient_sets(self):
        return [self.p_cs, self.s_cs, self.i_cs]

    def micro_system(self):
        return self.i_cs, self.i_op, self.i_q, self.i_ini

    def run_round(self, ops: Ops, seed: int) -> dict:
        iterates = ops.call("picard_run", solver.picard_run, self.p_ini, self.p_cs,
                            self.p_op, self.p_q, self.p_cfg, noise.RngStream(seed, 0))
        hom = ops.call("homogeneity_test", measure.homogeneity_test, self.s_ini,
                       self.HOMOGENEITY_S, self.HOMOGENEITY_T, self.s_cs, self.s_op,
                       self.s_q, self.s_cfg.dt, noise.RngStream(seed, _STREAM_A),
                       n_samples=self.HOMOGENEITY_SAMPLES)
        dep = ops.call("continuous_dependence_probe",
                       measure.continuous_dependence_probe, self.s_ini, self.psis,
                       self.DEPENDENCE_P, self.DEPENDENCE_HORIZON, self.s_cs,
                       self.s_op, self.s_q, self.s_cfg.dt,
                       noise.RngStream(seed, _STREAM_B), n_paths=self.DEPENDENCE_PATHS)
        trajs = ops.call("run_ensemble_instant", measure.run_ensemble, self.i_ini,
                         self.i_cs, self.i_op, self.i_q, self.i_cfg, seed,
                         self.i_traj)
        iters = np.concatenate([t.fp_iters[1:] for t in trajs])
        return {
            "sup_diffs": [d for _, d in iterates[1:]],
            "homogeneity_ks": hom.ks_stat.tolist(),
            "homogeneity_ks_crit": float(hom.ks_crit),
            "homogeneity_verdicts": hom.passed.tolist(),
            "dependence_offsets": dep.offsets.tolist(),
            "dependence_estimates": dep.estimates.tolist(),
            "fp_iters_hist": np.bincount(iters).tolist(),
        }

    def invariants(self, out: dict) -> list:
        d = out["sup_diffs"]  # d[k - 1] is the sup_diff of iterate k
        off = np.asarray(out["dependence_offsets"])
        est = np.asarray(out["dependence_estimates"])
        hist = out["fp_iters_hist"]
        return [
            ("picard sup_diff strictly decreasing from iterate 2",
             all(d[k] > d[k + 1] > 0.0 for k in range(1, len(d) - 1))),
            ("dependence offsets are 2^-k",
             np.allclose(off, 2.0 ** -np.arange(1, off.size + 1), rtol=1e-12)),
            ("dependence estimates equal offset^3 to 1e-9",
             np.allclose(est, off ** self.DEPENDENCE_P, rtol=1e-9, atol=0.0)),
            ("fixed point iterated on every instant-delay step",
             sum(hist) == self.i_traj * self.i_cfg.n_steps and hist[0] == 0),
        ]

    TOLERANCES = {
        "sup_diffs": ("rel", 1e-6),
        "homogeneity_ks": ("abs", 1.0 / HOMOGENEITY_SAMPLES + 1e-12),
        "homogeneity_ks_crit": ("rel", 1e-12),
        "homogeneity_verdicts": ("verdict", "homogeneity_ks", "homogeneity_ks_crit",
                                 1.0 / HOMOGENEITY_SAMPLES + 1e-12),
        "dependence_offsets": ("rel", 1e-12),
        "dependence_estimates": ("rel", 1e-6),
        # iteration counts near fp_tol may shift by one under reordered sums
        "fp_iters_hist": ("hist", 0.01),
    }


_SIM_RE = re.compile(r"final state norm (\S+)")
_SNAP_RE = re.compile(r"wrote (\d+) snapshots")
_POOL_RE = re.compile(r"pooled (\d+) segment checkpoints")
_KS_RE = re.compile(r"^(\S+): KS = (\S+) \(5% critical (\S+)\).*\[(pass|fail)\]$",
                    re.MULTILINE)


class CliPipeline:
    """``nsfde simulate`` -> ``estimate-measure`` -> ``invariance-test``."""

    name = "cli_pipeline"
    # package defaults (n = 32, dt = 1e-3, sigma = osgood) with a sin_pi history
    CONFIG = {"initial": {"kind": "profile", "profile": "sin_pi"}}
    TRAJECTORIES, THIN = 10, 50
    INVARIANCE_T, DRAWS = 0.1, 100
    PINNED_TRACE = ()

    def __init__(self, workdir):
        self.workdir = workdir

    def setup(self, seed: int):
        self.config_path = self.workdir / "cli_pipeline.yaml"
        self.config_path.write_text(yaml.safe_dump(_config(self.CONFIG, seed)),
                                    encoding="utf-8")
        self.traj_path = self.workdir / "trajectory.jsonl"
        self.measure_path = self.workdir / "measure.jsonl"
        self.report_path = self.workdir / "invariance.csv"
        steps = _steps(1.0, 1e-3)  # package default t_end / dt
        self.phase_steps = {
            "cli.simulate": steps,
            "cli.estimate_measure": self.TRAJECTORIES * steps,
            "cli.invariance_test": self.DRAWS * _steps(self.INVARIANCE_T, 1e-3)}
        self.steps_per_round = sum(self.phase_steps.values())

    def coefficient_sets(self):
        return []  # the CLI builds its own; the tracer wraps make_coefficients

    def micro_system(self):
        rc = config.load_config(self.config_path)
        op = config.make_operator(rc)
        return (config.make_coefficients(rc), op, config.make_noise(rc, op),
                config.make_initial_segment(rc, op))

    def _main(self, ops: Ops, name: str, argv: list) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ops.call(f"cli.{name}", cli.main, argv, span=True)
        if code == 2:  # numerical failure
            ops.failed += 1
        return code, buf.getvalue()

    def run_round(self, ops: Ops, seed: int) -> dict:
        cfg = ["--config", str(self.config_path), "--seed", str(seed)]
        c1, o1 = self._main(ops, "simulate",
                            ["simulate", *cfg, "--out", str(self.traj_path)])
        c2, o2 = self._main(ops, "estimate_measure",
                            ["estimate-measure", *cfg,
                             "--trajectories", str(self.TRAJECTORIES),
                             "--thin", str(self.THIN), "--out", str(self.measure_path)])
        c3, o3 = self._main(ops, "invariance_test",
                            ["invariance-test", *cfg, "--measure", str(self.measure_path),
                             "--t", repr(self.INVARIANCE_T), "--draws", str(self.DRAWS),
                             "--out", str(self.report_path)])
        rows = _KS_RE.findall(o3)
        return {
            "exit_codes": [c1, c2, c3],
            "final_norm": float(_SIM_RE.search(o1).group(1)),
            "snapshots": int(_SNAP_RE.search(o1).group(1)),
            "samples_pooled": int(_POOL_RE.search(o2).group(1)),
            "ks": [float(r[1]) for r in rows],
            "ks_crit": [float(r[2]) for r in rows],
            "verdicts": [r[3] == "pass" for r in rows],
        }

    def invariants(self, out: dict) -> list:
        c1, c2, c3 = out["exit_codes"]
        pooled = self.TRAJECTORIES * round((1.0 - 0.2) / (self.THIN * 1e-3))
        return [
            ("simulate and estimate-measure exit 0", c1 == 0 and c2 == 0),
            ("invariance-test exits 1 exactly when a verdict fails",
             c3 == (0 if all(out["verdicts"]) else 1) and len(out["verdicts"]) == 5),
            ("snapshot count", out["snapshots"] == _steps(1.0, 1e-3) + 1),
            ("pooled sample count", out["samples_pooled"] == pooled),
        ]

    TOLERANCES = {
        "exit_codes": ("exact",),
        "final_norm": ("rel", 1e-5),          # printed with 6 significant digits
        "snapshots": ("exact",),
        "samples_pooled": ("exact",),
        "ks": ("abs", 1.0 / DRAWS + 1e-5),    # printed with 5 decimals
        "ks_crit": ("abs", 1e-5),
        "verdicts": ("verdict", "ks", "ks_crit", 1.0 / DRAWS + 1e-5),
    }


WORKLOADS = {w.name: w for w in (EnsembleBounded, SmallNDrivers, CliPipeline)}


def compare(out: dict, ref: dict, tolerances: dict) -> list:
    """Check a round's outputs against recorded ones, key by key."""
    checks = []
    for key, tol in tolerances.items():
        got, want = out[key], ref[key]
        kind = tol[0]
        if kind == "exact":
            ok = got == want
        elif kind in ("rel", "abs"):
            g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            scale = np.abs(w) if kind == "rel" else 1.0
            ok = g.shape == w.shape and bool(np.all(np.abs(g - w) <= tol[1] * scale))
        elif kind == "verdict":
            # a verdict may differ only where its statistic sits within the
            # tolerance of the critical value
            _, stat_key, crit_key, slack = tol
            crit = np.broadcast_to(np.asarray(ref[crit_key], dtype=float),
                                   np.shape(ref[stat_key]))
            ok = len(got) == len(want) and all(
                g == w or abs(s - c) <= slack
                for g, w, s, c in zip(got, want, ref[stat_key], crit))
        elif kind == "hist":
            n = max(len(got), len(want))
            g = np.pad(got, (0, n - len(got)))
            w = np.pad(want, (0, n - len(want)))
            ok = np.sum(g) == np.sum(w) and np.abs(g - w).sum() <= tol[1] * np.sum(w)
        else:
            raise ValueError(f"unknown tolerance kind {kind!r}")
        checks.append((f"reference {key}", bool(ok)))
    return checks
