"""Command-line front end: subcommand dispatch over the library.

Exit codes: 0 success, 1 validation/configuration failure (including failed
condition checks and failed statistical verdicts), 2 numerical failure
(blow-up or fixed-point nonconvergence).  Nothing is read from environment
variables.  A flag that sets a config field has its dotted path as dest
(``--thin`` sets ``solver.segment_stride``; ``picard`` sets ``solver.mode``) and
is validated with the file's values, so a ``--resolved`` dump reruns bit for bit.
``estimate-measure`` pools the windows checkpointed every ``solver.segment_stride``
steps and refuses a stride of 0 before it integrates anything; the other
commands read no window, so ``_build`` gives them a stride of 0.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import config as config_mod
from . import measure as measure_mod
from . import serialize
from .coefficients import (growth_check, lipschitz_probe_g,
                           modulus_bound_check, osgood_certificate)
from .errors import BlowupError, ConfigError, NonconvergenceError, NsfdeError
from .noise import RngStream
from .solver import find_horizon, picard_run, simulate

# stream ids reserved for harness sampling, far above any ensemble index
_PROBE_STREAM = 1 << 20
_TEST_STREAM = 1 << 21


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are validation failures
        raise ConfigError(message)


def _add_config_args(sp):
    sp.add_argument("--config", required=True, help="YAML run configuration")
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")
    sp.add_argument("--resolved", default=None, metavar="PATH",
                    help="dump the fully resolved config to PATH")


def _radii(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated radii, got {text!r}") from None


def _build(args):
    """Everything a config-taking command runs on, built in one place: the
    config with the flags applied, the run objects, the pooling rule, and
    last the ``--resolved`` dump, so a refused config leaves none."""
    overrides = {k: v for k, v in vars(args).items()
                 if (k == "seed" or "." in k) and v is not None}
    rc = config_mod.load_config(args.config, overrides)
    op = config_mod.make_operator(rc)
    qspec = config_mod.make_noise(rc, op)
    cs = config_mod.make_coefficients(rc)
    cfg = config_mod.make_solver_config(rc)
    initial = config_mod.make_initial_segment(rc, op)
    if args.command == "estimate-measure":
        _check_a_checkpoint_survives(rc, cfg)
    else:
        cfg = replace(cfg, segment_stride=0)
    if args.resolved:
        config_mod.dump_resolved(rc, args.resolved, op, qspec)
    return rc, op, qspec, cs, cfg, initial


def _check_a_checkpoint_survives(rc: config_mod.RunConfig, cfg):
    stride, burn_in = cfg.segment_stride, rc.burn_in()
    if not stride:   # no default: pooling every step costs a window per step
        raise ConfigError("solver.segment_stride = 0 checkpoints no segment to pool: "
                          "set it in the config or pass --thin")
    last = cfg.n_steps // stride * stride * cfg.dt   # the last checkpoint time, 0 if none
    if not last > burn_in:
        unset = " (unset: 2 * delay.h)" if rc.measure["burn_in"] is None else ""
        raise ConfigError(f"no segment checkpoint survives the burn-in: solver.segment_stride "
                          f"= {stride} with solver.t_end = {rc.solver['t_end']:g} puts the last "
                          f"checkpoint at t = {last:g}, not after measure.burn_in = {burn_in:g}"
                          f"{unset}")


def _report(path, rows):
    if path:
        serialize.write_report_csv(path, rows)
        print(f"wrote {path}")


def _cmd_simulate(args) -> int:
    rc, op, qspec, cs, cfg, initial = _build(args)
    traj = simulate(initial, cs, op, qspec, cfg, RngStream(rc.seed, args.stream))
    serialize.write_trajectory_jsonl(traj, args.out)
    print(f"simulated t in [0, {cfg.n_steps * cfg.dt:g}] on {op.n_modes} modes; "
          f"final state norm {np.linalg.norm(traj.final_segment.head()):.6g}")
    print(f"wrote {traj.times.size} snapshots to {args.out}")
    return 0


def _cmd_picard(args) -> int:
    rc, op, qspec, cs, cfg, initial = _build(args)
    iterates = picard_run(initial, cs, op, qspec, cfg, RngStream(rc.seed, 0))
    rows = []
    for k, (_, sup_diff) in enumerate(iterates[1:], start=1):
        print(f"iterate {k}: sup_diff = {sup_diff!r}")
        rows.append((f"sup_diff_iterate_{k}", float(sup_diff), None, None, ""))
    _report(args.out, rows)
    return 0


def _cmd_estimate_measure(args) -> int:
    rc, op, qspec, cs, cfg, initial = _build(args)
    trajs = measure_mod.run_ensemble(initial, cs, op, qspec, cfg, rc.seed,
                                     rc.measure["n_trajectories"])
    mu = measure_mod.krylov_bogoliubov(trajs, rc.burn_in())
    serialize.write_measure_jsonl(mu, args.out)
    print(f"pooled {mu.n_samples} segment checkpoints from {rc.measure['n_trajectories']} "
          f"trajectories (burn-in {rc.burn_in():g}, every {cfg.segment_stride} steps)")
    print(f"wrote {args.out}")
    return 0


def _cmd_invariance_test(args) -> int:
    rc, op, qspec, cs, _, _ = _build(args)
    mu = serialize.read_measure_jsonl(args.measure)
    if mu.n_modes != op.n_modes:
        raise ConfigError("measure and config disagree on the mode count")
    for name, got, want in (("the delay h (delay.h)", mu.h, rc.h),
                            ("the step (solver.dt)", mu.dt, rc.dt)):
        if abs(got - want) > 1e-12 * max(1.0, want):
            raise ConfigError(f"measure and config disagree on {name}: "
                              f"the measure has {got!r}, the config {want!r}")
    report = measure_mod.invariance_test(
        mu, args.t, cs, op, qspec, rc.dt,
        RngStream(rc.seed, _TEST_STREAM), n_draws=args.draws)
    rows = []
    for name, m_b, m_a, diff, se, ks, crit, ok in report.rows():
        verdict = "pass" if ok else "fail"
        print(f"{name}: KS = {ks:.5f} (5% critical {crit:.5f}) "
              f"mean shift {diff:+.4g} +- {se:.4g} [{verdict}]")
        rows.append((name, ks, se, crit, verdict))
    _report(args.out, rows)
    return 0 if report.all_passed else 1


def _cmd_tightness(args) -> int:
    rc, op, qspec, cs, cfg, initial = _build(args)
    trajs = measure_mod.run_ensemble(initial, cs, op, qspec, cfg, rc.seed,
                                     rc.measure["n_trajectories"])
    report = measure_mod.tightness_diagnostic(trajs, rc.measure["r_grid"])
    rows = []
    for r, est in zip(report.r_grid, report.estimates):
        print(f"sup_t fraction with segment norm > {r:g}: {est:.4f}")
        rows.append((f"tail_fraction_R_{r:g}", float(est), None, None, ""))
    _report(args.out, rows)
    return 0


def _cmd_check_conditions(args) -> int:
    """Print the hypothesis checklist; construction itself enforces the hard
    inequalities (ellipticity, Mg range, smallness), so reaching the sampled
    checks already certifies those."""
    rc, op, qspec, cs, _, _ = _build(args)
    gen = RngStream(rc.seed, _PROBE_STREAM).generator()
    rows = []

    def add(name, estimate, threshold, ok):
        rows.append((name, estimate, None, threshold, "pass" if ok else "fail"))

    add("operator_gap_delta", float(op.delta), float(op.eigenvalues[0]),
        op.delta < op.eigenvalues[0])
    small = 2.0 * cs.lipschitz_Mg ** 2
    add("neutral_smallness", small, 1.0, small < 1.0)
    add("noise_trace", float(qspec.trace), float("inf"), np.isfinite(qspec.trace))
    cert = osgood_certificate(cs)
    add("modulus_shape", 1.0 if cert.shape_ok else 0.0, 1.0, cert.shape_ok)
    add("osgood_divergence", float(cert.integrals[-1]), float("inf"), cert.certified)
    violations, max_ratio = modulus_bound_check(cs, args.samples, gen)
    add("drift_modulus_bound", max_ratio, 1.0, violations == 0)
    probe = lipschitz_probe_g(cs, op, max(args.samples // 100, 20), gen, h=rc.h)
    add("neutral_lipschitz_probe", probe.estimate, probe.bound, probe.passed)
    growth = growth_check(cs, op, max(args.samples // 100, 20), gen, qspec=qspec, h=rc.h)
    add("linear_growth_probe", growth, cs.growth_K, growth <= cs.growth_K)
    for name, est, _, thr, verdict in rows:
        mark = "ok " if verdict == "pass" else "FAIL"
        print(f"[{mark}] {name}: estimate {est:.6g}, threshold {thr:.6g}")
    ok = all(verdict == "pass" for *_, verdict in rows)
    print("configuration valid; all condition checks passed" if ok
          else "configuration loads, but some condition checks FAILED")
    _report(args.out, rows)
    return 0 if ok else 1


def _cmd_t1(args) -> int:
    res = find_horizon(args.Mg, args.p, args.alpha, args.C)
    print(f"T1 = {res.horizon!r}")
    print(f"gamma = {res.contraction!r}")
    print(f"cond2 = {res.stability!r}")
    if res.capped:
        print("note: T1 capped; both conditions hold out to the cap")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="nsfde",
                     description="Spectral simulator and verification harness "
                                 "for neutral stochastic delay equations")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("simulate", help="integrate one trajectory")
    _add_config_args(sp)
    sp.add_argument("--stream", type=int, default=0, help="noise stream index")
    sp.add_argument("--out", default="trajectory.jsonl")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("picard", help="successive-approximation iterates")
    _add_config_args(sp)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_picard, **{"solver.mode": "picard"})

    sp = sub.add_parser("estimate-measure",
                        help="pool an ensemble into an occupation measure")
    _add_config_args(sp)
    sp.add_argument("--trajectories", dest="measure.n_trajectories", type=int)
    sp.add_argument("--burn-in", dest="measure.burn_in", type=float)
    sp.add_argument("--thin", dest="solver.segment_stride", type=int)
    sp.add_argument("--out", default="measure.jsonl")
    sp.set_defaults(func=_cmd_estimate_measure)

    sp = sub.add_parser("invariance-test",
                        help="push measure draws forward and compare laws")
    _add_config_args(sp)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--draws", type=int, default=500)
    sp.add_argument("--out", default="invariance.csv")
    sp.set_defaults(func=_cmd_invariance_test)

    sp = sub.add_parser("tightness", help="tail fractions over an ensemble")
    _add_config_args(sp)
    sp.add_argument("--R", dest="measure.r_grid", type=_radii,
                    help="comma-separated radius grid")
    sp.add_argument("--trajectories", dest="measure.n_trajectories", type=int)
    sp.add_argument("--out", default="tightness.csv")
    sp.set_defaults(func=_cmd_tightness)

    sp = sub.add_parser("check-conditions",
                        help="sampled verification of the standing hypotheses")
    _add_config_args(sp)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_check_conditions)

    sp = sub.add_parser("t1", help="largest admissible contraction window")
    sp.add_argument("--Mg", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--C", type=float, default=1.0,
                    help="decay-envelope constant (default 1.0)")
    sp.set_defaults(func=_cmd_t1)

    sp = sub.add_parser("validate", help="load, validate, and check a config")
    _add_config_args(sp)
    sp.set_defaults(func=_cmd_check_conditions, samples=2000, out=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (BlowupError, NonconvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (NsfdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
