"""nsfde benchmark: one workload at one seed, printed as metrics with units.

    python3 bench/run.py --workload ensemble_bounded --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is loaded from ``src/``
(nothing needs installing).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  Every result
is checked (exact invariants, round-to-round determinism, and a round at a
pinned seed against ``bench/reference/``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in a process of its own with BLAS threads capped at the
number of usable cores, so the figures measure the program rather than the
scheduler.  ``setup_s`` is the median over several processes of the time
from process start to the first call that advances a trajectory;
``wall_s`` is the median round.  Both are scaled to a reference machine
speed by references timed beside them (see ``calibration.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("ensemble_bounded", "small_n_drivers", "cli_pipeline")
SETUP_PROCESSES = 4
DEADLINE_S = 170.0


def _worker(args, mode, workdir, env, deadline):
    result = workdir / f"result-{mode}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir),
           "--result", str(result), "--start", repr(time.monotonic())]
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(result.read_text())


def _report(args, res, metrics, nproc):
    env = res["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"environment: nproc {nproc}, BLAS threads {nproc}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}")
    rounds = res["rounds"]
    print(f"rounds: {len(rounds)} untraced, {res['steps_per_round']} trajectory-steps "
          f"each; measured median {statistics.median(rounds):.4f} s, "
          f"min {min(rounds):.4f} s, max {max(rounds):.4f} s")
    if not args.trace:
        setups = [measured for measured, _ in res["setups"]]
        print(f"measured setup: median {statistics.median(setups):.4f} s over "
              f"{len(setups)} processes; times below are scaled to the reference speed")
    if args.trace:
        traced = res["traced_rounds"]
        print(f"traced rounds: {len(traced)}, median {statistics.median(traced):.4f} s, "
              f"min {min(traced):.4f} s")
    else:
        for name, durs in res["phases"].items():
            steps = res["phase_steps"].get(name)
            med = statistics.median(d for d, _ in durs)
            med_scaled = statistics.median(d for _, d in durs)
            rate = (f"; {med / steps * 1e6:.1f} us/trajectory-step measured, "
                    f"{med_scaled / steps * 1e6:.1f} scaled") if steps else ""
            print(f"  call {name}: median {med:.4f} s measured, {med_scaled:.4f} s scaled, "
                  f"over {len(durs)} calls{rate}")
    failed_checks = [name for name, ok in res["checks"] if not ok]
    print(f"checks: {len(res['checks']) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed")
    for name in failed_checks:
        print(f"  FAILED {name}")
    attempted = res["attempted"] + len(res["checks"])
    failed = res["failed"] + len(failed_checks)
    print(f"{'failed_fraction':32s} {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations and checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite bench/reference/<workload>.json from this commit")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "nsfde" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(nproc),
               OMP_NUM_THREADS=str(nproc), MKL_NUM_THREADS=str(nproc))
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            _worker(args, "record", workdir, env, deadline)
            print(f"recorded bench/reference/{args.workload}.json")
            return 0
        if args.trace:
            res = _worker(args, "trace", workdir, env, deadline)
            metrics = {k: tuple(v) for k, v in res["layer"].items()}
        else:
            import calibration
            setups = []
            before = calibration.start_seconds(env)
            for _ in range(SETUP_PROCESSES):
                setup_s = _worker(args, "setup", workdir, env, deadline)["setup_s"]
                after = calibration.start_seconds(env)
                setups.append((setup_s, calibration.scale(setup_s, before, after,
                                                          calibration.START_REF_S)))
                before = after
            res = _worker(args, "run", workdir, env, deadline)
            res["setups"] = setups
            wall = statistics.median(res["rounds_scaled"])
            metrics = {
                "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
                "wall_s": (wall, "s"),
                "traj_steps_per_s": (res["steps_per_round"] / wall, "1/s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            }
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _report(args, res, metrics, nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
