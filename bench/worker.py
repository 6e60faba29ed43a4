"""One benchmark process: one workload at one seed, in one of four modes.

``run.py`` starts it with the package source on ``PYTHONPATH`` and BLAS
threads capped, and reads the JSON it writes to ``--result``.

* ``setup``  -- time from process start to the first call that advances a
  trajectory, then exit;
* ``run``    -- set up, repeat rounds for ``--seconds`` untraced, then check
  a round at the reference seed against the recorded outputs;
* ``trace``  -- untraced and traced rounds in turn for ``--seconds``,
  microbenchmarks, then the same reference check;
* ``record`` -- write the reference outputs (run once per program change
  that is meant to change them).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import nsfde
from nsfde.errors import BlowupError, NonconvergenceError
from workloads import WORKLOADS, Ops, compare

REFERENCE_SEED = 2111
_MIN_ROUNDS = 3
_MIN_TRACE_ROUNDS = 2
_ROUND_DEADLINE_S = 120.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SOURCE = Path(__file__).resolve().parent.parent / "src"


def timed_rounds(wl, ops, seed, seconds, min_rounds, tracer=None):
    """Closed loop: one caller, each round starts when the last one ends.

    Returns each round's duration and scaled duration, both summed over its
    driver calls, and its outputs.
    """
    durations, scaled, outputs = [], [], []
    run_round = wl.run_round if tracer is None else tracer.wrap("bench.round", wl.run_round)
    start = perf_counter()
    while ((len(durations) < min_rounds or perf_counter() - start < seconds)
           and perf_counter() - start < _ROUND_DEADLINE_S):
        first = len(ops.log)
        try:
            outputs.append(run_round(ops, seed))
        except (BlowupError, NonconvergenceError):
            outputs.append(None)  # counted as failed by Ops
        calls = ops.log[first:]  # the calibration runs between calls are left out
        durations.append(sum(entry[1] for entry in calls))
        scaled.append(sum(entry[2] for entry in calls))
        if tracer is not None:
            tracer.end_round()
    return durations, scaled, outputs


def round_checks(wl, outputs) -> list:
    """Invariants of every round, and every round equal to the first."""
    checks = []
    for i, out in enumerate(outputs):
        if out is None:
            continue
        checks += [(f"round {i}: {name}", bool(ok)) for name, ok in wl.invariants(out)]
        if i:
            checks.append((f"round {i}: same outputs as round 0", out == outputs[0]))
    return checks


def reference_checks(wl, ops) -> list:
    ref = json.loads((REFERENCE_DIR / f"{wl.name}.json").read_text())
    _, _, (out,) = timed_rounds(wl, ops, ref["seed"], 0.0, 1)
    if out is None:
        return [("reference round completed", False)]
    return ([(f"reference: {name}", bool(ok)) for name, ok in wl.invariants(out)]
            + compare(out, ref["outputs"], wl.TOLERANCES))


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    ap.add_argument("--start", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)

    if not Path(nsfde.__file__).resolve().is_relative_to(SOURCE):
        print(f"error: nsfde loaded from {nsfde.__file__}, not from {SOURCE}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](workdir)
    ops = Ops()
    result = {}

    tracer = None
    if args.mode in ("trace", "record"):
        from tracing import ROUNDS, Tracer
        tracer = Tracer()
        tracer.install()
        tracer.wrap("bench.setup", wl.setup)(args.seed)
        tracer.uninstall()
    else:
        wl.setup(args.seed)
    result["setup_s"] = time.monotonic() - args.start  # the first round starts next
    result["steps_per_round"] = wl.steps_per_round
    result["phase_steps"] = wl.phase_steps

    checks = []
    if args.mode == "record":
        tracer.current_phase = ROUNDS
        tracer.install(wl.coefficient_sets())
        _, _, (out,) = timed_rounds(wl, ops, REFERENCE_SEED, 0.0, 1, tracer)
        tracer.uninstall()
        layer = tracer.layer_metrics(1)
        ref = {"seed": REFERENCE_SEED, "outputs": out,
               "trace": {k: layer[k][0] for k in wl.PINNED_TRACE}}
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / f"{wl.name}.json").write_text(json.dumps(ref, indent=1) + "\n")
    elif args.mode == "run":
        result["rounds"], result["rounds_scaled"], outputs = timed_rounds(
            wl, ops, args.seed, args.seconds, _MIN_ROUNDS)
        phases = result["phases"] = {}
        for name, seconds, scaled in ops.log:
            phases.setdefault(name, []).append((seconds, scaled))
        checks += round_checks(wl, outputs)
    elif args.mode == "trace":
        # untraced and traced rounds alternate, so drift in the machine's
        # speed affects both medians alike
        plain, traced, outputs = [], [], []  # (measured, scaled) per round
        tracer.current_phase = ROUNDS
        start = perf_counter()
        while ((len(traced) < _MIN_TRACE_ROUNDS or perf_counter() - start < args.seconds)
               and perf_counter() - start < _ROUND_DEADLINE_S):
            measured, scaled, outs = timed_rounds(wl, ops, args.seed, 0.0, 1)
            plain += zip(measured, scaled)
            outputs += outs
            tracer.install(wl.coefficient_sets())
            ops.tracer = tracer
            measured, scaled, outs = timed_rounds(wl, ops, args.seed, 0.0, 1, tracer)
            ops.tracer = None
            tracer.uninstall()
            traced += zip(measured, scaled)
            outputs += outs
        checks += round_checks(wl, outputs)
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_frac"] = (statistics.median(s for _, s in traced)
                                        / statistics.median(s for _, s in plain) - 1.0,
                                        "frac")
        import micro
        layer.update(micro.run(wl.micro_system(), args.seed, workdir))
        ref = json.loads((REFERENCE_DIR / f"{wl.name}.json").read_text())
        checks += [(f"trace: {k} as recorded", layer[k][0] == ref["trace"][k])
                   for k in wl.PINNED_TRACE]
        checks.append(("trace: solver.traj_steps matches the inputs",
                       layer["solver.traj_steps"][0] == wl.steps_per_round))
        result["rounds"] = [m for m, _ in plain]
        result["traced_rounds"] = [m for m, _ in traced]
        result["layer"] = layer
        tracer.save(workdir.parent / f"spans-{wl.name}-seed{args.seed}.npz")

    if args.mode in ("run", "trace"):
        checks += reference_checks(wl, ops)
    result["checks"] = checks
    result["attempted"] = ops.attempted
    result["failed"] = ops.failed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["environment"] = environment()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
