"""Microbenchmarks in microseconds per call, on the workload's own system.

Only names that stay public through the planned refactors are called: the
coefficient maps on a grid field, the grid synthesis/projection products,
``RngStream(...).generator().standard_normal``, ``ks_statistic``,
``krylov_bogoliubov`` and the measure JSONL writer and reader.  The window
shift and the fixed-point iteration have no public entry point; the trace
covers them through ``solver.self_s`` and ``solver.fp_iters_per_step``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from nsfde import measure, noise, serialize, solver

_BATCH_S = 0.01
_BATCHES = 5


def per_call_us(fn) -> float:
    """Median over batches of the time per call, each batch >= 10 ms."""
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= _BATCH_S:
            break
        reps *= 2
    times = []
    for _ in range(_BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def run(system, seed: int, workdir) -> dict:
    """name -> (value, unit) for one coefficient set / operator / initial window."""
    cs, op, q, ini = system
    grid = op.grid(cs.grid_points)
    state = ini.head()
    fld = grid.synth @ state
    n = op.n_modes
    rows = 1000
    gen = noise.RngStream(seed, 0).generator()
    out = {
        "noise.draw_us_per_row": (per_call_us(lambda: gen.standard_normal((rows, n)))
                                  / rows, "us"),
        "micro.f_us": (per_call_us(lambda: cs.f(fld)), "us"),
        "micro.sigma_us": (per_call_us(lambda: cs.sigma(fld)), "us"),
        "micro.g_z_map_us": (per_call_us(lambda: cs.kernel_b.z_map(fld)), "us"),
        "micro.synth_us": (per_call_us(lambda: grid.synth @ state), "us"),
        "micro.project_us": (per_call_us(lambda: grid.project @ fld), "us"),
    }
    a, b = gen.standard_normal(500), gen.standard_normal(500)
    out["micro.ks_us"] = (per_call_us(lambda: measure.ks_statistic(a, b)), "us")

    # a small checkpointed ensemble to pool and round-trip through JSONL
    cfg = solver.SolverConfig(dt=ini.dt, t_end=40 * ini.dt, segment_stride=1)
    trajs = measure.run_ensemble(ini, cs, op, q, cfg, seed, 4)
    mu = measure.krylov_bogoliubov(trajs, 0.0)
    path = workdir / "micro_measure.jsonl"
    k = mu.n_samples
    out["micro.pool_us_per_sample"] = (
        per_call_us(lambda: measure.krylov_bogoliubov(trajs, 0.0)) / k, "us")
    out["micro.jsonl_write_us_per_sample"] = (
        per_call_us(lambda: serialize.write_measure_jsonl(mu, path)) / k, "us")
    out["micro.jsonl_read_us_per_sample"] = (
        per_call_us(lambda: serialize.read_measure_jsonl(path)) / k, "us")
    return out
