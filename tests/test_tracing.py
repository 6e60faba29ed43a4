"""The benchmark's span tracer still fits the package it wraps.

``bench/tracing.py`` replaces package functions by name and reads some of
their arguments by position, so a rename or a reordered signature in the
package breaks ``python3 bench/run.py --trace 1`` while every other test
passes.  These checks load the tracer from its file (editing nothing under
``bench/``), install it over a small run and uninstall it again.
"""
import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np

from nsfde import (RngStream, SolverConfig, assemble_operator, builtin_coefficients,
                   measure, noise, power_qwiener, serialize, solver, zero_segment)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("nsfde_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _position(fn, name):
    return list(inspect.signature(fn).parameters).index(name)


def test_the_arguments_the_tracer_reads_by_position():
    tracing = _load_tracing()
    # _after_simulate reads cfg and noise_z, _after_picard reads cfg
    assert _position(solver.simulate, "cfg") == 4
    assert _position(solver.simulate, "noise_z") == 6
    assert _position(solver.picard_run, "cfg") == 4
    for fname, pos in tracing._WRITES.items():
        assert _position(getattr(serialize, fname), "path") == pos
    for fname in tracing._READS:
        assert _position(getattr(serialize, fname), "path") == 0


def test_the_tracer_wraps_a_run_and_uninstall_restores_the_package():
    tracing = _load_tracing()
    before = [dict(vars(m)) for m in tracing._MODULES]
    generator = vars(noise.RngStream)["generator"]
    op, q = assemble_operator(n_modes=4), power_qwiener(4, trace_target=0.5)
    cs = builtin_coefficients(grid_points=64)
    f, sigma = cs.f, cs.sigma
    cfg = SolverConfig(dt=0.01, t_end=0.05, picard_iters=2)
    ini = zero_segment(0.05, 0.01, 4)

    tracer = tracing.Tracer()
    tracer.install([cs])
    try:
        assert solver.simulate is not before[tracing._MODULES.index(solver)]["simulate"]
        assert "z_map" in vars(cs.kernel_b)
        measure.run_ensemble(ini, cs, op, q, cfg, 3, 2)   # cfg by position
        solver.picard_run(ini, cs, op, q, replace(cfg, mode="picard"), RngStream(3, 0))
    finally:
        tracer.uninstall()
    counts = tracer.counts[tracing.SETUP]
    assert counts["traj_steps"] == 2 * 5 + (2 + 1) * 5
    calls = dict(zip(tracer.names, np.bincount(np.frombuffer(tracer.name, np.intc))))
    assert calls["solver.simulate"] == 2 and calls["solver.picard_run"] == 1
    assert calls["coefficients.g"] == 2 * 2 * 5 + (2 + 1) * 2 * 5   # two a point step

    # every function, method and map is the original again
    for mod, was in zip(tracing._MODULES, before):
        now = vars(mod)
        assert now.keys() == was.keys(), mod.__name__
        assert [k for k in was if now[k] is not was[k]] == [], mod.__name__
    assert vars(noise.RngStream)["generator"] is generator
    assert cs.f is f and cs.sigma is sigma and "z_map" not in vars(cs.kernel_b)
