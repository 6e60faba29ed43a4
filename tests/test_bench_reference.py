"""One benchmark round at the recorded seed still gives the recorded outputs and counts.

``python3 bench/run.py`` checks a round of each workload against
``bench/reference/<workload>.json``, and ``--trace 1`` checks the counts pinned
there, but nothing else runs those checks, so a drift would show only in a
benchmark run.  These tests load ``bench/workloads.py`` and ``bench/tracing.py``
from their files (editing nothing under ``bench/``) and run one round at the
reference seed in a temporary directory: untraced, against the workload's
invariants and ``workloads.compare`` with the recorded tolerances, and traced
as the benchmark's trace mode runs it, against the recorded trace pins.
"""
import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


WORKLOADS = ["ensemble_bounded", "small_n_drivers", "cli_pipeline"]


def _load_bench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))   # workloads imports calibration beside it
    spec = importlib.util.spec_from_file_location(f"nsfde_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_round_at_the_reference_seed_gives_the_recorded_outputs(name, tmp_path,
                                                                    monkeypatch):
    workloads = _load_bench(monkeypatch, "workloads")
    ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    wl = workloads.WORKLOADS[name](tmp_path)
    wl.setup(ref["seed"])
    out = wl.run_round(workloads.Ops(), ref["seed"])
    checks = wl.invariants(out) + workloads.compare(out, ref["outputs"], wl.TOLERANCES)
    assert len(checks) > len(wl.TOLERANCES)
    assert [check for check, ok in checks if not ok] == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_traced_round_at_the_reference_seed_gives_the_pinned_counts(name, tmp_path,
                                                                       monkeypatch):
    # as bench/worker.py's trace mode: set-up traced as its own phase, then a round
    # with the workload's coefficient sets instrumented, its metrics over 1 round
    workloads, tracing = _load_bench(monkeypatch, "workloads"), _load_bench(monkeypatch, "tracing")
    ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    wl, tracer, ops = workloads.WORKLOADS[name](tmp_path), tracing.Tracer(), workloads.Ops()
    tracer.install()
    try:
        tracer.wrap("bench.setup", wl.setup)(ref["seed"])
    finally:
        tracer.uninstall()
    tracer.current_phase = tracing.ROUNDS
    tracer.install(wl.coefficient_sets())
    ops.tracer = tracer
    try:
        tracer.wrap("bench.round", wl.run_round)(ops, ref["seed"])
    finally:
        tracer.uninstall()
    tracer.end_round()
    layer = tracer.layer_metrics(1)
    assert {key: layer[key][0] for key in wl.PINNED_TRACE} == ref["trace"]
    assert layer["solver.traj_steps"][0] == wl.steps_per_round > 0
