"""One benchmark round at the recorded seed still gives the recorded outputs.

``python3 bench/run.py`` checks a round of each workload against
``bench/reference/<workload>.json``, but nothing else runs that check, so an
output drift would show only in a benchmark run.  This test loads
``bench/workloads.py`` from its file (editing nothing under ``bench/``), runs
one round at the reference seed in a temporary directory, and applies the
workload's invariants and ``workloads.compare`` with the recorded
tolerances.
"""
import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))   # workloads imports calibration beside it
    spec = importlib.util.spec_from_file_location("nsfde_bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["ensemble_bounded", "small_n_drivers", "cli_pipeline"])
def test_a_round_at_the_reference_seed_gives_the_recorded_outputs(name, tmp_path,
                                                                    monkeypatch):
    workloads = _load_workloads(monkeypatch)
    ref = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    wl = workloads.WORKLOADS[name](tmp_path)
    wl.setup(ref["seed"])
    out = wl.run_round(workloads.Ops(), ref["seed"])
    checks = wl.invariants(out) + workloads.compare(out, ref["outputs"], wl.TOLERANCES)
    assert len(checks) > len(wl.TOLERANCES)
    assert [check for check, ok in checks if not ok] == []
