"""Span tracer for the traced benchmark run.

The tracer lives entirely in the benchmark.  While installed it replaces, on
the package's modules, the public calls the workloads make, plus the
callables a caller owns: the coefficient maps ``CoefficientSet.f`` and
``.sigma``, the neutral kernel's ``z_map`` (one call per evaluation of g),
``RngStream.generator`` and the measure functionals.  It also wraps the
``Segment`` constructor the solver uses to store windows.  ``uninstall``
puts every original back, so untraced rounds run the package unchanged.

Each call appends one span (name, parent, phase, start, end) to flat arrays
kept in memory; ``save`` writes them once at the end.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import os
from collections import Counter
from time import perf_counter

import numpy as np

import nsfde
import nsfde.cli
from nsfde import config, measure, noise, segment, serialize, solver, spectral

SETUP, ROUNDS = 0, 1

_MODULES = (nsfde, nsfde.cli, config, measure, noise, segment, serialize, solver,
            spectral)
_SOLVER = ("solver.simulate", "solver.picard_run")
_DRIVERS = ("measure.run_ensemble", "measure.tightness_diagnostic",
            "measure.invariance_test", "measure.homogeneity_test",
            "measure.continuous_dependence_probe")
_CONFIG = ("config.load_config", "config.make_operator", "config.make_noise",
           "config.make_coefficients", "config.make_solver_config",
           "config.make_initial_segment")
# serialize functions and the position of their path argument
_WRITES = {"write_trajectory_jsonl": 1, "write_measure_jsonl": 1,
           "write_report_csv": 0}
_READS = ("read_trajectory_jsonl", "read_measure_jsonl", "read_report_csv")


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else (args[i] if len(args) > i else None)


class _TracedGenerator:
    """Generator proxy whose standard-normal draws are spans."""

    def __init__(self, gen, standard_normal):
        self._gen = gen
        self.standard_normal = standard_normal

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.phase = array.array("b")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.counts = {SETUP: Counter(), ROUNDS: Counter()}
        self.current_phase = SETUP
        self.block_bytes_max = 0
        self.fp_iters_max = 0
        self._stack = [-1]
        self._patches: list = []
        self._blocks: dict = {}  # id -> (block, used-row mask), drawn outside a solver span

    # ---------------------------------------------------------------- spans

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, kwargs, result)``
        updates counters once the call has returned."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = len(self.t0)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.phase.append(self.current_phase)
            self.t1.append(0.0)
            self._stack.append(idx)
            self.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.t1[idx] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count(self, key: str, value=1):
        self.counts[self.current_phase][key] += value

    # ---------------------------------------------------------------- counters

    def _count_fp(self, iters):
        ran = iters[iters > 0]
        self.count("fp_steps", int(ran.size))
        self.count("fp_iters", int(ran.sum()))
        self.fp_iters_max = max(self.fp_iters_max, int(ran.max(initial=0)))

    def _after_simulate(self, args, kwargs, traj):
        self.count("traj_steps", _arg(args, kwargs, 4, "cfg").n_steps)
        z = _arg(args, kwargs, 6, "noise_z")
        if z is not None:
            base = z if z.base is None else z.base
            entry = self._blocks.get(id(base))
            if entry is not None:
                block, used = entry
                row = ((z.__array_interface__["data"][0]
                        - block.__array_interface__["data"][0]) // block.strides[0])
                used[row:row + z.shape[0]] = True
        self._count_fp(traj.fp_iters[1:])

    def _after_picard(self, args, kwargs, iterates):
        cfg = _arg(args, kwargs, 4, "cfg")
        self.count("traj_steps", (cfg.picard_iters + 1) * cfg.n_steps)
        for traj, _ in iterates:
            self._count_fp(traj.fp_iters[1:])

    def _after_draw(self, args, kwargs, z):
        rows = z.shape[0] if z.ndim == 2 else 1
        self.count("rows_drawn", rows)
        self.block_bytes_max = max(self.block_bytes_max, z.nbytes)
        caller = self._stack[-1]
        if caller >= 0 and self.names[self.name[caller]] in _SOLVER:
            self.count("rows_used", rows)  # the solver steps through its own block
        else:
            self._blocks[id(z)] = (z, np.zeros(rows, dtype=bool))

    def end_round(self):
        """Fold the rows of caller-drawn blocks that reached a step."""
        for _, used in self._blocks.values():
            self.count("rows_used", int(used.sum()))
        self._blocks.clear()

    def _after_functionals(self, args, kwargs, fns):
        for key, fn in fns.items():
            fns[key] = self.wrap("measure.functional", fn)

    # ---------------------------------------------------------------- patching

    def _set(self, obj, attr, value):
        had = attr in vars(obj)
        self._patches.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def _patch(self, module, fname, span_name, after=None):
        """Replace a function on every package module that holds it."""
        orig = getattr(module, fname)
        wrapped = self.wrap(span_name, orig, after)
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)

    def instrument(self, cs):
        """Wrap the maps of one coefficient set."""
        self._set(cs, "f", self.wrap("coefficients.f", cs.f))
        self._set(cs, "sigma", self.wrap("coefficients.sigma", cs.sigma))
        if cs.kernel_b is not None:
            self._set(cs.kernel_b, "z_map", self.wrap("coefficients.g", cs.kernel_b.z_map))

    def install(self, coefficient_sets=()):
        for name in _CONFIG:
            fname = name.split(".")[1]
            after = ((lambda a, k, cs: self.instrument(cs))
                     if fname == "make_coefficients" else None)
            self._patch(config, fname, name, after)
        self._patch(spectral, "assemble_operator", "spectral.assemble_operator")
        self._patch(segment, "from_initial_condition", "segment.initial")
        self._set(solver, "Segment", self.wrap("segment.window", segment.Segment))
        self._patch(solver, "simulate", "solver.simulate", self._after_simulate)
        self._patch(solver, "picard_run", "solver.picard_run", self._after_picard)
        for name in _DRIVERS:
            self._patch(measure, name.split(".")[1], name)
        self._patch(measure, "krylov_bogoliubov", "measure.krylov_bogoliubov",
                    lambda a, k, mu: self.count("samples_pooled", mu.n_samples))
        self._patch(measure, "ks_statistic", "measure.ks_statistic")
        self._patch(measure, "default_functionals", "measure.default_functionals",
                    self._after_functionals)
        for fname, pos in _WRITES.items():
            self._patch(serialize, fname, "serialize.write",
                        lambda a, k, r, pos=pos: self.count(
                            "bytes_written", os.path.getsize(a[pos])))
        for fname in _READS:
            self._patch(serialize, fname, "serialize.read",
                        lambda a, k, r: self.count("bytes_read", os.path.getsize(a[0])))

        orig_generator = noise.RngStream.generator

        def generator(stream):
            gen = orig_generator(stream)
            return _TracedGenerator(
                gen, self.wrap("noise.draw", gen.standard_normal, self._after_draw))

        self._set(noise.RngStream, "generator", self.wrap("noise.stream", generator))
        for cs in coefficient_sets:
            self.instrument(cs)

    def uninstall(self):
        for obj, attr, had, value in reversed(self._patches):
            if had:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)
        self._patches.clear()

    # ---------------------------------------------------------------- results

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.intc),
                 parent=np.frombuffer(self.parent, np.intc),
                 phase=np.frombuffer(self.phase, np.int8),
                 t0=np.frombuffer(self.t0), t1=np.frombuffer(self.t1))

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics for the set-up phase once plus one traced round
        (round-phase sums divided by ``rounds``); name -> (value, unit)."""
        n = len(self.t0)
        name = np.frombuffer(self.name, np.intc)
        parent = np.frombuffer(self.parent, np.intc)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        has = parent >= 0
        own = dur - np.bincount(parent[has], weights=dur[has], minlength=n)
        in_rounds = np.frombuffer(self.phase, np.int8) == ROUNDS
        w = np.where(in_rounds, 1.0 / rounds, 1.0)
        k = len(self.names)
        totals = np.bincount(name, weights=dur * w, minlength=k)
        selfs = np.bincount(name, weights=own * w, minlength=k)
        # counted as integers and divided once, so that an exact ratio such
        # as g calls per step comes out exact for any number of rounds
        calls = (np.bincount(name[~in_rounds], minlength=k)
                 + np.bincount(name[in_rounds], minlength=k) / rounds)

        def pick(arr, *names):
            return float(sum(arr[self._ids[x]] for x in names if x in self._ids))

        c = Counter(self.counts[SETUP])
        for key, v in self.counts[ROUNDS].items():
            c[key] += v / rounds

        def per_call_us(*names):
            n_calls = pick(calls, *names)
            return pick(selfs, *names) / n_calls * 1e6 if n_calls else 0.0

        steps = c["traj_steps"]
        solver_total = pick(totals, *_SOLVER)
        return {
            "config.build_s": (pick(selfs, *_CONFIG), "s"),
            "spectral.assemble_s": (pick(totals, "spectral.assemble_operator"), "s"),
            "noise.streams": (pick(calls, "noise.stream"), "count"),
            "noise.stream_s": (pick(totals, "noise.stream"), "s"),
            "noise.rows_drawn": (c["rows_drawn"], "count"),
            "noise.rows_used_frac": (c["rows_used"] / c["rows_drawn"]
                                     if c["rows_drawn"] else 0.0, "frac"),
            "noise.block_mb_max": (self.block_bytes_max / 1e6, "MB"),
            "coefficients.f.calls": (pick(calls, "coefficients.f"), "count"),
            "coefficients.f.self_s": (pick(selfs, "coefficients.f"), "s"),
            "coefficients.f.us_per_call": (per_call_us("coefficients.f"), "us"),
            "coefficients.sigma.calls": (pick(calls, "coefficients.sigma"), "count"),
            "coefficients.sigma.self_s": (pick(selfs, "coefficients.sigma"), "s"),
            "coefficients.sigma.us_per_call": (per_call_us("coefficients.sigma"), "us"),
            "coefficients.g.calls_per_step": (pick(calls, "coefficients.g") / steps
                                              if steps else 0.0, "calls/step"),
            "coefficients.g.self_s": (pick(selfs, "coefficients.g"), "s"),
            "coefficients.g.us_per_call": (per_call_us("coefficients.g"), "us"),
            "solver.traj_steps": (steps, "count"),
            "solver.self_s": (pick(selfs, *_SOLVER), "s"),
            "solver.us_per_traj_step": (solver_total / steps * 1e6 if steps else 0.0,
                                        "us"),
            "solver.fp_iters_per_step.mean": (c["fp_iters"] / c["fp_steps"]
                                              if c["fp_steps"] else 0.0, "iters"),
            "solver.fp_iters_per_step.max": (self.fp_iters_max, "iters"),
            "segment.checkpoints": (pick(calls, "segment.window"), "count"),
            "segment.self_s": (pick(selfs, "segment.window", "segment.initial"), "s"),
            "measure.pool_s": (pick(totals, "measure.krylov_bogoliubov"), "s"),
            "measure.samples_pooled": (c["samples_pooled"], "count"),
            "measure.functional_calls": (pick(calls, "measure.functional"), "count"),
            "measure.functional_s": (pick(totals, "measure.functional"), "s"),
            "measure.ks_s": (pick(totals, "measure.ks_statistic"), "s"),
            "measure.driver_self_s": (pick(selfs, *_DRIVERS), "s"),
            "serialize.bytes_written": (c["bytes_written"], "B"),
            "serialize.bytes_read": (c["bytes_read"], "B"),
            "serialize.write_s": (pick(totals, "serialize.write"), "s"),
            "serialize.read_s": (pick(totals, "serialize.read"), "s"),
            "cli.simulate_s": (pick(totals, "cli.simulate"), "s"),
            "cli.estimate_measure_s": (pick(totals, "cli.estimate_measure"), "s"),
            "cli.invariance_test_s": (pick(totals, "cli.invariance_test"), "s"),
        }
