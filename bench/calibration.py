"""Calibration: the machine's current speed, timed beside every measurement.

On a shared 2-core x86 virtual machine, other tenants change the speed by up
to 1.8x, and a slow spell can last through a whole run, so raw times do not
repeat from run to run.  Two references are therefore timed next to the
work, and the work's time is divided by theirs.  Neither calls the package,
so a program change cannot move them, while a slowdown of the machine moves
them about as much as the work:

* ``seconds`` times a small-array numpy kernel of the kind that dominates a
  solver step (a matrix-vector product, a pointwise map and a reduction on a
  64 x 16 array); it scales the driver calls.  In a test on that machine
  the ratio of a solver run to the kernel stayed within 3 % while the raw
  speed varied by 1.8x.
* ``start_seconds`` times a fresh interpreter that imports the package's
  dependencies; it scales the set-up processes, whose time is mostly the
  same imports.  The kernel tracks set-up time poorly: in a test on that
  machine the set-up's ratio to it varied by 14 % (coefficient of
  variation) and its ratio to the start-up by 6 %.

Scaled times read as seconds at the reference speed, where the references
take ``REF_S`` and ``START_REF_S``: about their unloaded times on that
machine.
"""

import subprocess
import sys
import time
from time import perf_counter

import numpy as np

_A = np.random.default_rng(0).standard_normal((64, 16))
_X = np.ones(16)
_REPS = 2000
REF_S = 0.005
START_REF_S = 0.6
START_CODE = "import numpy, scipy.integrate, yaml"


def seconds() -> float:
    """One timed run of the kernel."""
    t0 = perf_counter()
    for _ in range(_REPS):
        float(np.tanh(_A @ _X).sum())
    return perf_counter() - t0


def start_seconds(env) -> float:
    """Wall time of one interpreter that imports the dependencies and exits."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", START_CODE], env=env, check=True, timeout=60)
    return time.monotonic() - t0


def scale(measured: float, before: float, after: float, ref: float = REF_S) -> float:
    """``measured`` seconds at the reference speed, given a reference's
    durations just before and just after the measurement."""
    return measured * ref / (0.5 * (before + after))
