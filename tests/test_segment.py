"""History-window container: validation, norms, construction."""
import re

import numpy as np
import pytest

from nsfde import (ConfigError, RngStream, Segment, ShapeError,
                   assemble_operator, constant_segment,
                   from_initial_condition, random_segments, sup_norm,
                   zero_segment)
from nsfde.segment import _window_steps


def test_window_shape_validation():
    with pytest.raises(ShapeError):
        Segment(h=0.1, dt=0.01, values=np.zeros((5, 3)))  # needs 11 nodes
    with pytest.raises(ShapeError):
        Segment(h=0.1, dt=0.01, values=np.zeros(11))
    with pytest.raises(ConfigError):
        Segment(h=0.1, dt=0.03, values=np.zeros((4, 3)))  # h/dt not an integer
    seg = Segment(h=0.1, dt=0.01, values=np.zeros((11, 3)))
    assert seg.m == 10 and seg.n_modes == 3
    with pytest.raises(ConfigError, match=re.escape("delay/step ratio h/dt: span 0.0 and step "
                                                    "0.01 must be positive and finite")):
        _window_steps(0.0, 0.01)


def test_sup_norm_is_max_node_norm():
    seg = Segment(h=0.2, dt=0.1, values=np.array([[3.0, 4.0], [0.0, 1.0], [1.0, 0.0]]))
    assert sup_norm(seg.values) == 5.0
    assert sup_norm(zero_segment(0.2, 0.1, 2).values) == 0.0
    # a stack of windows gives one norm per window
    stack = np.stack([seg.values, -2.0 * seg.values])
    assert np.array_equal(sup_norm(stack), [5.0, 10.0])


def test_constructors():
    z = zero_segment(0.2, 0.05, 4)
    assert z.values.shape == (5, 4) and not z.values.any()
    c = constant_segment(0.2, 0.05, [1.0, -2.0])
    assert np.array_equal(c.values, np.tile([1.0, -2.0], (5, 1)))


def test_from_initial_condition_profile_and_ramp():
    op = assemble_operator(n_modes=8)
    flat = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                   "amplitude": 2.0}, 0.1, 0.05, op)
    # 2 sin(pi x) = sqrt2 * e_1, constant in theta
    assert flat.values[:, 0] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert np.max(np.abs(flat.values[:, 1:])) <= 1e-12

    ramped = from_initial_condition({"kind": "profile", "profile": "sin_pi",
                                     "amplitude": 2.0, "ramp": True}, 0.1, 0.05, op)
    assert ramped.values[0, 0] == pytest.approx(0.0, abs=1e-15)  # vanishes at -h
    assert ramped.values[-1, 0] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert ramped.values[1, 0] == pytest.approx(np.sqrt(2.0) * 0.5, rel=1e-12)


def test_from_initial_condition_other_kinds():
    op = assemble_operator(n_modes=4)
    assert not from_initial_condition({"kind": "zero"}, 0.1, 0.05, op).values.any()

    cseg = from_initial_condition({"kind": "coeffs", "coeffs": [1.0, 0.0, 0.5, 0.0]},
                                  0.1, 0.05, op)
    assert np.array_equal(cseg.values[0], [1.0, 0.0, 0.5, 0.0])


    with pytest.raises(ConfigError, match="unknown initial profile 'nope'"):
        from_initial_condition({"kind": "profile", "profile": "nope"}, 0.1, 0.05, op)
    with pytest.raises(ConfigError, match="initial.coeffs length must equal n_modes"):
        from_initial_condition({"kind": "coeffs", "coeffs": [1.0]}, 0.1, 0.05, op)
    with pytest.raises(ConfigError, match="unknown initial kind 'wavelet'"):
        from_initial_condition({"kind": "wavelet"}, 0.1, 0.05, op)
    with pytest.raises(ConfigError, match="unsupported initial-condition descriptor"):
        from_initial_condition(0.5, 0.1, 0.05, op)
    # an initial window is a descriptor, its profile a PROFILES name: no callables
    with pytest.raises(ConfigError, match="initial-condition descriptor of type function"):
        from_initial_condition(lambda theta, x: (1.0 + theta) * np.sin(np.pi * x), 0.1, 0.05, op)
    with pytest.raises(ConfigError, match="unknown initial profile <function"):
        from_initial_condition({"kind": "profile", "profile": lambda x: np.sin(np.pi * x)},
                               0.1, 0.05, op)
    with pytest.raises(ConfigError, match=re.escape("unknown initial profile ['sin_pi']")):
        from_initial_condition({"kind": "profile", "profile": ["sin_pi"]}, 0.1, 0.05, op)


def test_random_segment_modes_decay():
    op = assemble_operator(n_modes=16)
    gen = RngStream(3, 0).generator()
    seg = random_segments(op, 0.1, 0.025, gen, 1.0)
    assert seg.shape == (5, 16)
    head = np.abs(seg).max(axis=0)
    assert head[0] > head[-1]  # n^{-2} amplitude envelope

    # a stack from one draw equals the windows drawn one at a time in C order,
    # bit for bit, and leaves the generator where they leave it
    amps = 10.0 ** np.linspace(-3.0, 2.0, 6).reshape(3, 2)
    gen, ref = RngStream(4, 0).generator(), RngStream(4, 0).generator()
    stack = random_segments(op, 0.1, 0.025, gen, amps)
    assert stack.shape == (3, 2, 5, 16)
    for idx in np.ndindex(amps.shape):
        assert np.array_equal(stack[idx], random_segments(op, 0.1, 0.025, ref, amps[idx]))
    assert np.array_equal(gen.random(4), ref.random(4))   # the same next draw
