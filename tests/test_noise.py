"""Covariance spectra, stream reproducibility and the exact OU increment."""
import re

import numpy as np
import pytest

from nsfde import (ConfigError, DomainError, QWienerSpec, RngStream, ShapeError,
                   assemble_operator, builtin_qwiener, ou_std, parse_config)


def test_power_spectrum_shape_and_trace():
    q = builtin_qwiener(6, exponent=2.0, trace=3.0)
    assert q.trace == pytest.approx(3.0, rel=1e-15)
    assert q.lambdas.sum() == pytest.approx(3.0, rel=1e-15)
    k = np.arange(1.0, 7.0)
    assert np.allclose(q.lambdas / q.lambdas[0], k ** -2.0, rtol=1e-14)
    with pytest.raises(ConfigError, match=re.escape("noise.exponent = 1.0 out of range")):
        builtin_qwiener(6, exponent=1.0)  # borderline harmonic tail: trace diverges
    with pytest.raises(ConfigError, match=re.escape("noise.trace = 0.0 out of range")):
        builtin_qwiener(6, trace=0.0)


def test_geometric_spectrum_halves_each_mode():
    q = builtin_qwiener(8, spectrum="geometric", trace=float(sum(2.0 ** -k for k in range(1, 9))))
    assert np.array_equal(q.lambdas, 2.0 ** -np.arange(1, 9))
    assert np.allclose(q.lambdas[1:] / q.lambdas[:-1], 0.5, rtol=1e-14)
    for trace in (0.0, -1.0):
        with pytest.raises(ConfigError, match=re.escape(f"noise.trace = {trace} out of range")):
            builtin_qwiener(8, spectrum="geometric", trace=trace)


@pytest.mark.parametrize("noise", [{"trace": -1.0}, {"exponent": 1.0}, {"spectrum": "white"}])
def test_the_config_and_the_builder_refuse_a_noise_field_alike(noise):
    # the config table checks only the types of noise.*: its range refusals are the builder's
    with pytest.raises(ConfigError) as by_config:
        parse_config({"noise": noise})
    with pytest.raises(ConfigError) as by_builder:
        builtin_qwiener(4, **noise)
    assert str(by_config.value) == str(by_builder.value)
    assert str(by_builder.value).startswith(f"noise.{next(iter(noise))} = ")


def test_spec_validation():
    with pytest.raises(DomainError):
        QWienerSpec(lambdas=np.array([1.0, -0.1]))
    with pytest.raises(ShapeError):
        QWienerSpec(lambdas=np.zeros((2, 2)))
    q = QWienerSpec(lambdas=np.array([0.5, 0.25]))
    assert q.trace == 0.75 and q.n_modes == 2


@pytest.mark.parametrize("build", [
    lambda: QWienerSpec(lambdas=[np.nan, 1.0]),
    lambda: builtin_qwiener(4, exponent=np.nan),
    lambda: builtin_qwiener(4, trace=np.inf),
])
def test_a_spectrum_with_a_non_finite_eigenvalue_is_refused(build):
    with pytest.raises(DomainError, match="covariance eigenvalues must be nonnegative and finite"):
        build()


def test_stream_reproducible_and_independent():
    a1 = RngStream(1212, 0).generator().standard_normal(100)
    a2 = RngStream(1212, 0).generator().standard_normal(100)
    b = RngStream(1212, 1).generator().standard_normal(100)
    c = RngStream(1213, 0).generator().standard_normal(100)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    for seed, stream_id in ((-1, 0), (0, -1)):
        with pytest.raises(DomainError, match="must be nonnegative"):
            RngStream(seed, stream_id)


def test_seed_and_stream_id_must_fit_int64():
    assert RngStream(2**63 - 1, 2**63 - 1).generator() is not None
    for seed, stream_id in ((2**63, 0), (0, 2**63), (2**64, 0)):
        with pytest.raises(DomainError, match=re.escape("nonnegative and < 2**63")):
            RngStream(seed, stream_id)


def test_block_draw_equals_row_draws():
    # the solver draws its whole (steps, n) block in one call; per-row
    # consumers (picard, coupled probes) rely on the flattening order
    st = RngStream(987, 3)
    block = st.generator().standard_normal((100, 8))
    gen = st.generator()
    rows = np.vstack([gen.standard_normal(8) for _ in range(100)])
    assert np.array_equal(block, rows)


def test_ou_std_closed_form_and_limits():
    op = assemble_operator(n_modes=4)
    q = builtin_qwiener(4, trace=1.0)
    dt = 0.01
    want = np.sqrt(q.lambdas * (1.0 - np.exp(-2.0 * op.eigenvalues * dt))
                   / (2.0 * op.eigenvalues))
    assert np.allclose(ou_std(q, op, dt), want, rtol=1e-12)
    # long-step limit: the stationary standard deviation
    stat = np.sqrt(q.lambdas / (2.0 * op.eigenvalues))
    assert np.allclose(ou_std(q, op, 1e3), stat, rtol=1e-12)
    # short-step limit: sqrt(lambda dt), the plain increment scale
    assert np.allclose(ou_std(q, op, 1e-12), np.sqrt(q.lambdas * 1e-12), rtol=1e-4)
    with pytest.raises(ShapeError):
        ou_std(builtin_qwiener(3), op, dt)
    for bad in (0.0, -dt):
        with pytest.raises(DomainError, match="increment length dt must be positive"):
            ou_std(q, op, bad)


def test_ou_convolution_increment_variance():
    op = assemble_operator(n_modes=3)
    q = builtin_qwiener(3, trace=1.0)
    gen = RngStream(6, 0).generator()
    draws = gen.standard_normal((20000, 3)) * ou_std(q, op, 0.05)
    assert np.allclose(draws.var(axis=0), ou_std(q, op, 0.05) ** 2, rtol=0.06)


@pytest.mark.parametrize("n_modes", [4.2, 4.5, True])
@pytest.mark.parametrize("spectrum", ["power", "geometric"])
def test_spectrum_mode_counts_must_be_integers(spectrum, n_modes):
    # 4.2 and 4.5 built five modes and True one, where assemble_operator refuses them
    with pytest.raises(ConfigError, match=r"^operator.n_modes must be an integer$"):
        builtin_qwiener(n_modes, spectrum)
    with pytest.raises(ConfigError, match=r"^operator.n_modes = 0 must be >= 1$"):
        builtin_qwiener(0, spectrum)
