"""Trace-class Q-Wiener increments and exact stochastic-convolution sampling.

The driving noise is W(t) = sum_k sqrt(lambda_k) beta_k(t) e_k with the
covariance eigenbasis aligned with the operator eigenbasis, so the exact
stochastic-convolution (OU) increment of a step is standard normals times
``ou_std``.  Streams are keyed counter-style: Philox seeded through a
``SeedSequence(seed, spawn_key=(stream_id,))`` gives reproducible,
statistically independent sequences, one stream per trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, check_choice, check_count
from .spectral import SpectralOperator

SOURCE_LIMIT = 1 << 63  # seeds and stream ids are int64 in arrays and files


@dataclass(frozen=True)
class RngStream:
    """Provenance handle (seed, stream_id) for one reproducible noise stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < SOURCE_LIMIT and 0 <= self.stream_id < SOURCE_LIMIT):
            raise DomainError(f"noise stream ({self.seed}, {self.stream_id}): "
                              "seed and stream_id must be nonnegative and < 2**63")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; same (seed, stream_id) -> identical draws."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))


@dataclass(eq=False)
class QWienerSpec:
    """Covariance spectrum of the Q-Wiener process; its trace is the sum of the
    eigenvalues, finite by construction."""

    lambdas: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=float)
        if self.lambdas.ndim != 1 or self.lambdas.size == 0:
            raise ShapeError("lambdas must be a nonempty 1-d array")
        if not np.all((self.lambdas >= 0.0) & (self.lambdas < np.inf)):   # NaN fails both
            raise DomainError("covariance eigenvalues must be nonnegative and finite")

    @property
    def trace(self) -> float:
        return float(np.sum(self.lambdas))

    @property
    def n_modes(self) -> int:
        return int(self.lambdas.size)


def builtin_qwiener(n_modes: int, spectrum: str = "power", exponent: float = 2.0,
                    trace: float = 1.0) -> QWienerSpec:
    """lambda_k = c k^{-exponent} (``power``; exponent > 1 bounds the trace in N) or c 2^{-k}
    (``geometric``), normalized to ``trace``; the parameters are the config's ``noise`` keys."""
    check_choice("noise.spectrum", spectrum, ("power", "geometric"))
    if exponent <= 1.0:
        raise ConfigError(f"noise.exponent = {exponent!r} out of range: must exceed 1")
    if trace <= 0.0:
        raise ConfigError(f"noise.trace = {trace!r} out of range: must be positive")
    k = np.arange(1, check_count("operator.n_modes", n_modes, 1) + 1, dtype=float)
    raw = k ** (-exponent) if spectrum == "power" else 2.0 ** (-k)
    return QWienerSpec(lambdas=raw * (trace / raw.sum()))


def ou_std(spec: QWienerSpec, op: SpectralOperator, dt: float) -> np.ndarray:
    """Per-mode standard deviation of the exact stochastic-convolution increment.

    Var of int_t^{t+dt} e^{-mu_k (t+dt-s)} sqrt(lambda_k) d beta_k(s) is
    lambda_k (1 - e^{-2 mu_k dt}) / (2 mu_k); its stationary limit is
    lambda_k / (2 mu_k).
    """
    if dt <= 0.0:
        raise DomainError("increment length dt must be positive")
    if spec.n_modes != op.n_modes:
        raise ShapeError("covariance spectrum and operator truncation disagree")
    mu = op.eigenvalues
    return np.sqrt(spec.lambdas * (-np.expm1(-2.0 * mu * dt)) / (2.0 * mu))

