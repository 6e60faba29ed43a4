"""Exception types shared across the package, and the refusals of a choice and a count."""

import numbers


class NsfdeError(Exception):
    """Base class for all package errors."""


class ConfigError(NsfdeError, ValueError):
    """Invalid configuration value or file; the message names the offending key."""


class DomainError(NsfdeError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ShapeError(NsfdeError, ValueError):
    """Mode-vector or grid shape mismatch."""


class EllipticityError(ConfigError):
    """Diffusivity is not strictly positive on [0, 1], or a constant one is not finite."""


class SingularModulusError(DomainError):
    """Continuity modulus vanishes somewhere inside the integration range."""


class BlowupError(NsfdeError, RuntimeError):
    """State norm exceeded the blow-up guard during integration."""


class NonconvergenceError(NsfdeError, RuntimeError):
    """Fixed-point iteration for the implicit neutral term failed to converge."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def check_choice(where: str, val, allowed):
    """``val`` if it is one of the names ``allowed``; otherwise ConfigError
    naming the dotted config path ``where``."""
    if not (isinstance(val, str) and val in allowed):
        raise ConfigError(f"{where} = {val!r} not one of {sorted(allowed)}")
    return val


def check_count(where: str, val, lo=None):
    """``val`` as an int if it is an integer (Python or numpy, not a bool) of at least
    ``lo``; otherwise ConfigError naming the dotted config path ``where``."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ConfigError(f"{where} must be an integer")
    if lo is not None and val < lo:
        raise ConfigError(f"{where} = {val} must be >= {lo}")
    return int(val)
