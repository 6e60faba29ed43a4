"""Exception types shared across the package, and the refusals of a choice, a count and
a number."""

import math
import numbers


class NsfdeError(Exception):
    """Base class for all package errors."""


class ConfigError(NsfdeError, ValueError):
    """A refused scalar (a config field, a flag or a library argument) or config file;
    the message names the field's dotted path or the argument."""


class DomainError(NsfdeError, ValueError):
    """Refused array contents, or a failed numerical condition (an unresolved Osgood
    integral); a refused scalar is a ``ConfigError``."""


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
    ``lo``; otherwise ConfigError naming ``where``, a dotted config path or an argument."""
    if isinstance(val, bool) or not isinstance(val, numbers.Integral):
        raise ConfigError(f"{where} must be an integer")
    if lo is not None and val < lo:
        raise ConfigError(f"{where} = {val} must be >= {lo}")
    return int(val)


def is_finite(val) -> bool:
    """True for a finite real number (Python or numpy, not a bool); an integer past
    the double range is not."""
    try:
        return isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:
        return False


def check_number(where: str, val, lo=None, hi=None, lo_open=True, hi_open=True):
    """``val`` as a float if it is a finite real number (not a bool) within the bounds
    given, each open unless ``lo_open``/``hi_open`` is false; otherwise ConfigError
    naming ``where``, a dotted config path or an argument."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ConfigError(f"{where} must be a number")
    if not is_finite(val):
        raise ConfigError(f"{where} = {val} must be finite")
    val = float(val)
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    if not ((val > lo if lo_open else val >= lo) and (val < hi if hi_open else val <= hi)):
        raise ConfigError(f"{where} = {val!r} out of range {'(' if lo_open else '['}{lo:g}, "
                          f"{hi:g}{')' if hi_open else ']'}")
    return val
