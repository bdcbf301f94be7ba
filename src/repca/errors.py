"""Exception and warning types, and the type checks the spec classes share."""
import numbers


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class RankDeficient(RuntimeError):
    """A matrix that must have full column rank does not."""


class InvalidSpec(ValueError):
    """A loss, generator, or solver configuration failed validation."""


class CsvParseError(ValueError):
    """A CSV file could not be parsed as a numeric matrix."""


class SpectrumGapWarning(RuntimeWarning):
    """The eigengap at the requested cut is so small that the returned
    subspace is not well determined."""


def require_int(name: str, value) -> None:
    """Raise InvalidSpec unless ``value`` is an integer: a Python or numpy
    int, but not a float and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value) -> float:
    """``value`` as a float; InvalidSpec unless it is a real number: a
    Python or numpy float or int, but not a bool, not a string and not an
    int past the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSpec(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InvalidSpec(f"{name} is an integer past the float range") from None
