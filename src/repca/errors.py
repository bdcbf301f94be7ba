"""Exception and warning types shared across the package."""


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
