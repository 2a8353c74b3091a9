"""Exception types shared across the library."""


class TorsionLabError(Exception):
    """Base class for all library errors."""


class InvalidComplexError(TorsionLabError):
    def __init__(self, report):
        self.report = report
        super().__init__(f"invalid complex: {report.summary()}")


class PathComplexMismatchError(TorsionLabError):
    pass


class MissingEdgeMatrixError(TorsionLabError):
    pass


class NotFlatError(TorsionLabError):
    pass


class OpenPathError(TorsionLabError):
    pass


class UnsupportedDimensionError(TorsionLabError):
    pass


class UnsupportedStructureError(TorsionLabError):
    pass


class IllConditionedError(TorsionLabError):
    """A rank decision fell inside the guard band around the cutoff."""


class ZeroModeError(TorsionLabError):
    """Holonomy has eigenvalue 1 and zero modes were not requested."""


class SprayError(TorsionLabError):
    pass


class UnknownNameError(TorsionLabError, KeyError):
    """No corpus item, suite or holonomy family has this name."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr of it


class FloatRangeError(TorsionLabError, OverflowError):
    """An exact rational value lies outside the range of a double."""


class DenseSizeError(TorsionLabError):
    """A dense matrix would exceed the library's memory budget; nothing was allocated."""
