"""Exception hierarchy for joltlab.

Every error raised by the library derives from JoltlabError so callers can
catch library failures with a single except clause. The CLI maps subclasses
onto exit codes (config errors -> 2, data contract violations -> 3,
numerical failures -> 4).
"""


class JoltlabError(Exception):
    """Base class for all joltlab errors."""


# --- data contract violations -------------------------------------------------

class DataError(JoltlabError):
    """A series or file violates an input contract."""


class NonMonotonicTime(DataError):
    pass


class NonFiniteValue(DataError):
    pass


class ShapeError(DataError):
    """Times and values are not two 1-D arrays of one non-zero length."""


class NonPositiveValue(DataError):
    pass


class ParseError(DataError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(DataError):
    pass


class GridMismatch(DataError):
    pass


class NonUniformGrid(DataError):
    pass


class SeriesTooShort(DataError):
    pass


class TooFewPoints(DataError):
    pass


class NonPositiveCapability(DataError):
    pass


class EmptyCell(DataError):
    pass


# --- configuration / usage errors ---------------------------------------------

class ConfigError(JoltlabError):
    """Invalid configuration (unknown key, bad value)."""


class InvalidSpec(ConfigError):
    pass


class WindowTooLarge(ConfigError):
    pass


class InvalidOrder(ConfigError):
    pass


class OrderExceedsPoly(ConfigError):
    pass


class TooFewPermutations(ConfigError):
    pass


class ScheduleViolation(ConfigError):
    pass


class BudgetExceeded(ConfigError):
    pass


# --- numerical failures -------------------------------------------------------

class NumericalError(JoltlabError):
    pass
