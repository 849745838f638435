"""Exception hierarchy for joltlab, and the field contracts of its specs.

Every error raised by the library derives from JoltlabError so callers can
catch library failures with a single except clause. The CLI maps subclasses
onto exit codes (config errors -> 2, data contract violations -> 3).

A spec is a dataclass deriving from :class:`Spec`. It declares each field's
contract once, in the field's metadata, as one of four kinds: :func:`real`,
a finite real number, optionally bounded (``gt``, ``ge``, ``lt``, ``le``);
:func:`whole`, a whole number in [``ge``, ``le``]; :func:`pair`, a (lo, hi)
pair of finite reals with lo <= hi; :func:`text`, a non-empty string.
``Spec.__post_init__`` is the one checker: from a plan read once per class,
it raises the first failing field's error (InvalidSpec unless it names
another) naming the class or its config section, the field and the value.
A spec's own ``__post_init__`` calls it first, then checks the cross-field
rules.
"""

import math
import numbers
from dataclasses import MISSING, field, fields
from functools import cache


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


class TooFewPermutations(InvalidSpec):
    pass


class ScheduleViolation(ConfigError):
    pass


class BudgetExceeded(ConfigError):
    pass


# --- spec field contracts -----------------------------------------------------

def _finite(x) -> bool:
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:  # an int past float range
        return False


def real(default=MISSING, *, gt=None, ge=None, lt=None, le=None, n=None):
    """A field holding a finite real number, not a bool, > gt, >= ge, < lt and
    <= le where given (an upper bound needs a lower one); with ``n``, a sequence
    of ``n`` of them, where a bool counts (as weights). A None default admits None."""
    lo, hi = (ge if gt is None else gt), (le if lt is None else lt)
    if hi is not None:
        where = f"in {'[' if gt is None else '('}{lo}, {hi}{']' if lt is None else ')'}"
    else:
        where = "" if lo is None else f"{'>=' if gt is None else '>'} {lo}"

    def within(x):
        return ((lo is None or (x >= lo if gt is None else x > lo))
                and (hi is None or (x <= hi if lt is None else x < hi)))

    def test(x):
        if x is None and default is None:
            return None
        if isinstance(x, bool) or not _finite(x):
            return "be a finite number"
        return None if within(x) else ("lie " if hi is not None else "be ") + where

    def test_each(x):
        if hasattr(x, "__len__") and len(x) == n and all(_finite(v) and within(v) for v in x):
            return None
        return f"be {n} finite numbers {where}".rstrip()

    return field(default=default,
                 metadata={"contract": (test if n is None else test_each, InvalidSpec)})


def whole(default, *, ge, le=None, error=InvalidSpec):
    """A field holding a whole number >= ``ge`` and <= any ``le``; a bool is
    not one. A None default admits None."""

    def test(x):
        if x is None and default is None:
            return None
        if not isinstance(x, numbers.Integral) or isinstance(x, bool):
            return "be a whole number or null" if default is None else "be a whole number"
        if x < ge:
            return f"be >= {ge}"
        return None if le is None or x <= le else f"be <= {le}"

    return field(default=default, metadata={"contract": (test, error)})


def text(default, *, among=None):
    """A field holding a non-empty string; with ``among``, one of those."""
    wanted = "be a non-empty string" if among is None else f"be one of {', '.join(among)}"

    def test(x):
        return None if isinstance(x, str) and x and (among is None or x in among) else wanted

    return field(default=default, metadata={"contract": (test, InvalidSpec)})


def pair(default):
    """A field holding a (lo, hi) pair of finite real numbers, lo <= hi."""

    def test(x):
        if hasattr(x, "__len__") and len(x) == 2 and all(map(_finite, x)) and x[0] <= x[1]:
            return None
        return "be two finite numbers lo <= hi"

    return field(default=default, metadata={"contract": (test, InvalidSpec)})


@cache
def _plan(cls) -> tuple:  # (name, test, error) of each field with a contract
    return tuple((f.name, *f.metadata["contract"])
                 for f in fields(cls) if "contract" in f.metadata)


class Spec:
    """Base of a spec dataclass; an error names a field after the class's
    config section (``class GridSpec(Spec, section="grid")``), else the class."""

    def __init_subclass__(cls, section=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._section = section or cls.__name__

    def __post_init__(self):
        for name, test, error in _plan(type(self)):
            wrong = test(getattr(self, name))
            if wrong is not None:
                raise error(f"{self._section} {name} must {wrong}, got {getattr(self, name)!r}")
