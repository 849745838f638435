"""The error classes of joltlab, and the field contracts of its specs.

Every error the library raises is a DataError or a ConfigError, each a
JoltlabError, so one except clause catches them all, and the message names
the cause. The class says which exit code the CLI gives:

- DataError: a series or file breaks an input contract; exit 3.
- ConfigError: a config key, flag or argument is wrong, or an input file is
  malformed (its message then begins ``line N: `` when a line is at fault);
  exit 2.

A spec is a dataclass deriving from :class:`Spec`. It declares each field's
contract once, in the field's metadata, as one of four kinds: :func:`real`,
a finite real number, optionally bounded (``gt``, ``ge``, ``lt``, ``le``);
:func:`whole`, a whole number in [``ge``, ``le``]; :func:`pair`, a (lo, hi)
pair of finite reals with lo <= hi; :func:`text`, a non-empty string. The
metadata's ``contract`` is the test: None for a good value, else what the
value must be. ``Spec.__post_init__`` is the one checker: from a plan read
once per class, it raises a ConfigError for the first failing field, naming
the class or its config section, the field and the value. A spec's own
``__post_init__`` calls it first, then checks the cross-field rules.
"""

import math
import numbers
from dataclasses import MISSING, field, fields
from functools import cache


class JoltlabError(Exception):
    """Base class for all joltlab errors."""


class DataError(JoltlabError):
    """A series or file violates an input contract (the CLI exits 3)."""


class ConfigError(JoltlabError):
    """Invalid configuration or usage: an unknown key, a bad value, a malformed
    input file (the CLI exits 2)."""


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

    return field(default=default, metadata={"contract": test if n is None else test_each})


def whole(default, *, ge, le=None):
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

    return field(default=default, metadata={"contract": test})


def text(default, *, among=None):
    """A field holding a non-empty string; with ``among``, one of those."""
    wanted = "be a non-empty string" if among is None else f"be one of {', '.join(among)}"

    def test(x):
        return None if isinstance(x, str) and x and (among is None or x in among) else wanted

    return field(default=default, metadata={"contract": test})


def pair(default):
    """A field holding a (lo, hi) pair of finite real numbers, lo <= hi."""

    def test(x):
        if hasattr(x, "__len__") and len(x) == 2 and all(map(_finite, x)) and x[0] <= x[1]:
            return None
        return "be two finite numbers lo <= hi"

    return field(default=default, metadata={"contract": test})


@cache
def _plan(cls) -> tuple:  # (name, test) of each field with a contract
    return tuple((f.name, f.metadata["contract"]) for f in fields(cls) if "contract" in f.metadata)


class Spec:
    """Base of a spec dataclass; an error names a field after the class's
    config section (``class GridSpec(Spec, section="grid")``), else the class."""

    def __init_subclass__(cls, section=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._section = section or cls.__name__

    def __post_init__(self):
        for name, test in _plan(type(self)):
            value = getattr(self, name)
            if (wrong := test(value)) is not None:
                raise ConfigError(f"{self._section} {name} must {wrong}, got {value!r}")
