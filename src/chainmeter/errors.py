"""Exception types shared across the toolkit, and the four number rules every
boundary applies: ``integer`` for counts, ``real`` for any other number,
``plain`` for the real a formula computes with, and ``positive`` for the range
of a number a formula multiplies or divides by. ``exact`` tells when a type
can keep a column it is given as it is."""

import math
import numbers
import operator


class ChainmeterError(Exception):
    """Base class for all chainmeter errors."""


class InputError(ChainmeterError, ValueError):
    """A value violates a domain invariant (weight, epsilon, share, size, ...).

    ``index`` is the position of the offending entry when the value is a
    sequence checked entry by entry, so a loader can name the line it came
    from; otherwise None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def integer(value, name: str, index: int | None = None) -> int:
    """``value`` as an int if it is one: ints and numpy ints pass, while
    ``6.0``, ``6.9``, NaN, strings and booleans raise ``InputError`` naming
    ``name`` (and carrying ``index``). The rule is ``operator.index``, the
    one ``range()`` applies, less ``bool``: a JSON ``true`` is not a count."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InputError(f"{name} must be an integer, got {value!r}", index)


def real(value, name: str, index: int | None = None) -> float:
    """``value`` as a float if it is a ``numbers.Real``, less ``bool``: ints,
    floats and numpy reals pass, while booleans, ``np.bool_``, strings and None
    raise ``InputError`` naming ``name`` (and carrying ``index``). The range is
    the caller's test: NaN passes, and an int past the float range is infinite."""
    # An exact float or int skips the ABC test, the slow part of the rule.
    if type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise InputError(f"{name} must be a number, got {value!r}", index)


def plain(value, name: str) -> int | float:
    """A number ``real`` passes, as formulas should compute with it: an int as
    it is, so what prints from it stays the same, and any other number as the
    float ``real`` gives, so a numpy ``float32`` computes in double precision."""
    return value if type(value) is int else real(value, name)


def positive(value, name: str) -> int | float:
    """``value`` as ``plain`` gives it, if ``real`` reads it as lying in
    (0, inf); anything else, NaN and an int past the float range included,
    raises ``InputError`` naming ``name``. A count is checked as
    ``positive(integer(value, name), name)``."""
    x = real(value, name)
    # Also false for NaN.
    if not 0 < x < math.inf:
        raise InputError(f"{name} must be positive and finite, got {value!r}")
    return value if type(value) is int else x


def exact(column, kind: type) -> bool:
    """Whether ``column`` is exactly a tuple whose cells are all exactly of
    type ``kind``, which a type can keep as it is given."""
    return type(column) is tuple and set(map(type, column)) <= {kind}


class ParseError(InputError):
    """A data file could not be parsed; the message names the path and line."""


class ValidationError(InputError):
    """A config violates one or more constraints; the message lists all of them."""


class FormatError(InputError):
    """An export was requested in a format that cannot represent the report."""


class TopologyError(ChainmeterError, RuntimeError):
    """No connected peer graph could be generated for the requested degree."""
