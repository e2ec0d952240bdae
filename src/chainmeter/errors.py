"""Exception types shared across the toolkit."""

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
    ``6.0``, ``6.9``, NaN and strings raise ``InputError`` naming ``name``
    (and carrying ``index``). The rule is ``operator.index``, the one
    ``range()`` applies."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}", index) from None


class ParseError(InputError):
    """A data file could not be parsed; the message names the path and line."""


class ValidationError(InputError):
    """A config violates one or more constraints; the message lists all of them."""


class FormatError(InputError):
    """An export was requested in a format that cannot represent the report."""


class TopologyError(ChainmeterError, RuntimeError):
    """No connected peer graph could be generated for the requested degree."""
