"""Nilpotent Dirac state vectors as an exact finite group algebra, with the
bound-state, charge-structure, unification and mass machinery built on top;
the root holds what every refusal reads: the two dataset errors and the rule
by which a one-line message repeats the value it refuses."""

import math

__version__ = "0.1.0"
_ECHO = 60  # the characters of a refused value that its one-line message repeats


class MissingDataError(LookupError):
    """A dataset file lacks an entry the program reads."""


class InvalidDataError(ValueError):
    """A dataset file holds a value outside the domain the program reads it in."""


def _digit_count(v: int) -> int:
    """Decimal digits of v > 0, without str(), which refuses a long int."""
    k = int(math.log10(v))  # off by at most one next to a power of ten
    k -= v < 10 ** k
    k += v >= 10 ** (k + 1)
    return k + 1


def _echo(value) -> str:
    """``value`` as a message repeats it: whole if short, else its head and
    length, or the digits of an int too long for ``str`` to print."""
    try:
        text = value if isinstance(value, str) else str(value)
    except ValueError:  # past sys.get_int_max_str_digits
        digits = _digit_count(max(abs(value.numerator), value.denominator))
        return f"a number too long to print (an int of {digits} digits)"
    return text if len(text) <= _ECHO else f"{text[:_ECHO]}... ({len(text)} characters)"


def _printable(value, name: str):
    """``value``, a rational that a report repeats, or ValueError naming
    ``name`` if ``str`` refuses it (an int past sys.get_int_max_str_digits)."""
    try:
        str(value)
    except ValueError:
        raise ValueError(f"{name} is {_echo(value)}") from None
    return value
