"""What a valid argument is, written once for the whole library.

Every public entry point passes a value through one of these rules where
it enters the library, so the same argument means the same thing
everywhere, and a bad one raises a `ValueError` whose message begins
with the argument's name.  An integer is a Python or numpy integer
(`operator.index`): bool, float, str and None are not, whatever their
value, and the integer rules return a Python `int`.  A real number is a
Python or numpy int or float (`numbers.Real`) but not a bool, and the
real rules return a Python `float`.
"""

from __future__ import annotations

from contextlib import suppress
from math import inf
from numbers import Real
from operator import index

import numpy as np


def _integer(value, low: int, high: int | float) -> int | None:
    """`value` as an int if it is an integer in low..high, else None."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        whole = index(value)
    except TypeError:
        return None
    return whole if low <= whole <= high else None


def positive_int(value, what: str) -> int:
    if (whole := _integer(value, 1, inf)) is None:
        raise ValueError(f"{what} must be an integer >= 1, got {value}")
    return whole


def nonnegative_int(value, what: str) -> int:
    if (whole := _integer(value, 0, inf)) is None:
        raise ValueError(f"{what} must be an integer >= 0, got {value}")
    return whole


def seed(value, what: str) -> int:
    """A seed: an integer in 0..2**64 - 1, the SplitMix64 state it sets."""
    if (whole := _integer(value, 0, 2**64 - 1)) is None:
        raise ValueError(f"{what} must be an integer in 0..2**64 - 1, got {value}")
    return whole


def fraction(value, what: str, *, zero: bool = True) -> float:
    """A real number in [0, 1], or in (0, 1] without `zero`; not a bool."""
    if isinstance(value, Real) and not isinstance(value, (bool, np.bool_)):
        if (0.0 <= value if zero else 0.0 < value) and value <= 1.0:
            return float(value)
    raise ValueError(f"{what} must be in {'[' if zero else '('}0, 1], got {value}")


def weight(value, what: str) -> float:
    """A pmf weight: a finite real number >= 0; not a bool."""
    if isinstance(value, Real) and not isinstance(value, (bool, np.bool_)):
        with suppress(OverflowError):  # an int or Fraction beyond the float range
            if 0.0 <= (real := float(value)) < inf:  # NaN fails both
                return real
    raise ValueError(f"{what} must be a finite real number >= 0, got {value}")


def int_array(values, what: str) -> np.ndarray:
    """`values` as an array (not copied if it is one) of an integer dtype.

    An empty sequence passes whatever its dtype (`np.asarray([])` is
    float64); bool, float, str and object dtypes fail.
    """
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
    return values
