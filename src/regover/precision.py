"""The working-precision contract, without mpmath.

The precision constants and the two numeric exceptions live here so that
code which only validates a precision, or only catches these errors, does
not import mpmath.  :data:`DEFAULT_PRECISION` is a plain default value:
every library function takes its precision as an argument, and nothing
reads it from the environment.  :mod:`regover.numerics` re-exports every
name.
"""

from __future__ import annotations


class NumericsError(ValueError):
    """Raised on domain violations in rigorous numeric operations."""


class PrecisionExhausted(ArithmeticError):
    """An interval comparison stayed inconclusive at the maximum precision."""


DEFAULT_PRECISION = 192
MIN_PRECISION = 64
MAX_PRECISION = 768
