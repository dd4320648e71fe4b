"""The working-precision contract: its constants and numeric exceptions.

They live apart from :mod:`regover.numerics` so that code which only
catches these errors, such as :mod:`regover.cli`, need not import the
interval layer.  :data:`DEFAULT_PRECISION` is a plain default value: every
library function takes its precision as an argument, and nothing reads it
from the environment.  :mod:`regover.numerics` re-exports every name.
"""

from __future__ import annotations


class NumericsError(ValueError):
    """Raised on domain violations in rigorous numeric operations."""


class PrecisionExhausted(ArithmeticError):
    """An interval comparison stayed inconclusive at the maximum precision."""


DEFAULT_PRECISION = 192
MIN_PRECISION = 64
MAX_PRECISION = 768
