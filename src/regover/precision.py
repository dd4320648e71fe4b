"""The working-precision contract, without mpmath.

The precision constants, :func:`default_precision` (which reads and
validates ``REGOVER_PRECISION``) and the two numeric exceptions live here so
that code which only validates a precision, or only catches these errors,
does not import mpmath.  :mod:`regover.numerics` re-exports every name.
"""

from __future__ import annotations

import os


class NumericsError(ValueError):
    """Raised on domain violations in rigorous numeric operations."""


class PrecisionExhausted(ArithmeticError):
    """An interval comparison stayed inconclusive at the maximum precision."""


DEFAULT_PRECISION = 192
MIN_PRECISION = 64
MAX_PRECISION = 768


def default_precision() -> int:
    """Working precision in bits; REGOVER_PRECISION overrides the default."""
    raw = os.environ.get("REGOVER_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    try:
        bits = int(raw)
    except ValueError as exc:
        raise NumericsError(f"REGOVER_PRECISION must be an integer, got {raw!r}") from exc
    if bits < MIN_PRECISION:
        raise NumericsError(f"REGOVER_PRECISION must be >= {MIN_PRECISION}, got {bits}")
    return bits
