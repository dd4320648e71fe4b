"""Test oracle: the printed Q-bound rows evaluated term by term in `Interval`.

This is the outward-rounded interval evaluation that `inequalities.q_bounds`
used before it moved to fixed-point integers.  Each operation is one
directed-rounding `Interval` kernel at the working precision, so its
enclosures are proven by a different route; the tests require both
evaluators to contain a high-precision reference and to give the same
verdict on every row swept.
"""

from fractions import Fraction

from regover.inequalities import _QB_TABLE
from regover.numerics import mu, pi


def q_bounds_oracle(k, n, precision):
    """Interval enclosures (lower, upper) of the printed Q-bound rows."""
    A = Fraction(k - 1, 2 * k) ** 2
    B = 3 * A
    c5, c6, d5, d6, e = _QB_TABLE[k]
    m = mu(k, n, precision).value
    p4 = pi(precision).pow_int(4)
    inv3 = 1 / m.pow_int(3)
    inv4 = 1 / m.pow_int(4)
    inv5 = 1 / m.pow_int(5)
    inv6 = 1 / m.pow_int(6)
    shared = 1 - p4 * A * inv3 + p4 * B * inv4
    lower = shared - c5 * inv5 - c6 * inv6
    upper = shared - d5 * inv5 + (d6 + e * pi(precision).pow_int(8)) * inv6
    return lower, upper
