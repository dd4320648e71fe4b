"""Rigorous numerics: outward-rounded interval arithmetic, the one
certification loop, Bessel I1 enclosures, the printed I1 bound polynomials,
Dedekind sums, and the Bessel argument mu_k(n) = pi sqrt((k-1) n / k).

Every transcendental quantity in the asymptotic machinery starts as an
:class:`Interval`, an immutable raw pair of mpf endpoints.  Each operation
calls one of mpmath's interval kernels (``libmpi.mpi_*``) with the result
precision as an argument, so there are no interval contexts: precision is a
per-value property, never ambient mutable state, and binary operations run
at the larger of the two operand precisions.  Exactly representable inputs
(integers, rationals) enter through directed rounding, so every enclosure
is sound by construction.

:func:`bessel_i1` is the one hot kernel that does not run through
:class:`Interval` term by term: it sums the positive ascending series in
fixed point (scaled Python integers), flooring every term of a lower sum
and ceiling every term of an upper sum, adds a proven geometric tail bound
to the upper sum, and rounds the two integer bounds outward into one
:class:`Interval`.  The rounding error is accounted for by the direction of
each rounding, not estimated.  :meth:`Interval.scaled` hands an enclosure
to such fixed-point code as the floor and ceiling of its endpoints at a
given scale; the Q-ratio bounds in :mod:`regover.inequalities` read mu and
pi that way.

:func:`certify` is the only place an exact value is compared with an
enclosure bracket: a verdict needs strictly separated enclosures, and an
undecided comparison doubles the precision up to :data:`MAX_PRECISION`.

Every function that builds an enclosure takes its precision as an argument
defaulting to :data:`DEFAULT_PRECISION`, so a result depends only on its
arguments, never on the process environment.

Dedekind sums are exact rationals, computed by reciprocity in O(log j)
steps, and never touch intervals.  The precision constants and the two
exceptions live in the mpmath-free :mod:`regover.precision` and are
re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from mpmath.libmp import from_rational, fzero, libmpi, to_rational

from .precision import (  # noqa: F401  (re-exported precision contract)
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    NumericsError,
    PrecisionExhausted,
)

# guard against exp() of absurd arguments producing numbers with millions
# of exponent bits; nothing in scope needs exp beyond e^(10^6)
_MAX_EXP_ARG = 10**6


Exactable = Union[int, Fraction]


def _outward(lo: Fraction, hi: Fraction, precision: int):
    """Raw endpoint pair (floor of lo, ceiling of hi) at ``precision`` bits."""
    if precision < MIN_PRECISION:
        raise NumericsError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    return (
        from_rational(lo.numerator, lo.denominator, precision, "f"),
        from_rational(hi.numerator, hi.denominator, precision, "c"),
    )


def _scaled(x, bits: int, ceil: bool) -> int:
    """floor (or, with ``ceil``, ceiling) of the raw finite mpf ``x`` times 2^bits."""
    sign, man, exp, _ = x
    if sign:
        man = -man
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return -(-man >> -shift) if ceil else man >> -shift


@dataclass(frozen=True)
class Interval:
    """Directed-rounded enclosure [lo, hi] at a fixed working precision: ``_val``
    is the raw pair of mpf endpoints, and every op is one ``libmpi`` kernel."""

    precision: int
    _val: tuple

    # -- construction -------------------------------------------------

    @classmethod
    def from_exact(
        cls, value: Exactable, precision: int = DEFAULT_PRECISION
    ) -> "Interval":
        return cls.from_endpoints(value, value, precision)

    @classmethod
    def from_endpoints(
        cls, lo: Exactable, hi: Exactable, precision: int = DEFAULT_PRECISION
    ) -> "Interval":
        flo, fhi = Fraction(lo), Fraction(hi)
        if flo > fhi:
            raise NumericsError(f"lo {flo} > hi {fhi}")
        return cls(precision, _outward(flo, fhi, precision))

    # -- exact endpoint access ----------------------------------------

    @property
    def lo(self) -> Fraction:
        p, q = to_rational(self._val[0])
        return Fraction(int(p), int(q))

    @property
    def hi(self) -> Fraction:
        p, q = to_rational(self._val[1])
        return Fraction(int(p), int(q))

    def scaled(self, bits: int) -> tuple[int, int]:
        """Integers (floor(lo 2^bits), ceil(hi 2^bits)): the enclosure in fixed
        point, read from the raw endpoints without building a Fraction."""
        lo, hi = self._val
        return _scaled(lo, bits, False), _scaled(hi, bits, True)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"Interval{self.to_string()}@{self.precision}"

    # -- arithmetic ---------------------------------------------------

    def _binary(self, other, op):
        # binary ops run at the larger precision; an exact operand is
        # enclosed at self.precision
        if isinstance(other, Interval):
            precision = max(self.precision, other.precision)
            b = other._val
        elif isinstance(other, (int, Fraction)):
            precision, exact = self.precision, Fraction(other)
            b = _outward(exact, exact, precision)
        else:
            raise NumericsError(f"cannot mix Interval with {type(other).__name__}")
        return Interval(precision, op(self._val, b, precision))

    def _unary(self, op, *args):
        return Interval(self.precision, op(self._val, *args, self.precision))

    def __add__(self, other):
        return self._binary(other, libmpi.mpi_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, libmpi.mpi_sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b, prec: libmpi.mpi_sub(b, a, prec))

    def __mul__(self, other):
        return self._binary(other, libmpi.mpi_mul)

    __rmul__ = __mul__

    def _contains_zero(self) -> bool:
        # signs of the raw mpf endpoints (sign, man, exp, bc): lo <= 0 <= hi
        lo, hi = self._val
        return (lo[0] == 1 or lo == fzero) and hi[0] == 0

    def __truediv__(self, other):
        if other._contains_zero() if isinstance(other, Interval) else other == 0:
            raise NumericsError(f"division by interval containing 0: {other!r}")
        return self._binary(other, libmpi.mpi_div)

    def __rtruediv__(self, other):
        if self._contains_zero():
            raise NumericsError(f"division by interval containing 0: {self!r}")
        return self._binary(other, lambda a, b, prec: libmpi.mpi_div(b, a, prec))

    def __neg__(self):
        return self._unary(libmpi.mpi_neg)

    def pow_int(self, exponent: int) -> "Interval":
        if not isinstance(exponent, int):
            raise NumericsError(f"pow_int needs an integer exponent, got {exponent!r}")
        if exponent < 0:
            return 1 / self.pow_int(-exponent)
        return self._unary(libmpi.mpi_pow_int, exponent)

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise NumericsError(f"sqrt of interval with negative lo: {self!r}")
        return self._unary(libmpi.mpi_sqrt)

    def exp(self) -> "Interval":
        if self.hi > _MAX_EXP_ARG:
            raise NumericsError(f"exp argument out of guarded range: {self!r}")
        return self._unary(libmpi.mpi_exp)

    def cos(self) -> "Interval":
        return self._unary(libmpi.mpi_cos)

    def sin(self) -> "Interval":
        return self._unary(libmpi.mpi_sin)

    # -- predicates ---------------------------------------------------

    def contains(self, value: Exactable) -> bool:
        frac = Fraction(value)
        return self.lo <= frac <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # -- serialization ------------------------------------------------

    def to_string(self, digits: int = 20) -> str:
        """Decimal "[lo,hi]" with outward rounding of the printed digits."""
        import decimal

        with decimal.localcontext() as dctx:
            dctx.prec = digits
            dctx.rounding = decimal.ROUND_FLOOR
            lo = decimal.Decimal(self.lo.numerator) / decimal.Decimal(
                self.lo.denominator
            )
            dctx.rounding = decimal.ROUND_CEILING
            hi = decimal.Decimal(self.hi.numerator) / decimal.Decimal(
                self.hi.denominator
            )
        return f"[{lo},{hi}]"


def pi(precision: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of pi."""
    if precision < MIN_PRECISION:
        raise NumericsError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    return Interval(precision, libmpi.mpi_pi(precision))


def certify(
    value: Exactable,
    bounds: Callable[[int], tuple],
    precision: Optional[int],
    what: str,
) -> bool:
    """Decide lower < value < upper for the bracket ``bounds(precision)``.

    ``bounds`` returns two enclosures (lower, upper) whose exact rational
    ``lo`` and ``hi`` are all that is read: :class:`Interval` or any pair of
    rationals, such as :class:`regover.inequalities.QEnclosure`.

    True only when the enclosures are strictly separated from ``value``
    (lower.hi < value < upper.lo); False only when ``value`` lies strictly
    outside (value < lower.lo or upper.hi < value).  Anything else, touching
    endpoints included, doubles the precision up to MAX_PRECISION and then
    raises PrecisionExhausted naming ``what``.  A ``precision`` of None
    starts at DEFAULT_PRECISION.
    """
    precision = DEFAULT_PRECISION if precision is None else precision
    while True:
        lower, upper = bounds(precision)
        if lower.hi < value < upper.lo:
            return True
        if value < lower.lo or upper.hi < value:
            return False
        if precision >= MAX_PRECISION:
            raise PrecisionExhausted(f"{what} inconclusive at {precision} bits")
        precision = min(2 * precision, MAX_PRECISION)


# -- mu_k(n) ----------------------------------------------------------


@dataclass(frozen=True)
class MuValue:
    """Enclosure of the Bessel argument mu_k(n)."""

    k: int
    n: int
    value: Interval


def mu(k: int, n: int, precision: int = DEFAULT_PRECISION) -> MuValue:
    """mu_k(n) = pi * sqrt((k-1) n / k), evaluated as pi * sqrt((k-1) k n) / k.

    This is pi * sqrt(2 n Delta3(1) / 3) with Delta2 = 0: for the k-regular
    overpartition quotient Delta3(1) = 3 (k-1) / (2k).
    """
    if not 2 <= k <= 9:
        raise NumericsError(f"mu is defined for k in 2..9, got {k}")
    if n < 0:
        raise NumericsError(f"n must be >= 0, got {n}")
    root = Interval.from_exact((k - 1) * k * n, precision).sqrt()
    return MuValue(k, n, pi(precision) * root / k)


# -- Bessel I1 --------------------------------------------------------

# Fixed-point guard bits beyond the working precision: with 2^-P at most
# 2^-(precision + _I1_GUARD - 1) of the first term s/2, the rounding of every
# step, carried through the recurrence, stays near 2^-(precision + _I1_GUARD)
# relative to the sum, far below one ulp of the result.
_I1_GUARD = 32
# The upper sum stops once its latest term is below 2^-(precision + _I1_STOP)
# of the partial sum (and the ratio bound is < 1/2); the lower sum drops the
# same tail, so it loses less than 2^-(precision + _I1_STOP) relative.
_I1_STOP = 16


def _i1_sums(lo: Fraction, hi: Fraction, precision: int) -> tuple[int, int, int]:
    """Integers (L, U, P) with L / 2^P <= I1(lo) and I1(hi) <= U / 2^P.

    The terms t_m(x) = (x/2)^(2m+1) / (m! (m+1)!) of the ascending series are
    built by the recurrence t_m = t_(m-1) (x/2)^2 / (m (m+1)) in units of
    2^-P: the lower chain floors every step at x = lo, the upper chain ceils
    every step at x = hi.  floor(floor(y) r) <= y r and ceil(ceil(y) r) >= y r
    for r > 0, so by induction every lower term is <= its true value and
    every upper term >= its true value.  All terms are positive, so the lower
    sum may drop its tail; the upper sum adds the geometric majorant
    t_m q / (1 - q) of the tail after term m, valid since the ratio of
    consecutive terms beyond m is at most q = (hi/2)^2 / ((m+1)(m+2)) < 1/2.
    P is scaled by the first term hi/2, so the units stay relative to I1(hi)
    (which is >= hi/2) also for hi << 1.
    """
    an, ad = lo.numerator, lo.denominator
    bn, bd = hi.numerator, hi.denominator
    # 2^(e-1) < hi/2 < 2^(e+1)
    e = bn.bit_length() - bd.bit_length() - 1
    P = max(0, precision + _I1_GUARD - e)
    a2n, a2d = an * an, 4 * ad * ad  # (lo/2)^2
    b2n, b2d = bn * bn, 4 * bd * bd  # (hi/2)^2
    t = (an << P) // (2 * ad)
    u = -(-(bn << P) // (2 * bd))
    lower, upper = t, u
    stop = precision + _I1_STOP
    m = 0
    while True:
        q_den = b2d * (m + 1) * (m + 2)
        if 2 * b2n < q_den and u << stop <= upper:
            tail = -(-u * b2n // (q_den - b2n))
            return lower, upper + tail, P
        m += 1
        if m > 10 * precision + 100000:
            raise NumericsError("bessel_i1 series failed to converge")
        d = m * (m + 1)
        t = t * a2n // (a2d * d)
        u = -(-u * b2n // (b2d * d))
        lower += t
        upper += u


def bessel_i1(s: Interval) -> Interval:
    """Enclosure of the modified Bessel function I1.

    I1 is increasing on s >= 0, so I1(s.lo) <= I1(s) <= I1(s.hi).  Both
    endpoints are read once and the ascending series is summed in scaled
    integers by :func:`_i1_sums`: a floor-rounded lower sum at s.lo and a
    ceil-rounded upper sum at s.hi plus a geometric tail majorant.  The
    integer bounds are rounded outward to ``s.precision`` bits.
    """
    lo, hi = s.lo, s.hi
    if lo < 0:
        raise NumericsError(f"bessel_i1 needs s >= 0, got {s!r}")
    precision = s.precision
    if hi == 0:
        return Interval.from_exact(0, precision)
    lower, upper, P = _i1_sums(lo, hi, precision)
    scale = 1 << P
    return Interval.from_endpoints(
        Fraction(lower, scale), Fraction(upper, scale), precision
    )


# E_I(s) = 1 - 3/(8s) - 15/(128 s^2) - 105/(1024 s^3)
#            - 4725/(32768 s^4) - 72765/(262144 s^5)
_EI_COEFFS = (
    Fraction(3, 8),
    Fraction(15, 128),
    Fraction(105, 1024),
    Fraction(4725, 32768),
    Fraction(72765, 262144),
)


def e_i(s: Interval) -> Interval:
    """The printed six-term asymptotic correction polynomial in 1/s."""
    if s.lo <= 0:
        raise NumericsError(f"e_i needs s > 0, got {s!r}")
    inv = 1 / s
    total = Interval.from_exact(1, s.precision)
    power = Interval.from_exact(1, s.precision)
    for c in _EI_COEFFS:
        power = power * inv
        total = total - power * c
    return total


def bessel_i1_bracket(s: Interval) -> tuple[Interval, Interval]:
    """Two-sided bound e^s/sqrt(2 pi s) * (E_I(s) -/+ 31/s^6), valid s >= 26."""
    if s.lo < 26:
        raise NumericsError(f"two-sided I1 bound needs s >= 26, got {s!r}")
    p = pi(s.precision)
    front = s.exp() / (2 * p * s).sqrt()
    wiggle = 31 / s.pow_int(6)
    core = e_i(s)
    return front * (core - wiggle), front * (core + wiggle)


# -- Dedekind sums ----------------------------------------------------


def dedekind_sum(h: int, j: int) -> Fraction:
    """Exact s(h, j) in O(log j) steps by Dedekind reciprocity.

    s(h, j) depends only on h mod j, and for coprime 0 < h < j
    s(h, j) = -s(j, h) - 1/4 + (h^2 + j^2 + 1) / (12 h j), so the Euclidean
    remainder sequence of (j, h) reduces s(h, j) to s(0, 1) = 0.
    """
    if j < 1:
        raise NumericsError(f"j must be >= 1, got {j}")
    if math.gcd(h, j) != 1:
        raise NumericsError(f"gcd({h}, {j}) != 1")
    total = Fraction(0)
    sign = 1
    h %= j
    while h:
        total += sign * (Fraction(h * h + j * j + 1, 12 * h * j) - Fraction(1, 4))
        sign = -sign
        h, j = j % h, h
    return total
