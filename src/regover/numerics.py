"""Rigorous numerics: outward-rounded interval arithmetic, the one
certification loop, Bessel I1 enclosures, Dedekind sums, and the Bessel
argument mu_k(n) = pi sqrt((k-1) n / k).

Every transcendental quantity in the asymptotic machinery starts as an
:class:`Interval`, an immutable pair of endpoints in mpmath's raw mpf format
(sign, odd mantissa, exponent, bit count).  Each operation is an integer
kernel in this module that rounds the exact result once, down for lo and up
for hi, at the result precision, so every enclosure is sound by construction
and, but for pow_int past _POW_EXACT_BITS, correctly rounded.  Only cos and
sin import mpmath, for its kernels, and nothing in the package calls them.
Precision is a per-value property, never ambient state, and binary
operations run at the larger of the two operand precisions.

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

Dedekind sums, the phases of the exponential sums A-hat in the tests'
expansion oracle, are exact rationals, computed by reciprocity in O(log j)
steps, and never touch intervals.  The precision constants and the two
exceptions live in :mod:`regover.precision` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional, Union

from .precision import (  # noqa: F401  (re-exported precision contract)
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    NumericsError,
    PrecisionExhausted,
)

# guard against exp() of absurd arguments producing numbers with millions
# of exponent bits; nothing in scope needs exp beyond e^(10^6).  Reading an
# endpoint of e^(-10^7) takes about 20 ms, and of e^(-2^2000) never ends.
_MAX_EXP_ARG = 10**6
_MIN_EXP_ARG = -(10**7)


Exactable = Union[int, Fraction]


# -- directed-rounding kernels ----------------------------------------

_ZERO = (0, 0, 0, 0)
_ONE = (0, 1, 0, 1)
_POW_EXACT_BITS = 16384  # pow_int takes the exact power up to this many bits


def _round(n: int, e: int, prec: int, up: bool, sticky: bool = False) -> tuple:
    """The mpf at ``prec`` bits next at or below (``up``: above) v, where n 2^e
    <= v < (n + 1) 2^e and v = n 2^e unless ``sticky``.  A sticky n needs prec
    + 2 bits or more, so that no result grid point lies between n and n + 1."""
    sign = 0
    if n < 0:  # round |v|, in [-n - 1, -n) or equal to -n, the other way
        sign, up = 1, not up
        n = -n - 1 if sticky else -n
    shift = n.bit_length() - prec
    if shift >= 0:
        q = n >> shift
        if up and (sticky or n & ((1 << shift) - 1)):
            q += 1
        n, e = q, e + shift
    if n & 1:
        return sign, n, e, n.bit_length()
    if not n:
        return _ZERO
    zeros = (n & -n).bit_length() - 1
    return sign, n >> zeros, e + zeros, n.bit_length() - zeros


def _ratio(n: int, d: int, e: int, prec: int, up: bool) -> tuple:
    """n / d 2^e at ``prec`` bits, for d > 0."""
    g = max(0, prec + 2 + d.bit_length() - abs(n).bit_length())
    q, r = divmod(n << g, d)
    return _round(q, e - g, prec, up, r != 0)


def _fraction(x) -> Fraction:
    man, exp = -x[1] if x[0] else x[1], x[2]
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _flip(x) -> tuple:
    return (x[0] ^ 1, x[1], x[2], x[3]) if x[1] else x


def _sum(x, y, prec: int, up: bool) -> tuple:
    if x[2] + x[3] < y[2] + y[3] and y[1] or not x[1]:
        x, y = y, x  # x is the operand with the higher leading bit
    xm, xe, xb = -x[1] if x[0] else x[1], x[2], x[3]
    ym, ye, yb = -y[1] if y[0] else y[1], y[2], y[3]
    if not ym:
        return _round(xm, xe, prec, up)
    g = max(0, prec + 3 - xb)
    if ye + yb <= xe - g:
        # |y| is below one unit of x at prec + 3 bits: it only sets the sticky bit
        return _round((xm << g) - (ym < 0), xe - g, prec, up, True)
    e = min(xe, ye)
    return _round((xm << (xe - e)) + (ym << (ye - e)), e, prec, up)


def _add(s, t, prec: int):
    return _sum(s[0], t[0], prec, False), _sum(s[1], t[1], prec, True)


def _sub(s, t, prec: int):
    return _add(s, (_flip(t[1]), _flip(t[0])), prec)


def _times(x, y, prec: int, up: bool) -> tuple:
    n = x[1] * y[1]
    return _round(-n if x[0] ^ y[0] else n, x[2] + y[2], prec, up)


def _mul(s, t, prec: int):
    (sa, sb), (ta, tb) = s, t
    if not (sa[1] or sb[1]) or not (ta[1] or tb[1]):
        return _ZERO, _ZERO
    t_pos = tb[1] and not tb[0]  # tb > 0
    if not sa[0]:  # s >= 0
        x, y = sb if ta[0] else sa, sb if t_pos else sa
        return _times(x, ta, prec, False), _times(y, tb, prec, True)
    if sb[0] or not sb[1]:  # s <= 0
        x, y = sa if t_pos else sb, sa if ta[0] else sb
        return _times(x, tb, prec, False), _times(y, ta, prec, True)
    if not ta[0] or not t_pos:  # s straddles 0, t does not
        return _mul(t, s, prec)
    # both straddle 0; rounding is monotone, so round, then compare
    lo = min(_times(sa, tb, prec, False), _times(sb, ta, prec, False), key=_fraction)
    hi = max(_times(sa, ta, prec, True), _times(sb, tb, prec, True), key=_fraction)
    return lo, hi


def _quo(x, y, prec: int, up: bool) -> tuple:
    return _ratio(-x[1] if x[0] ^ y[0] else x[1], y[1], x[2] - y[2], prec, up)


def _div(s, t, prec: int):
    """s / t for t of one sign (the caller rejects a t containing 0)."""
    (sa, sb), (ta, tb) = s, t
    if ta[0]:  # t < 0: s / t = (-s) / (-t)
        sa, sb, ta, tb = _flip(sb), _flip(sa), _flip(tb), _flip(ta)
    lo_by, hi_by = ta if sa[0] else tb, ta if sb[1] and not sb[0] else tb
    return _quo(sa, lo_by, prec, False), _quo(sb, hi_by, prec, True)


def _power(x, n: int, prec: int, up: bool) -> tuple:
    man = x[1] ** n
    return _round(-man if x[0] and n & 1 else man, x[2] * n, prec, up)


def _pow(s, n: int, prec: int):
    if n < 2:
        return (_ONE, _ONE) if n == 0 else s
    sa, sb = s
    if n > 2 and max(sa[3], sb[3]) * n > _POW_EXACT_BITS:
        # square and multiply at guard bits: sound, not always correctly rounded
        wp = prec + 4 * n.bit_length() + 4
        out = _pow(_pow(s, n >> 1, wp), 2, wp)
        return _add(_mul(out, s, wp) if n & 1 else out, (_ZERO, _ZERO), prec)
    if n & 1 or not sa[0]:  # odd n, or s >= 0
        return _power(sa, n, prec, False), _power(sb, n, prec, True)
    if sb[0] or not sb[1]:  # s <= 0
        return _power(sb, n, prec, False), _power(sa, n, prec, True)
    return _ZERO, _power(max(_flip(sa), sb, key=_fraction), n, prec, True)


def _root(x, prec: int, up: bool) -> tuple:
    _, man, exp, _ = x
    if exp & 1:
        man, exp = man << 1, exp - 1
    g = max(0, prec + 2 - (man.bit_length() >> 1))
    man <<= 2 * g
    r = math.isqrt(man)
    return _round(r, (exp >> 1) - g, prec, up, r * r != man)


def _exp1(x, prec: int, up: bool) -> tuple:
    """exp(x) at ``prec`` bits, from bounds L 2^e <= exp(x) <= U 2^e.  With
    y = |x| / 2^s < 2^-r <= 1/2 and Y = floor(y 2^f), the Taylor terms T_j =
    T_(j-1) y / j of exp(y) 2^f are chained as t_j = floor(t_(j-1) Y / (2^f
    j)) from t_0 = T_0 = 2^f until t_J = 0.  Each t_j <= T_j, so their sum L
    is a lower bound.  D_j = T_j - t_j <= (T_(j-1) + D_(j-1) Y) / (2^f j) + 1
    <= 2 + D_(j-1) / 2, so D_j < 4; the tail after J, led by T_J < 4 with
    ratio below 1/4, is below 2; so U = L + 4 J + 6.  Squaring s times keeps
    f bits in floating form (L floored, U ceiled), so the integers do not grow
    with |x|; exp(-|x|) = 1 / exp(|x|) divides outward.  exp(x) is irrational
    for x != 0, so the guard doubles until L and U round alike.
    """
    sign, man, exp, bc = x
    if not man:
        return _ONE
    guard = 16
    while True:
        w = prec + guard
        s = max(0, exp + bc + (math.isqrt(w) >> 1))
        f = w + s + 8
        shift = exp + f - s
        y = man << shift if shift >= 0 else man >> -shift
        t = lo = 1 << f
        j = 0
        while t:
            j += 1
            t = (t * y >> f) // j
            lo += t
        hi, e = lo + 4 * j + 6, -f
        for _ in range(s):
            lo, hi = lo * lo, hi * hi
            cut = hi.bit_length() - f
            lo, hi, e = lo >> cut, -(-hi >> cut), 2 * e + cut
        if sign:
            k = f + hi.bit_length()
            lo, hi, e = (1 << k) // hi, -(-(1 << k) // lo), -k - e
        a = _round(lo, e, prec, up)
        if a == _round(hi, e, prec, up):
            return a
        guard *= 2


@lru_cache(maxsize=64)
def _pi(prec: int):
    """pi at ``prec`` bits by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239).

    In atan(1/x) 2^w, p_j = floor(2^w / x^(2j+1)) is exact (a floor of floors),
    so term j, in [p_j, p_j + 1) / (2j+1), is rounded toward the bounded side;
    the alternating tail after the first p_j = 0 is below one unit."""

    def atan_inv(x: int, w: int) -> tuple[int, int]:
        x2, p, d = x * x, (1 << w) // x, 1
        lo = hi = 0
        while p:  # d = 2j + 1; odd j subtract
            small, big = p // d, (p + d) // d
            lo, hi = (lo - big, hi - small) if d & 2 else (lo + small, hi + big)
            p, d = p // x2, d + 2
        return lo - 1, hi + 1

    guard = 16
    while True:
        w = prec + guard
        (a5, b5), (a239, b239) = atan_inv(5, w), atan_inv(239, w)
        # 2 < pi < 4, so the result grid at prec bits is 2^(2 - prec)
        shift = w + 2 - prec
        floor = (16 * a5 - 4 * b239) >> shift
        if floor == (16 * b5 - 4 * a239) >> shift:
            ulp = 2 - prec
            return _round(floor, ulp, prec, False), _round(floor + 1, ulp, prec, True)
        guard *= 2


def _outward(lo: Fraction, hi: Fraction, precision: int):
    """Raw endpoint pair (floor of lo, ceiling of hi) at ``precision`` bits."""
    if precision < MIN_PRECISION:
        raise NumericsError(f"precision must be >= {MIN_PRECISION}, got {precision}")
    lo = _ratio(lo.numerator, lo.denominator, 0, precision, False)
    return lo, _ratio(hi.numerator, hi.denominator, 0, precision, True)


def _scaled(x, bits: int, ceil: bool) -> int:
    """floor (or, with ``ceil``, ceiling) of the raw finite mpf ``x`` times 2^bits."""
    man, exp = -x[1] if x[0] else x[1], x[2]
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return -(-man >> -shift) if ceil else man >> -shift


@dataclass(frozen=True)
class Interval:
    """Directed-rounded enclosure [lo, hi] at a fixed working precision: ``_val``
    is the raw pair of mpf endpoints, and every op is one directed-rounding
    kernel."""

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
        return _fraction(self._val[0])

    @property
    def hi(self) -> Fraction:
        return _fraction(self._val[1])

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
        return self._binary(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, _sub)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b, prec: _sub(b, a, prec))

    def __mul__(self, other):
        return self._binary(other, _mul)

    __rmul__ = __mul__

    def _contains_zero(self) -> bool:
        # signs of the raw mpf endpoints (sign, man, exp, bc): lo <= 0 <= hi
        lo, hi = self._val
        return (lo[0] == 1 or lo == _ZERO) and hi[0] == 0

    def __truediv__(self, other):
        if other._contains_zero() if isinstance(other, Interval) else other == 0:
            raise NumericsError(f"division by interval containing 0: {other!r}")
        return self._binary(other, _div)

    def __rtruediv__(self, other):
        if self._contains_zero():
            raise NumericsError(f"division by interval containing 0: {self!r}")
        return self._binary(other, lambda a, b, prec: _div(b, a, prec))

    def __neg__(self):
        return self._unary(lambda s, prec: _sub((_ZERO, _ZERO), s, prec))

    def pow_int(self, exponent: int) -> "Interval":
        if not isinstance(exponent, int):
            raise NumericsError(f"pow_int needs an integer exponent, got {exponent!r}")
        if exponent < 0:
            return 1 / self.pow_int(-exponent)
        return self._unary(_pow, exponent)

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise NumericsError(f"sqrt of interval with negative lo: {self!r}")
        return self._unary(lambda s, p: (_root(s[0], p, False), _root(s[1], p, True)))

    def exp(self) -> "Interval":
        if self.hi > _MAX_EXP_ARG or self.lo < _MIN_EXP_ARG:
            raise NumericsError(f"exp argument out of guarded range: {self!r}")
        return self._unary(lambda s, p: (_exp1(s[0], p, False), _exp1(s[1], p, True)))

    # cos and sin, which nothing in the package calls, keep mpmath's kernels:
    # the import stays inside them, so no other op loads mpmath

    def cos(self) -> "Interval":
        from mpmath.libmp import libmpi
        return self._unary(libmpi.mpi_cos)

    def sin(self) -> "Interval":
        from mpmath.libmp import libmpi
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
    return Interval(precision, _pi(precision))


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
    2^-P, with the squared arguments read once at Q = precision + _I1_GUARD +
    8 bits: A = floor((lo/2)^2 2^Q) and B = ceil((hi/2)^2 2^Q).  The lower
    chain floors every step t A / (2^Q m (m+1)) and the upper chain ceils
    every step u B / (2^Q m (m+1)).  A 2^-Q <= (lo/2)^2, B 2^-Q >= (hi/2)^2,
    floor(floor(y) r) <= y r and ceil(ceil(y) r) >= y r for r > 0, so by
    induction every lower term is <= its true value and every upper term >=
    its true value.  All terms are positive, so the lower sum may drop its
    tail; the upper sum adds the geometric majorant t_m q / (1 - q) of the
    tail after term m, valid since the ratio of consecutive terms beyond m
    is at most q = B / (2^Q (m+1)(m+2)) < 1/2.  P is scaled by the first term
    hi/2, so the units stay relative to I1(hi) (which is >= hi/2) also for
    hi << 1.  A and B cost accuracy only: they move each term by about 2^-Q
    of the one before, so the sums stay within about 2^-Q relative.
    """
    an, ad = lo.numerator, lo.denominator
    bn, bd = hi.numerator, hi.denominator
    # 2^(e-1) < hi/2 < 2^(e+1)
    e = bn.bit_length() - bd.bit_length() - 1
    P = max(0, precision + _I1_GUARD - e)
    Q = precision + _I1_GUARD + 8
    A = (an * an << Q) // (4 * ad * ad)
    B = -(-(bn * bn << Q) // (4 * bd * bd))
    t = (an << P) // (2 * ad)
    u = -(-(bn << P) // (2 * bd))
    lower, upper = t, u
    stop = precision + _I1_STOP
    m = 0
    while True:
        q_den = (m + 1) * (m + 2) << Q
        if 2 * B < q_den and u << stop <= upper:
            tail = -(-u * B // (q_den - B))
            return lower, upper + tail, P
        m += 1
        if m > 10 * precision + 100000:
            raise NumericsError("bessel_i1 series failed to converge")
        d = m * (m + 1)
        t = (t * A >> Q) // d
        u = -((-u * B >> Q) // d)
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
    return Interval(
        precision,
        (_round(lower, -P, precision, False), _round(upper, -P, precision, True)),
    )


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
