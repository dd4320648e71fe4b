"""Interval soundness and bit-identity with mpmath's interval context, the
certification rule, Bessel enclosures against an Interval-wrapped series
oracle, mu_k(n) against its printed table, and Dedekind sums against their
defining sum."""

import math
import operator
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

from regover.chern import main_term
from regover.numerics import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    Interval,
    NumericsError,
    PrecisionExhausted,
    bessel_i1,
    _fraction,
    _i1_sums,
    certify,
    dedekind_sum,
    mu,
    pi,
)

from expansion_oracle import bessel_i1_bracket, e_i, invariants
from qseries_oracle import build_spec


def iv(x, prec=192):
    return Interval.from_exact(Fraction(x), prec)


def brackets(x: Interval, value) -> bool:
    """Whether the exact ``value`` lies in [x.lo, x.hi]."""
    return x.lo <= value <= x.hi


def within(inner: Interval, outer: Interval) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def bessel_i1_oracle(s: Interval) -> Interval:
    """I1 by the ascending series with every term in Interval arithmetic.

    Truncated when the next term drops below 2^(-precision-8) of the partial
    sum, plus a geometric tail majorant with proven ratio < 1/2.  Slow, but
    independent of the fixed-point kernel in ``bessel_i1``.
    """
    precision = s.precision
    if s.hi == 0:
        return Interval.from_exact(0, precision)
    half = s / 2
    half_sq = half * half
    term = half  # m = 0 term
    total = term
    cutoff = Fraction(1, 2 ** (precision + 8))
    m = 0
    while True:
        m += 1
        term = term * half_sq / (m * (m + 1))
        ratio_hi = half_sq.hi / (Fraction((m + 1) * (m + 2)))
        scale = max(total.lo, Fraction(1))
        if term.hi <= cutoff * scale and ratio_hi < Fraction(1, 2):
            # unused tail: term * (1 + q + q^2 + ...) with q = ratio_hi < 1/2
            tail = Interval.from_endpoints(0, term.hi / (1 - ratio_hi), precision)
            return total + tail
        total = total + term


class TestIntervalBasics:
    def test_pi_encloses_reference(self):
        p = pi(128)
        assert brackets(p, Fraction(314159265358979323846, 10**20)) or (
            p.lo < Fraction(314159265358979323847, 10**20)
        )
        assert float(p.lo) == pytest.approx(math.pi)
        assert p.lo < p.hi

    def test_sqrt_exact_square(self):
        assert iv(4).sqrt().lo == iv(4).sqrt().hi == 2
        # a lower end of exactly 0, also as the negation or product of zeros
        for x in (Interval.from_endpoints(0, 4), -iv(0), iv(-1) * 0):
            assert x.sqrt().lo == 0

    def test_exp_one(self):
        e = iv(1).exp()
        # e truncated to 20 places; the enclosure must sit within one ulp
        ref = Fraction(271828182845904523536, 10**20)
        assert ref < e.hi < ref + Fraction(1, 10**19)
        assert ref < e.lo < ref + Fraction(1, 10**19)

    def test_exact_rational_roundtrip(self):
        x = Interval.from_exact(Fraction(1, 3), 128)
        assert x.lo <= Fraction(1, 3) <= x.hi
        assert x.lo < x.hi  # 1/3 is not dyadic

    def test_arithmetic_contains_exact(self):
        a, b = iv(Fraction(1, 3)), iv(Fraction(1, 7))
        assert brackets(a + b, Fraction(10, 21))
        assert brackets(a - b, Fraction(4, 21))
        assert brackets(a * b, Fraction(1, 21))
        assert brackets(a / b, Fraction(7, 3))

    def test_pow_int(self):
        assert brackets(iv(Fraction(1, 3)).pow_int(5), Fraction(1, 243))
        assert brackets(iv(2).pow_int(-2), Fraction(1, 4))

    def test_division_by_zero_interval(self):
        with pytest.raises(NumericsError):
            iv(1) / Interval.from_endpoints(-1, 1)
        with pytest.raises(NumericsError):
            1 / Interval.from_endpoints(0, 2)

    @pytest.mark.parametrize("lo,hi", [(0, 1), (-1, 0), (-1, 1), (0, 0)])
    def test_division_by_interval_containing_zero(self, lo, hi):
        divisor = Interval.from_endpoints(lo, hi, 128)
        with pytest.raises(NumericsError, match="containing 0"):
            iv(1, 128) / divisor
        with pytest.raises(NumericsError, match="containing 0"):
            Fraction(1, 3) / divisor

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_exact_zero(self, zero):
        with pytest.raises(NumericsError, match="containing 0"):
            iv(1) / zero

    def test_division_by_tiny_divisors(self):
        tiny = Fraction(1, 2**1000)
        assert brackets(iv(1) / Interval.from_endpoints(tiny, 1), 2**1000)
        assert brackets(iv(1) / Interval.from_endpoints(-1, -tiny), -(2**1000))
        assert brackets(iv(1) / tiny, 2**1000)
        assert brackets(iv(1) / -tiny, -(2**1000))

    def test_sqrt_negative_rejected(self):
        with pytest.raises(NumericsError):
            iv(-1).sqrt()
        with pytest.raises(NumericsError, match="negative lo"):
            Interval.from_endpoints(Fraction(-1, 2**300), 1).sqrt()

    def test_sqrt_refuses_a_huge_negative_lo_at_once(self):
        # -2^(2^20): the message names the raw lower end and the precision,
        # not the endpoints' decimal digits
        x = -Interval.from_exact(2).pow_int(2**20)
        start = time.perf_counter()
        with pytest.raises(
            NumericsError, match=r"negative lo -1\*2\^1048576 at precision 192$"
        ):
            x.sqrt()
        assert time.perf_counter() - start < 0.1

    def test_to_string_outward(self):
        s = iv(Fraction(1, 3)).to_string(5)
        assert s.startswith("[0.33333,") and s.endswith("]")

    def test_precision_defaults_to_the_constant(self):
        # precision is an argument with a plain default, never read from
        # the environment
        assert DEFAULT_PRECISION == 192
        assert Interval.from_exact(1).precision == DEFAULT_PRECISION
        assert pi().precision == DEFAULT_PRECISION
        assert mu(3, 600).value.precision == DEFAULT_PRECISION
        assert main_term(3, 600).precision == DEFAULT_PRECISION

    def test_precision_below_minimum_rejected(self):
        with pytest.raises(NumericsError, match=">= 64"):
            Interval.from_exact(1, 63)
        with pytest.raises(NumericsError, match=">= 64"):
            Interval.from_endpoints(0, 1, 63)
        with pytest.raises(NumericsError, match=">= 64"):
            pi(63)
        assert Interval.from_exact(1, 64).precision == 64

    def test_repr_beyond_float_range(self):
        # 3 * 2^1330 has no float; repr and error messages must still work
        big = iv(3) / Fraction(1, 2**1330)
        assert repr(big).startswith("Interval[") and repr(big).endswith("]@192")
        assert repr(iv(1)) == "Interval[1,1]@192"
        with pytest.raises(NumericsError, match="containing 0: Interval"):
            iv(1) / Interval.from_endpoints(-big.hi, big.hi)


def _context(precision):
    ctx = MPIntervalContext()
    ctx.prec = precision
    return ctx


def _ref_operand(ctx, x):
    # an Interval's endpoints are copied unrounded; an exact operand is
    # rounded outward at the context precision
    if isinstance(x, Interval):
        return ctx.make_mpf(x._val)
    x = Fraction(x)
    return ctx._mpq((x.numerator, x.denominator))


_exacts = st.one_of(
    st.integers(-(10**9), 10**9),
    st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**12),
)


@st.composite
def _intervals(draw):
    prec = draw(st.integers(64, 384))
    a, b = sorted(
        draw(st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=10**12))
        for _ in range(2)
    )
    x = Interval.from_endpoints(a, b, prec)
    # a product with pi gives full-width mantissas
    return x * pi(prec) if draw(st.booleans()) else x


def _ulp(x, precision):
    # one unit in the last place of the raw mpf x at ``precision`` bits
    return Fraction(2) ** (x[2] + x[3] - precision)


def _assert_exp_correctly_rounded(x, out, ref):
    """exp's endpoints enclose the value at 2 precision + 64 bits and lie
    within one ulp of mpmath's (``ref``).

    mpmath rounds exp from a (precision + 14)-bit approximation, so about one
    endpoint in 2^14 differs from the correctly rounded one by an ulp, and
    near a grid point its enclosure can miss the value (see
    ``test_exp_where_mpmath_misses_the_value``); the integer kernel rounds
    the value itself."""
    precision = x.precision
    with mpmath.workprec(2 * precision + 64):
        lo, hi = (mpmath.exp(mpmath.mp.make_mpf(v)) for v in x._val)
    assert mpmath.mp.make_mpf(out._val[0]) <= lo
    assert hi <= mpmath.mp.make_mpf(out._val[1])
    for mine, theirs in zip(out._val, ref):
        assert abs(_fraction(mine) - _fraction(theirs)) <= _ulp(theirs, precision)


def _assert_pow_int_matches(x, n, out, ref):
    """``out = x.pow_int(n)``, n >= 0, against mpmath's endpoints ``ref``.

    Where each endpoint's exact power has fewer than 1000 bits (bit count
    times n), mpmath rounds it once and the endpoints are identical.  Where
    one has more, mpmath squares and multiplies at precision + 4 bitlen(n)
    + 4 bits and can be an ulp loose (see
    ``test_pow_int_where_mpmath_is_an_ulp_loose``), so the endpoints must
    enclose the exact power, lie within one ulp of it on the outward side,
    and lie within one ulp of mpmath's."""
    if max(x._val[0][3], x._val[1][3]) * n < 1000:
        assert out._val == ref
        return
    precision = x.precision
    lo, hi = x.lo**n, x.hi**n
    exact = (0 if n % 2 == 0 and x.lo < 0 < x.hi else min(lo, hi), max(lo, hi))
    out_lo, out_hi = (_fraction(v) for v in out._val)
    ulp_lo, ulp_hi = (_ulp(v, precision) for v in out._val)
    assert out_lo <= exact[0] < out_lo + ulp_lo
    assert out_hi - ulp_hi < exact[1] <= out_hi
    for mine, theirs in zip(out._val, ref):
        assert abs(_fraction(mine) - _fraction(theirs)) <= _ulp(theirs, precision)


class TestMatchesIntervalContext:
    """Every op gives exactly the endpoints of a fresh MPIntervalContext, but
    exp, and pow_int where the exact power has 1000 bits or more, which are
    held to their value and to one ulp of mpmath's endpoints."""

    @settings(max_examples=400, deadline=None)
    @given(
        x=_intervals(),
        y=st.one_of(_intervals(), _exacts),
        op=st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
        swap=st.booleans(),
    )
    def test_binary(self, x, y, op, swap):
        precision = max(x.precision, y.precision if isinstance(y, Interval) else 0)
        ctx = _context(precision)
        a, b = _ref_operand(ctx, x), _ref_operand(ctx, y)
        if swap:
            x, y, a, b = y, x, b, a
        if op is operator.truediv and 0 in b:
            with pytest.raises(NumericsError, match="containing 0"):
                op(x, y)
            return
        out = op(x, y)
        assert out.precision == precision
        assert out._val == op(a, b)._mpi_

    @settings(max_examples=300, deadline=None)
    @given(
        x=_intervals(),
        name=st.sampled_from(["neg", "pow_int", "sqrt", "exp", "cos", "sin"]),
        n=st.integers(-8, 8),
    )
    def test_unary(self, x, name, n):
        ctx = _context(x.precision)
        a = _ref_operand(ctx, x)
        if name == "neg":
            out, ref = -x, -a
        elif name == "pow_int":
            if n < 0 and 0 in a:
                with pytest.raises(NumericsError, match="containing 0"):
                    x.pow_int(n)
                return
            power = x.pow_int(abs(n))
            assert power.precision == x.precision
            _assert_pow_int_matches(x, abs(n), power, (a ** abs(n))._mpi_)
            if n >= 0:
                return
            # x^n is 1 / x^|n|: the division of the kernel's power is mpmath's
            out, ref = x.pow_int(n), 1 / ctx.make_mpf(power._val)
        elif name == "sqrt":
            if x.lo < 0:
                with pytest.raises(NumericsError, match="negative lo"):
                    x.sqrt()
                return
            out, ref = x.sqrt(), ctx.sqrt(a)
        else:
            out, ref = getattr(x, name)(), getattr(ctx, name)(a)
        assert out.precision == x.precision
        if name == "exp":
            _assert_exp_correctly_rounded(x, out, ref._mpi_)
            return
        assert out._val == ref._mpi_

    @given(precision=st.integers(64, 384))
    def test_pi(self, precision):
        assert pi(precision)._val == (+_context(precision).pi)._mpi_

    @settings(max_examples=100, deadline=None)
    @given(value=_exacts, width=_exacts, precision=st.integers(64, 384))
    def test_construction(self, value, width, precision):
        ctx = _context(precision)
        exact = Interval.from_exact(value, precision)
        assert exact._val == _ref_operand(ctx, value)._mpi_
        lo, hi = sorted((Fraction(value), Fraction(value) + Fraction(width)))
        got = Interval.from_endpoints(lo, hi, precision)._val
        assert got == (_ref_operand(ctx, lo)._mpi_[0], _ref_operand(ctx, hi)._mpi_[1])


class TestSeededSweep:
    """A seeded sweep against a fresh MPIntervalContext over the cases random
    fractions seldom reach: zero and straddling operands, mixed-sign even
    powers, exponents 2000 bits apart, negative exp arguments, every pi."""

    @staticmethod
    def _operand(rng, precision):
        def point():
            kind = rng.randrange(5)
            if kind == 0:
                return Fraction(0)
            if kind == 1:  # a dyadic with a far exponent
                return rng.choice([-1, 1]) * Fraction(2) ** rng.randint(-2000, 2000)
            if kind == 2:
                return 1 + rng.choice([-1, 1]) * Fraction(1, 2**2000)
            return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20))

        a, b = sorted((point(), point()))
        shape = rng.randrange(4)
        if shape == 0:  # a point
            b = a
        elif shape == 1:  # straddles 0
            a, b = -abs(a) - 1, abs(b) + 1
        x = Interval.from_endpoints(a, b, precision)
        return x * pi(precision) if rng.random() < 0.3 else x

    def test_ops_match(self):
        rng = random.Random(20231)
        binary = [operator.add, operator.sub, operator.mul, operator.truediv]
        for _ in range(1500):
            precision = rng.randint(64, 768)
            ctx = _context(precision)
            x, y = self._operand(rng, precision), self._operand(rng, precision)
            a, b = _ref_operand(ctx, x), _ref_operand(ctx, y)
            op = rng.choice(binary + ["neg", "pow_int", "sqrt", "exp"])
            if op in binary:
                if op is operator.truediv and 0 in b:
                    with pytest.raises(NumericsError, match="containing 0"):
                        op(x, y)
                    continue
                assert op(x, y)._val == op(a, b)._mpi_, (op, x._val, y._val)
            elif op == "neg":
                assert (-x)._val == (-a)._mpi_
            elif op == "pow_int":
                n = rng.randint(2, 9)
                _assert_pow_int_matches(x, n, x.pow_int(n), (a**n)._mpi_)
            elif op == "sqrt" and x.lo >= 0:
                assert x.sqrt()._val == ctx.sqrt(a)._mpi_, x._val
            elif op == "exp" and -(10**4) < x.lo and x.hi < 10**4:
                _assert_exp_correctly_rounded(x, x.exp(), ctx.exp(a)._mpi_)

    @pytest.mark.parametrize(
        "s, t",
        [
            ((-3, 5), (-7, 2)),
            ((Fraction(-1, 3), 2), (-1, Fraction(1, 7))),
            ((-1, 1), (-1, 1)),
        ],
    )
    def test_both_straddle_zero(self, s, t):
        for precision in (64, 192, 768):
            ctx = _context(precision)
            x = Interval.from_endpoints(*s, precision) * pi(precision)
            y = Interval.from_endpoints(*t, precision) * pi(precision)
            a, b = _ref_operand(ctx, x), _ref_operand(ctx, y)
            assert (x * y)._val == (a * b)._mpi_
            assert (y * x)._val == (b * a)._mpi_
            # a divisor that straddles 0 is refused; a one-signed one is not
            with pytest.raises(NumericsError, match="containing 0"):
                x / y
            z = y.pow_int(2) + 1
            assert (x / z)._val == (a / _ref_operand(ctx, z))._mpi_

    @pytest.mark.parametrize("n", [2, 4, 6, 8, -2, -4])
    @pytest.mark.parametrize("lo, hi", [(-3, 2), (-2, 3), (-1, 1), (-5, 0), (0, 5)])
    def test_even_powers_of_mixed_sign(self, lo, hi, n):
        for precision in (64, 192, 768):
            ctx = _context(precision)
            x = Interval.from_endpoints(lo, hi, precision) * pi(precision)
            a = _ref_operand(ctx, x)
            if n < 0 and 0 in a:
                with pytest.raises(NumericsError, match="containing 0"):
                    x.pow_int(n)
                continue
            ref = 1 / a ** (-n) if n < 0 else a**n
            assert x.pow_int(n)._val == ref._mpi_

    def test_zero_operands_and_far_exponents(self):
        tiny = Fraction(1, 2**2000)
        for precision in (64, 192, 768):
            ctx = _context(precision)
            zero = Interval.from_exact(0, precision)
            one = Interval.from_exact(1, precision)
            third = Interval.from_exact(Fraction(1, 3), precision)
            for x, y in [(zero, third), (third, zero), (zero, zero), (one, tiny),
                         (-third, tiny), (Interval.from_exact(tiny, precision), one)]:
                a, b = _ref_operand(ctx, x), _ref_operand(ctx, y)
                for op in (operator.add, operator.sub, operator.mul):
                    assert op(x, y)._val == op(a, b)._mpi_
                    assert op(y, x)._val == op(b, a)._mpi_
            # 1 + 2^-2000 rounds to 1 below and to 1 + 2^(1 - precision) above
            total = one + tiny
            assert total.lo == 1 and total.hi == 1 + Fraction(2, 2**precision)
            assert (zero / third)._val == _ref_operand(ctx, zero)._mpi_

    @pytest.mark.parametrize("value", [10**6, -(10**6), -(10**7)])
    def test_exp_of_large_arguments(self, value):
        for precision in (64, 192, 768):
            x = Interval.from_exact(value, precision)
            start = time.perf_counter()
            out = x.exp()
            assert time.perf_counter() - start < 1
            ctx = _context(precision)
            assert out._val == ctx.exp(_ref_operand(ctx, x))._mpi_

    @pytest.mark.parametrize(
        "value",
        [
            10**6 + 1,
            -(10**7) - 1,
            -(2**2000),
            10**6 + Fraction(1, 2**100),
            -(10**7) - Fraction(1, 2**100),
        ],
        ids=["above", "below", "far-below", "just-above", "just-below"],
    )
    def test_exp_out_of_the_guarded_range_is_refused(self, value):
        x = Interval.from_exact(value)
        with pytest.raises(NumericsError, match="out of guarded range"):
            x.exp()
        with pytest.raises(NumericsError, match="out of guarded range"):
            Interval.from_endpoints(min(value, 0), max(value, 0)).exp()

    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    def test_exp_refuses_a_huge_argument_at_once(self, sign):
        # +-2^(2^20): the range is decided from the endpoints' exponents, and
        # the message names the range, not the megabit endpoints
        x = sign * Interval.from_exact(2).pow_int(2**20)
        start = time.perf_counter()
        with pytest.raises(
            NumericsError, match=r"out of guarded range \[-10000000, 1000000\]$"
        ):
            x.exp()
        assert time.perf_counter() - start < 0.5

    def test_exp_of_negative_arguments(self):
        rng = random.Random(7)
        for _ in range(200):
            precision = rng.randint(64, 768)
            lo = -Fraction(rng.randint(1, 10**12), rng.randint(1, 10**9))
            x = Interval.from_endpoints(lo, lo / 3, precision)
            ctx = _context(precision)
            ref = ctx.exp(_ref_operand(ctx, x))._mpi_
            _assert_exp_correctly_rounded(x, x.exp(), ref)

    def test_exp_where_mpmath_misses_the_value(self):
        # exp(+-2^-300) = 1 +- 2^-300 + 2^-601 +- ...: at 384 bits mpmath's
        # upper endpoint is 1 +- 2^-300, below the value, since its
        # (384 + 14)-bit approximation drops the 2^-601.  The kernel rounds
        # the value itself: 1 +- 2^-300 below, one ulp more above.
        for sign, ulp in ((1, Fraction(1, 2**383)), (-1, Fraction(1, 2**384))):
            x = Interval.from_exact(sign * Fraction(1, 2**300), 384)
            out = x.exp()
            assert out.lo == 1 + x.lo and out.hi == out.lo + ulp
            with mpmath.workprec(1000):
                value = mpmath.exp(mpmath.mpf(sign) / 2**300)
            lo, hi = (mpmath.mp.make_mpf(v) for v in out._val)
            assert lo < value < hi

    def test_pow_int_where_mpmath_is_an_ulp_loose(self):
        # a 179-bit mantissa to the 7th has 1253 bits: mpmath's lower endpoint
        # of its square and multiply is one ulp below the correctly rounded one
        x = Interval.from_exact(
            Fraction(522399359016865659150435942511688273317859378733823675, 2**165),
            180,
        )
        ref = (_ref_operand(_context(180), x) ** 7)._mpi_
        out = x.pow_int(7)
        assert _fraction(out._val[0]) - _fraction(ref[0]) == _ulp(ref[0], 180)
        _assert_pow_int_matches(x, 7, out, ref)

    def test_pi_at_every_precision(self):
        for precision in range(64, 769):
            assert pi(precision)._val == (+_context(precision).pi)._mpi_, precision


class TestCertify:
    @staticmethod
    def bracket(lower, upper):
        return lambda prec: (
            Interval.from_endpoints(*lower, prec),
            Interval.from_endpoints(*upper, prec),
        )

    def test_verdicts(self):
        bounds = self.bracket((0, 1), (2, 3))
        assert certify(Fraction(3, 2), bounds, 192, "x") is True
        assert certify(-1, bounds, 192, "x") is False
        assert certify(4, bounds, 192, "x") is False

    def test_escalates_once_then_certifies(self):
        # the enclosures of 1 -/+ 2^-300 touch 1 at 192 bits and are exact at 384
        asked = []
        eps = Fraction(1, 2**300)

        def bounds(prec):
            asked.append(prec)
            return (
                Interval.from_exact(1 - eps, prec),
                Interval.from_exact(1 + eps, prec),
            )

        assert certify(1, bounds, 192, "x") is True
        assert asked == [192, 384]

    def test_none_precision_starts_at_192_bits(self):
        asked = []

        def bounds(prec):
            asked.append(prec)
            return Interval.from_exact(0, prec), Interval.from_exact(2, prec)

        assert certify(1, bounds, None, "x") is True
        assert asked == [DEFAULT_PRECISION]

    @pytest.mark.parametrize("value", [1, 2])
    def test_touching_endpoint_is_not_a_certificate(self, value):
        with pytest.raises(
            PrecisionExhausted, match=f"touch inconclusive at {MAX_PRECISION}"
        ):
            certify(value, self.bracket((0, 1), (2, 3)), 192, "touch")


class TestEnclosureSoundness:
    """Monte-Carlo: exact points inside inputs map into outputs."""

    def test_random_op_soundness(self):
        rng = random.Random(7)
        mpmath.mp.prec = 500
        for _ in range(100):
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(1, 10**6)
            x = Fraction(num, den)
            xi = iv(x, 128)
            ops = [
                (lambda v: v + iv(Fraction(1, 7), 128), x + Fraction(1, 7)),
                (lambda v: v * iv(Fraction(3, 11), 128), x * Fraction(3, 11)),
                (lambda v: v - 5, x - 5),
            ]
            for f, exact in ops:
                assert brackets(f(xi), exact)
            if x > 0:
                assert xi.sqrt().lo**2 <= x <= xi.sqrt().hi**2
                ref = mpmath.exp(mpmath.mpf(num) / den)
                out = xi.exp()
                assert mpmath.mpf(float(out.lo)) <= ref * (1 + mpmath.mpf(1e-12))

    def test_precision_refinement_monotone(self):
        rng = random.Random(11)
        for _ in range(100):
            x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            coarse = Interval.from_exact(x, 128)
            fine = Interval.from_exact(x, 256)
            for f in (
                lambda v: v.sqrt(),
                lambda v: v.exp() if x < 50 else v + 1,
                lambda v: (v * v + 3) / (v + 1),
            ):
                assert within(f(fine), f(coarse))


class TestMu:
    def test_zero(self):
        assert brackets(mu(2, 0).value, 0)

    def test_mu_2_2_is_pi(self):
        v = mu(2, 2).value
        p = pi(192)
        assert v.lo <= p.hi and p.lo <= v.hi
        assert v.hi - v.lo < Fraction(1, 2**150)

    def test_mu_6_30_is_5pi(self):
        v = mu(6, 30).value
        assert float(v.lo) == pytest.approx(5 * math.pi)

    # the printed table mu_k(n) = coeff * pi * sqrt(rad * n): the independent
    # reference for mu's derived form pi * sqrt((k-1) n / k)
    PRINTED = [
        (2, Fraction(1, 2), 2),
        (3, Fraction(1, 3), 6),
        (4, Fraction(1, 2), 3),
        (5, Fraction(2, 5), 5),
        (6, Fraction(1, 6), 30),
        (7, Fraction(1, 7), 42),
        (8, Fraction(1, 4), 14),
        (9, Fraction(2, 3), 2),
    ]

    @pytest.mark.parametrize("k,coeff,rad", PRINTED)
    def test_table_against_float_reference(self, k, coeff, rad):
        n = 137
        ref = float(coeff) * math.pi * math.sqrt(rad * n)
        assert float(mu(k, n).value.lo) == pytest.approx(ref)

    @pytest.mark.parametrize("k,coeff,rad", PRINTED)
    def test_radicand_is_two_thirds_delta3(self, k, coeff, rad):
        # mu = pi sqrt(2 n Delta3(1) / 3) needs Delta2 = 0
        inv = invariants(build_spec(k))
        assert inv.delta2 == 0
        assert coeff**2 * rad == Fraction(k - 1, k) == 2 * inv.delta3[1] / 3

    def test_rejects_out_of_range(self):
        with pytest.raises(NumericsError):
            mu(1, 5)
        with pytest.raises(NumericsError):
            mu(10, 5)


class TestBesselI1:
    def test_zero(self):
        out = bessel_i1(iv(0))
        assert out.lo == 0 and out.hi == 0

    @pytest.mark.parametrize("s", [1, 2, 10, 26, 57, 100])
    def test_matches_mpmath(self, s):
        mpmath.mp.prec = 300
        ref = mpmath.besseli(1, s)
        out = bessel_i1(iv(s))
        assert mpmath.mpf(str(out.lo.numerator)) / mpmath.mpf(
            str(out.lo.denominator)
        ) <= ref <= mpmath.mpf(str(out.hi.numerator)) / mpmath.mpf(
            str(out.hi.denominator)
        )
        assert (out.hi - out.lo) / out.lo < Fraction(1, 2**100)

    def test_rejects_negative(self):
        with pytest.raises(NumericsError):
            bessel_i1(Interval.from_endpoints(-1, 1))

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.one_of(
            st.builds(
                lambda whole, frac: whole + Fraction(frac, 2**30),
                st.integers(0, 399),
                st.integers(0, 2**30 - 1),
            ),
            st.builds(lambda e: Fraction(1, 2**e), st.integers(1, 230)),
        ),
        width=st.one_of(
            st.just(Fraction(0)),
            st.builds(lambda e: Fraction(1, 2**e), st.integers(10, 60)),
        ),
        precision=st.integers(64, 384),
    )
    def test_overlaps_series_oracle(self, lo, width, precision):
        # dyadic s in [0, 400], down to 2^-230: points and narrow intervals
        hi = lo + width
        s = Interval.from_endpoints(lo, hi, precision)
        ref = bessel_i1_oracle(Interval.from_endpoints(lo, hi, 2 * precision))
        out = bessel_i1(s)
        assert out.lo <= ref.hi and ref.lo <= out.hi
        if hi > 0:
            # the unrounded fixed-point sums bracket I1 as well
            lower, upper, P = _i1_sums(lo, hi, precision)
            assert Fraction(lower, 2**P) <= ref.hi and ref.lo <= Fraction(upper, 2**P)

    @pytest.mark.parametrize("a,b", [(Fraction(1, 3), 57), (26, 27), (0, 5), (150, 300)])
    def test_wide_input_encloses_endpoint_enclosures(self, a, b):
        wide = bessel_i1(Interval.from_endpoints(a, b))
        assert within(bessel_i1(Interval.from_endpoints(a, a)), wide)
        assert within(bessel_i1(Interval.from_endpoints(b, b)), wide)

    @pytest.mark.parametrize("prec", [64, 192, 384])
    def test_tiny_argument_keeps_relative_accuracy(self, prec):
        # I1(s) ~ s/2 = 2^-101: a grid of 2^-(prec + guard) would lose
        # about 100 of the enclosure's bits (all 64 of them at prec = 64)
        out = bessel_i1(iv(Fraction(1, 2**100), prec))
        assert out.lo > 0
        assert (out.hi - out.lo) / out.lo <= Fraction(1, 2 ** (prec - 2))

    @pytest.mark.parametrize("s", [22, 57, 157, 206, 300])
    def test_relative_width_at_192_bits(self, s):
        out = bessel_i1(iv(s))
        assert (out.hi - out.lo) / out.lo <= Fraction(1, 2**180)

    def test_lemma_bracket_containment_sampled(self):
        # two-sided bound valid for s >= 26; 50 samples across [26, 500]
        rng = random.Random(3)
        samples = [26, 500] + [
            Fraction(rng.randint(26 * 64, 500 * 64), 64) for _ in range(48)
        ]
        for s in samples:
            si = iv(s)
            lo, hi = bessel_i1_bracket(si)
            val = bessel_i1(si)
            assert lo.lo <= val.lo and val.hi <= hi.hi, s

    def test_bracket_rejects_small_s(self):
        with pytest.raises(NumericsError):
            bessel_i1_bracket(iv(25))



class TestEI:
    def test_exact_rational_value(self):
        s = 32
        expect = (
            1
            - Fraction(3, 8 * s)
            - Fraction(15, 128 * s**2)
            - Fraction(105, 1024 * s**3)
            - Fraction(4725, 32768 * s**4)
            - Fraction(72765, 262144 * s**5)
        )
        assert brackets(e_i(iv(s)), expect)

    def test_large_s_near_one(self):
        out = e_i(iv(10**6))
        assert Fraction(1) - out.lo < Fraction(1, 10**6)

    def test_at_26_in_unit_interval(self):
        out = e_i(iv(26))
        assert 0 < out.lo and out.hi < 1

    def test_rejects_nonpositive(self):
        with pytest.raises(NumericsError):
            e_i(iv(0))


class TestDedekind:
    def test_trivial(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(1, 3) == Fraction(1, 18)

    def test_brute_force_small(self):
        # independent re-derivation with floats is unreliable; use direct
        # fraction summation with the sawtooth written differently
        def oracle(h, j):
            total = Fraction(0)
            for r in range(1, j):
                a = Fraction(r, j)
                b = Fraction(h * r % j, j)
                total += (a - Fraction(1, 2)) * (b - Fraction(1, 2))
            return total

        # every coprime pair with 1 <= j <= 60 and -j < h < 2j: the oracle
        # does not use reciprocity, which the implementation does
        pairs = [
            (h, j)
            for j in range(1, 61)
            for h in range(-j + 1, 2 * j)
            if math.gcd(h, j) == 1
        ]
        assert len(pairs) == 3305
        for h, j in pairs:
            assert dedekind_sum(h, j) == oracle(h, j), (h, j)

    def test_reciprocity_random(self):
        rng = random.Random(13)
        done = 0
        while done < 100:
            j = rng.randint(2, 500)
            h = rng.randint(1, j - 1)
            if math.gcd(h, j) != 1:
                continue
            lhs = dedekind_sum(h, j) + dedekind_sum(j, h)
            rhs = Fraction(-1, 4) + (
                Fraction(h, j) + Fraction(j, h) + Fraction(1, h * j)
            ) / 12
            assert lhs == rhs, (h, j)
            done += 1

    def test_oddness(self):
        for h, j in [(1, 5), (3, 7), (5, 12)]:
            assert dedekind_sum(-h, j) == -dedekind_sum(h, j)

    def test_rejects_non_coprime(self):
        with pytest.raises(NumericsError):
            dedekind_sum(2, 4)
