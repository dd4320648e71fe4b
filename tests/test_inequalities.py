"""Exact inequalities, Q-ratio bounds, threshold scanning, and the
sufficiency criterion for third-order Turan on consecutive Q values."""

import json
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regover import inequalities
from regover.inequalities import (
    InequalityError,
    LOGCONCAVE_THRESHOLDS,
    QBOUND_THRESHOLDS,
    TURAN3_THRESHOLDS,
    ThresholdReport,
    q_bounds,
    q_ratio,
    scan_thresholds,
    verify_q_containment,
    _subadd_exceptions,
)
from regover.chern import invariants
from regover.numerics import MAX_PRECISION, Interval, PrecisionExhausted, certify
from regover.qseries import build_spec, pk, warm_cache

from conftest import SUBADD_COUNTEREXAMPLES
from q_bounds_oracle import q_bounds_oracle

KS = list(range(2, 10))


def jia_criterion(u: Fraction, v: Fraction) -> bool:
    """Sufficiency criterion for third-order Turan (Chen, Jia and Wang):
    15/16 <= u < v < 1 and u + sqrt((1-u)^3) > v.

    Decided exactly: with v > u both sides of the square-root comparison
    are positive, so it reduces to (v - u)^2 < (1 - u)^3.
    """
    u, v = Fraction(u), Fraction(v)
    if not (0 < u < 1 and 0 < v < 1):
        return False
    if not (Fraction(15, 16) <= u < v):
        return False
    return (v - u) ** 2 < (1 - u) ** 3


class TestSubadditivity:
    # strict log-subadditivity p(a) p(b) > p(a+b), from the exact counts
    def test_basic_true(self):
        assert pk(3, 5) * pk(3, 4) > pk(3, 9)

    def test_k2_counterexamples(self):
        # genuine failures of strict log-subadditivity at k=2
        for k, a, b in SUBADD_COUNTEREXAMPLES:
            assert not pk(k, a) * pk(k, b) > pk(k, a + b)

    def test_k2_holds_from_total_8(self):
        for total in range(8, 30):
            for b in range(1, total // 2 + 1):
                assert pk(2, total - b) * pk(2, b) > pk(2, total)


class TestQRatio:
    def test_exact_small_value(self):
        # p2: 1, 2, 2, 4, ... so Q(1) = 1*2 / 2^2
        r = q_ratio(2, 1)
        assert r == Fraction(pk(2, 0) * pk(2, 2), pk(2, 1) ** 2)
        assert r == Fraction(1, 2)

    def test_rejects_n_zero(self):
        with pytest.raises(InequalityError):
            q_ratio(2, 0)

    def test_logconcave_iff_q_below_one(self):
        for n in (5, 21, 100):
            logconcave = pk(2, n) ** 2 > pk(2, n - 1) * pk(2, n + 1)
            assert logconcave == (q_ratio(2, n) < 1)


class TestLogConcavity:
    # exact equality points p(n)^2 == p(n-1) p(n+1), exhaustively known
    EQUALITIES = {
        2: (),
        3: (1, 6),
        4: (1, 2, 7),
        5: (1, 2, 8),
        6: (1, 2),
        7: (1, 2),
        8: (1, 2),
        9: (1, 2),
    }
    # strict violations (weak failures are a subset: only these are < )
    STRICT_FAILURES = {
        2: (2, 5, 7, 11, 14, 17, 20),
        3: (3,),
        4: (4,),
        5: (5,),
        6: (),
        7: (),
        8: (),
        9: (),
    }

    def test_k3_n6_is_exact_equality(self):
        assert (pk(3, 5), pk(3, 6), pk(3, 7)) == (16, 24, 36)
        # the scan lists it as an equality, not as a failure
        r = scan_thresholds(3, "logconcave", 6)
        assert 6 in r.equalities and 6 not in r.exceptions_below

    @pytest.mark.parametrize("k", KS)
    def test_exhaustive_to_200(self, k):
        for n in range(1, 201):
            square, product = pk(k, n) ** 2, pk(k, n - 1) * pk(k, n + 1)
            assert (square == product) == (n in self.EQUALITIES[k])
            assert (square < product) == (n in self.STRICT_FAILURES[k])


class TestTuran3:
    @pytest.mark.parametrize("k", KS)
    def test_holds_above_published_threshold(self, k):
        n0 = TURAN3_THRESHOLDS[k]
        r = scan_thresholds(k, "turan3", n0 + 50)
        assert all(n < n0 for n in r.exceptions_below), r

    def test_k2_fails_below(self):
        assert 64 in scan_thresholds(2, "turan3", 65).exceptions_below

    def test_implied_by_jia_criterion(self):
        # whenever the sufficiency criterion fires on (Q(n), Q(n+1)), the
        # third-order Turan inequality must hold at n+1
        for k, n in [(2, 6000), (3, 400), (4, 500), (5, 1200)]:
            u, v = q_ratio(k, n), q_ratio(k, n + 1)
            if jia_criterion(u, v):
                r = scan_thresholds(k, "turan3", n + 1)
                assert n + 1 not in r.exceptions_below


class TestJiaCriterion:
    def test_accepts_known_good_pair(self):
        u, v = q_ratio(2, 6000), q_ratio(2, 6001)
        assert Fraction(15, 16) <= u < v < 1
        assert jia_criterion(u, v)

    def test_rejects_equal_and_reversed(self):
        u = q_ratio(2, 6000)
        assert not jia_criterion(u, u)
        assert not jia_criterion(u, u - Fraction(1, 10**9))

    def test_rejects_below_15_16(self):
        assert not jia_criterion(Fraction(1, 2), Fraction(3, 4))

    def test_rejects_outside_unit_interval(self):
        assert not jia_criterion(Fraction(15, 16), Fraction(17, 16))

    def test_boundary_algebra(self):
        # (v - u)^2 vs (1 - u)^3 decided exactly at a contrived boundary
        u = Fraction(15, 16)
        gap_cubed = (1 - u) ** 3  # 1/4096
        v = u + Fraction(1, 64)  # (v-u)^2 = 1/4096 exactly: not strict
        assert not jia_criterion(u, v)
        assert jia_criterion(u, v - Fraction(1, 10**6))
        assert (v - u) ** 2 == gap_cubed


class TestQBounds:
    def test_below_threshold_names_it(self):
        with pytest.raises(InequalityError, match="5652"):
            q_bounds(2, 5651)

    def test_rejects_bad_k(self):
        with pytest.raises(InequalityError):
            q_bounds(10, 100)

    @pytest.mark.parametrize("k", KS)
    def test_lower_below_upper_below_one(self, k):
        n = QBOUND_THRESHOLDS[k]
        lo, hi = q_bounds(k, n)
        assert lo.hi < hi.lo
        assert float(hi.hi) < 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_containment_at_and_past_threshold(self, k):
        n0 = QBOUND_THRESHOLDS[k]
        for n in (n0, n0 + 37, n0 + 250):
            assert verify_q_containment(k, n)

    def test_containment_k2_spot(self):
        assert verify_q_containment(2, 6000)

    def test_overlap_at_cap_raises(self, monkeypatch):
        q = q_ratio(3, 400)
        asked = []

        def straddling(k, n, precision):
            asked.append(precision)
            around = Interval.from_endpoints(q - 1, q + 1, precision)
            return around, around

        monkeypatch.setattr(inequalities, "q_bounds", straddling)
        with pytest.raises(PrecisionExhausted, match="k=3, n=400"):
            verify_q_containment(3, 400, 192)
        assert asked == [192, 384, MAX_PRECISION]

    def test_bounds_tighten_with_n(self):
        lo1, hi1 = q_bounds(3, 400)
        lo2, hi2 = q_bounds(3, 4000)
        assert (hi2.hi - lo2.lo) < (hi1.hi - lo1.lo)

    # the printed (A, B) columns of the Q-bound rows: the independent
    # reference for q_bounds' derived A = ((k-1)/(2k))^2 and B = 3A
    PRINTED_AB = {
        2: (Fraction(1, 16), Fraction(3, 16)),
        3: (Fraction(1, 9), Fraction(1, 3)),
        4: (Fraction(9, 64), Fraction(27, 64)),
        5: (Fraction(4, 25), Fraction(12, 25)),
        6: (Fraction(25, 144), Fraction(25, 48)),
        7: (Fraction(9, 49), Fraction(27, 49)),
        8: (Fraction(49, 256), Fraction(147, 256)),
        9: (Fraction(16, 81), Fraction(16, 27)),
    }

    @pytest.mark.parametrize("k", KS)
    def test_printed_a_b_are_delta3_squares(self, k):
        A, B = self.PRINTED_AB[k]
        delta3 = invariants(build_spec(k)).delta3[1]
        assert A == (delta3 / 3) ** 2 == Fraction(k - 1, 2 * k) ** 2
        assert B == 3 * A

    @classmethod
    def printed_rows(cls, k, n, bits=1000):
        """The printed rows L(n), R(n) from the printed A, B, at ``bits`` bits."""
        A, B = cls.PRINTED_AB[k]
        c5, c6, d5, d6, e = inequalities._QB_TABLE[k]
        with mpmath.workprec(bits):
            p = mpmath.pi
            t = 1 / (p * mpmath.sqrt(mpmath.mpf((k - 1) * n) / k))

            def rat(x):
                return mpmath.mpf(x.numerator) / x.denominator

            shared = 1 - rat(A) * p**4 * t**3 + rat(B) * p**4 * t**4
            lower = shared - c5 * t**5 - c6 * t**6
            upper = shared - d5 * t**5 + (d6 + rat(e) * p**8) * t**6
            return tuple(
                Fraction(int(x.man)) * Fraction(2) ** int(x.exp) for x in (lower, upper)
            )

    @staticmethod
    def seeded_ns(k):
        n0 = QBOUND_THRESHOLDS[k]
        rng = random.Random(k)
        return [n0, n0 + 11, *sorted(rng.randrange(n0, 50_001) for _ in range(3))]

    @pytest.mark.parametrize("k", KS)
    def test_bounds_match_printed_a_b(self, k):
        # the integer and the Interval oracle enclosures both contain a
        # 1000-bit evaluation of the rows built from the printed A, B
        for n in self.seeded_ns(k):
            reference = self.printed_rows(k, n)
            for prec in (64, 192, 384):
                for got in (q_bounds(k, n, prec), q_bounds_oracle(k, n, prec)):
                    for enclosure, value in zip(got, reference):
                        assert enclosure.lo < value < enclosure.hi, (n, prec)

    @pytest.mark.parametrize("k", KS)
    def test_relative_width(self, k):
        for n in self.seeded_ns(k):
            for prec in (64, 192, 384):
                for enclosure in q_bounds(k, n, prec):
                    assert enclosure.hi - enclosure.lo <= enclosure.lo / 2 ** (prec - 8)

    @pytest.mark.parametrize("k, ns", [(3, range(365, 1366)), (2, range(5652, 6153))])
    def test_verdicts_match_oracle(self, k, ns):
        for n in ns:
            oracle = certify(
                q_ratio(k, n),
                lambda prec: q_bounds_oracle(k, n, prec),
                None,
                f"oracle k={k}, n={n}",
            )
            assert verify_q_containment(k, n) == oracle, n


class TestFixedPoint:
    # the directed-rounding helpers behind q_bounds, each against the exact
    # rational value it must bracket

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(min_value=-(10**6), max_value=10**6),
        st.fractions(min_value=0, max_value=10**6),
        st.integers(min_value=64, max_value=400),
        st.integers(min_value=0, max_value=500),
    )
    def test_scaled_endpoints(self, lo, extra, prec, bits):
        iv = Interval.from_endpoints(lo, lo + extra, prec)
        a, b = iv.scaled(bits)
        assert a == math.floor(iv.lo * 2**bits)
        assert b == math.ceil(iv.hi * 2**bits)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**12),
        st.integers(min_value=1, max_value=2**12),
        st.integers(min_value=0, max_value=2**600),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**600),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=700),
    )
    def test_product(self, num, den, x, wx, y, wy, s):
        lo, hi = inequalities._product(num, den, (x, x + wx), (y, y + wy), s)
        exact_lo = Fraction(num * x * y, den * 2**s)
        exact_hi = Fraction(num * (x + wx) * (y + wy), den * 2**s)
        assert lo == math.floor(exact_lo)
        assert hi == math.ceil(exact_hi)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=64, max_value=MAX_PRECISION))
    def test_pi_powers(self, prec):
        s = prec + inequalities._QB_GUARD
        with mpmath.workprec(2 * s + 64):
            scaled = [mpmath.pi**4 * 2**s, mpmath.pi**8 * 2**s]
        for (lo, hi), value in zip(inequalities._pi_powers(prec), scaled):
            assert lo < value < hi
            # pi(prec) is about 2^-prec tight, so pi^j about j 2^-prec
            assert hi - lo <= value / 2 ** (prec - 5)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=2**9),
            st.integers(min_value=2**9, max_value=2**18),
        ),
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=8, max_value=400),
    )
    def test_inverse_powers(self, m_lo, w, s):
        # mu in [m_lo, m_lo + w] / 2^8, every power of t = 1/mu at scale 2^s
        lo_mu, hi_mu = Fraction(m_lo, 2**8), Fraction(m_lo + w, 2**8)
        powers = inequalities._inverse_powers((m_lo << (s - 8), (m_lo + w) << (s - 8)), s)
        assert powers[0] == (2**s, 2**s)
        for j, (lo, hi) in enumerate(powers):
            assert Fraction(lo, 2**s) <= 1 / hi_mu**j
            assert 1 / lo_mu**j <= Fraction(hi, 2**s)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(KS),
        st.one_of(
            st.integers(min_value=1, max_value=2**9),
            st.integers(min_value=2**9, max_value=2**18),
            st.integers(min_value=0, max_value=18).map(lambda j: 2**j),
        ),
        st.integers(min_value=0, max_value=2**10),
        st.integers(min_value=2**64, max_value=2**66),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**70),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=64, max_value=400),
    )
    def test_rows_bracket_exact_value(self, k, m8, wm, p4, w4, p8, w8, prec):
        # mu in [m8, m8 + wm] / 2^8 and pi^4, pi^8 in [p, p + w] / 2^64 (any
        # rationals do): the rows at every corner must lie inside.  mu = 2^j
        # makes every power of t exact, so each rounding of a product shows;
        # small mu magnifies every rounding of t
        s = prec + inequalities._QB_GUARD
        mu_s = (m8 << (s - 8), (m8 + wm) << (s - 8))
        p4_s = (p4 << (s - 64), (p4 + w4) << (s - 64))
        p8_s = (p8 << (s - 64), (p8 + w8) << (s - 64))
        rows = inequalities._q_rows(k, mu_s, p4_s, p8_s, s)
        A, B = self.PRINTED_AB[k]
        c5, c6, d5, d6, e = inequalities._QB_TABLE[k]
        for t in (Fraction(2**8, m8), Fraction(2**8, m8 + wm)):
            for pi4 in (Fraction(p4, 2**64), Fraction(p4 + w4, 2**64)):
                for pi8 in (Fraction(p8, 2**64), Fraction(p8 + w8, 2**64)):
                    shared = 1 - A * pi4 * t**3 + B * pi4 * t**4
                    exact = (
                        shared - c5 * t**5 - c6 * t**6,
                        shared - d5 * t**5 + (d6 + e * pi8) * t**6,
                    )
                    for (lo, hi), value in zip(rows, exact):
                        assert Fraction(lo, 2**s) <= value <= Fraction(hi, 2**s)
        if m8 >= 20 * 2**8 and wm == w4 == w8 == 0:
            # with point inputs at mu >= 20, far below one unit of precision
            for lo, hi in rows:
                assert hi - lo <= 2 ** (s - prec - 16)

    PRINTED_AB = TestQBounds.PRINTED_AB


class TestScan:
    def test_logconcave_observed_matches_published(self):
        for k in KS:
            r = scan_thresholds(k, "logconcave", 120)
            assert r.observed_min_threshold == LOGCONCAVE_THRESHOLDS[k], (k, r)
            assert r.paper_threshold == LOGCONCAVE_THRESHOLDS[k]
            assert r.exceptions_below == TestLogConcavity.STRICT_FAILURES[k]
            assert r.equalities == TestLogConcavity.EQUALITIES[k]

    def test_turan3_observed_matches_published(self):
        for k in KS:
            r = scan_thresholds(k, "turan3", 120)
            assert r.observed_min_threshold == TURAN3_THRESHOLDS[k], (k, r)
            assert r.equalities == ()

    def test_subadd_k2(self):
        r = scan_thresholds(2, "subadd", 60)
        assert r.exceptions_below == tuple(
            (a, b) for k, a, b in SUBADD_COUNTEREXAMPLES if k == 2
        )
        assert r.observed_min_threshold == 8

    def test_subadd_k3_clean(self):
        r = scan_thresholds(3, "subadd", 60)
        assert r.exceptions_below == ()
        assert r.observed_min_threshold == 3

    def test_rejects_short_horizon(self):
        with pytest.raises(InequalityError):
            scan_thresholds(2, "turan3", 64)
        with pytest.raises(InequalityError):
            scan_thresholds(5, "subadd", 4)

    def test_rejects_k_without_published_threshold(self, monkeypatch):
        def no_table(*_args):
            raise AssertionError("table built for a refused k")

        monkeypatch.setattr(inequalities, "pk_series", no_table)
        for prop in ("logconcave", "turan3"):
            with pytest.raises(InequalityError, match=r"k=10.*k = 2\.\.9"):
                scan_thresholds(10, prop, 100)
        monkeypatch.undo()
        assert scan_thresholds(10, "subadd", 40).k == 10

    def test_rejects_unknown_property(self):
        with pytest.raises(InequalityError):
            scan_thresholds(2, "unimodal", 100)

    @pytest.mark.parametrize("prop", ["logconcave", "turan3", "subadd"])
    def test_scan_keeps_no_table(self, prop, monkeypatch):
        # a warmed table stays as it was and no other k table is memoized
        from regover import qseries

        monkeypatch.setattr(qseries, "_CACHE", {})
        warm_cache(3, 50)
        before = dict(qseries._CACHE)
        scan_thresholds(3, prop, 400)
        scan_thresholds(4, prop, 400)
        assert qseries._CACHE == before

    def test_report_serialization(self):
        r = scan_thresholds(3, "logconcave", 50)
        d = json.loads(json.dumps(r.to_dict()))
        assert d["k"] == 3 and d["property"] == "logconcave"
        assert d["equalities"] == [1, 6]
        assert isinstance(d["exceptions_below"], list)


def pair_scan(c, k, horizon):
    """Every pair (a, b), a >= b >= 1 and k <= a+b <= horizon, at which
    c[a] c[b] > c[a+b] fails, in order of (a+b, b): the O(horizon^2) scan
    over all pairs that the log-concavity reduction replaces."""
    return tuple(
        (total - b, b)
        for total in range(k, horizon + 1)
        for b in range(1, total // 2 + 1)
        if not c[total - b] * c[b] > c[total]
    )


def point_by_point_report(k, prop, horizon):
    """scan_thresholds' report rebuilt one index at a time from pk()."""
    if prop == "subadd":
        bad = pair_scan([pk(k, n) for n in range(horizon + 1)], k, horizon)
        observed = max((a + b for a, b in bad), default=k - 1) + 1
        return ThresholdReport(k, prop, k, observed, horizon, bad)
    ns = range(1, horizon + 1)
    if prop == "logconcave":
        paper = LOGCONCAVE_THRESHOLDS[k]
        bad = tuple(n for n in ns if pk(k, n) ** 2 < pk(k, n - 1) * pk(k, n + 1))
        equalities = tuple(
            n for n in ns if pk(k, n) ** 2 == pk(k, n - 1) * pk(k, n + 1)
        )
    else:
        paper = TURAN3_THRESHOLDS[k]
        bad = []
        for n in ns:
            a0, a1, a2, a3 = (pk(k, n + j) for j in range(-1, 3))
            d1, d2 = a1 * a1 - a0 * a2, a2 * a2 - a1 * a3
            if not 4 * d1 * d2 > (a1 * a2 - a0 * a3) ** 2:
                bad.append(n)
        bad = tuple(bad)
        equalities = ()
    observed = bad[-1] + 1 if bad else 1
    return ThresholdReport(k, prop, paper, observed, horizon, bad, equalities)


class TestScanMatchesPointChecks:
    # the scan reads the cached tables directly; the reference goes through
    # pk() one index at a time, and both must give the same report
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize(
        "prop, horizon", [("logconcave", 3000), ("turan3", 1500), ("subadd", 200)]
    )
    def test_report_equal(self, prop, horizon, k):
        assert scan_thresholds(k, prop, horizon) == point_by_point_report(
            k, prop, horizon
        )


@st.composite
def _positive_tables(draw):
    """(k, horizon, table): a positive integer table through horizon, drawn
    log-concave ((n+1)^d, or q^n (n+1) with its equalities) or at random,
    with a few entries then replaced at random, so that log-concavity and
    subadditivity fail at random places."""
    horizon = draw(st.integers(1, 60))
    k = draw(st.integers(1, horizon))
    ns = range(horizon + 1)
    shape = draw(st.sampled_from(["power", "geometric", "random"]))
    if shape == "power":
        d = draw(st.integers(1, 6))
        table = [(n + 1) ** d for n in ns]
    elif shape == "geometric":
        q = draw(st.integers(2, 5))
        table = [q**n * (n + 1) for n in ns]
    else:
        size = len(ns)
        table = draw(st.lists(st.integers(1, 10**6), min_size=size, max_size=size))
    for n in draw(st.lists(st.integers(0, horizon), max_size=4)):
        table[n] = draw(st.integers(1, 3 * table[n] + 10))
    return k, horizon, table


class TestSubaddReduction:
    # _subadd_exceptions decides one pair per b past the table's last
    # log-concavity failure; the O(horizon^2) pair scan is its oracle

    @pytest.mark.parametrize("k", [*KS, 10])
    def test_real_tables_match_pair_scan(self, k):
        c = warm_cache(k, 3000)
        every = pair_scan(c, k, 3000)
        for horizon in [*range(k, 41), 60, 200, 1000, 2999, 3000]:
            want = tuple((a, b) for a, b in every if a + b <= horizon)
            assert _subadd_exceptions(c, k, horizon) == want, horizon
        assert scan_thresholds(k, "subadd", 3000).exceptions_below == every

    @settings(max_examples=500, deadline=None)
    @given(_positive_tables())
    def test_any_positive_table_matches_pair_scan(self, drawn):
        k, horizon, table = drawn
        assert _subadd_exceptions(table, k, horizon) == pair_scan(table, k, horizon)

    def test_pair_below_the_covering_check(self):
        # log-concave but for n = 6, so start = 6; c[1]^2 = c[2], so (1, 1)
        # fails, and b = 1's check at m = 6 passes: (1, 1) is found among the
        # pairs below m
        c = [1, 2] + [n + 2 for n in range(2, 7)] + [n + 3 for n in range(7, 21)]
        assert c[6] ** 2 < c[5] * c[7] and c[6] * c[1] > c[7]
        assert _subadd_exceptions(c, 2, 20) == ((1, 1),) == pair_scan(c, 2, 20)

    def test_failed_check_falls_back_to_every_pair(self):
        # log-concave, ratios 2, 2, 2, 2, then below 2: b = 1's check at m = 1
        # fails, and of the pairs past it (2, 1) and (3, 1) fail, (4, 1) holds
        c = [1, 2, 4, 8, 16, 24, 30, 35, 40, 44, 48, 51]
        assert all(x * x >= w * y for w, x, y in zip(c, c[1:], c[2:]))
        assert _subadd_exceptions(c, 2, 11) == (
            (1, 1), (2, 1), (3, 1), (2, 2)
        ) == pair_scan(c, 2, 11)

    def test_late_logconcavity_failure_moves_start(self):
        # c = n + 1 is log-concave and subadditive; c[40] = 80 breaks
        # log-concavity at n = 39, and (39, 1) fails.  The observed start = 39
        # finds it, where a start of 0, or of k = 2's published threshold 21
        # less one, would let b = 1's check at m = 1 or 20 cover every a
        c = [n + 1 for n in range(40)] + [80]
        assert c[39] ** 2 < c[38] * c[40] and c[20] * c[1] > c[21]
        assert _subadd_exceptions(c, 2, 40) == ((39, 1),) == pair_scan(c, 2, 40)
