"""Exact inequalities, Q-ratio bounds, and threshold scanning."""

import json
from fractions import Fraction

import pytest

from regover import inequalities
from regover.inequalities import (
    InequalityError,
    LOGCONCAVE_THRESHOLDS,
    QBOUND_THRESHOLDS,
    TURAN3_THRESHOLDS,
    ThresholdReport,
    check_logconcave,
    check_subadditivity,
    check_turan3,
    jia_criterion,
    logconcave_equality,
    q_bounds,
    q_ratio,
    scan_thresholds,
    verify_q_containment,
)
from regover.chern import invariants
from regover.numerics import MAX_PRECISION, Interval, PrecisionExhausted, mu, pi
from regover.qseries import build_spec, pk

from conftest import SUBADD_COUNTEREXAMPLES

KS = list(range(2, 10))


class TestSubadditivity:
    def test_basic_true(self):
        assert check_subadditivity(3, 5, 4)

    def test_k2_counterexamples(self):
        # genuine failures of strict log-subadditivity at k=2
        for k, a, b in SUBADD_COUNTEREXAMPLES:
            assert not check_subadditivity(k, a, b)

    def test_k2_holds_from_total_8(self):
        for total in range(8, 30):
            for b in range(1, total // 2 + 1):
                assert check_subadditivity(2, total - b, b)

    def test_preconditions(self):
        with pytest.raises(InequalityError):
            check_subadditivity(1, 3, 2)
        with pytest.raises(InequalityError):
            check_subadditivity(2, 1, 2)  # a < b
        with pytest.raises(InequalityError):
            check_subadditivity(5, 2, 2)  # a + b < k


class TestQRatio:
    def test_exact_small_value(self):
        # p2: 1, 2, 2, 4, ... so Q(1) = 1*2 / 2^2
        r = q_ratio(2, 1)
        assert r.value == Fraction(pk(2, 0) * pk(2, 2), pk(2, 1) ** 2)
        assert r.value == Fraction(1, 2)

    def test_rejects_n_zero(self):
        with pytest.raises(InequalityError):
            q_ratio(2, 0)

    def test_logconcave_iff_q_below_one(self):
        for n in (5, 21, 100):
            assert check_logconcave(2, n) == (q_ratio(2, n).value < 1)


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
        assert logconcave_equality(3, 6)
        assert not check_logconcave(3, 6)
        assert check_logconcave(3, 6, strict=False)

    @pytest.mark.parametrize("k", KS)
    def test_exhaustive_to_200(self, k):
        for n in range(1, 201):
            eq = logconcave_equality(k, n)
            strict = check_logconcave(k, n)
            weak = check_logconcave(k, n, strict=False)
            assert eq == (n in self.EQUALITIES[k])
            assert (not weak) == (n in self.STRICT_FAILURES[k])
            assert strict == (weak and not eq)

    def test_rejects_n_zero(self):
        with pytest.raises(InequalityError):
            check_logconcave(2, 0)


class TestTuran3:
    @pytest.mark.parametrize("k", KS)
    def test_holds_above_published_threshold(self, k):
        n0 = TURAN3_THRESHOLDS[k]
        for n in range(n0, n0 + 50):
            assert check_turan3(k, n)

    def test_k2_fails_below(self):
        assert not check_turan3(2, 64)

    def test_implied_by_jia_criterion(self):
        # whenever the sufficiency criterion fires on (Q(n), Q(n+1)), the
        # third-order Turan inequality must hold at n+1
        for k, n in [(2, 6000), (3, 400), (4, 500), (5, 1200)]:
            u, v = q_ratio(k, n).value, q_ratio(k, n + 1).value
            if jia_criterion(u, v):
                assert check_turan3(k, n + 1)


class TestJiaCriterion:
    def test_accepts_known_good_pair(self):
        u, v = q_ratio(2, 6000).value, q_ratio(2, 6001).value
        assert Fraction(15, 16) <= u < v < 1
        assert jia_criterion(u, v)

    def test_rejects_equal_and_reversed(self):
        u = q_ratio(2, 6000).value
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
        q = q_ratio(3, 400).value
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

    @pytest.mark.parametrize("k", KS)
    def test_bounds_match_printed_a_b(self, k):
        # the printed rows evaluated term by term give the same endpoints
        n, prec = QBOUND_THRESHOLDS[k] + 11, 192
        A, B = self.PRINTED_AB[k]
        c5, c6, d5, d6, e = inequalities._QB_TABLE[k]
        m = mu(k, n, prec).value
        p4 = pi(prec).pow_int(4)
        inv = {j: 1 / m.pow_int(j) for j in (3, 4, 5, 6)}
        shared = 1 - p4 * A * inv[3] + p4 * B * inv[4]
        lower = shared - c5 * inv[5] - c6 * inv[6]
        upper = shared - d5 * inv[5] + (d6 + e * pi(prec).pow_int(8)) * inv[6]
        got_lower, got_upper = q_bounds(k, n, prec)
        assert (got_lower.lo, got_lower.hi) == (lower.lo, lower.hi)
        assert (got_upper.lo, got_upper.hi) == (upper.lo, upper.hi)


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

    def test_rejects_unknown_property(self):
        with pytest.raises(InequalityError):
            scan_thresholds(2, "unimodal", 100)

    def test_report_serialization(self):
        r = scan_thresholds(3, "logconcave", 50)
        d = json.loads(json.dumps(r.to_dict()))
        assert d["k"] == 3 and d["property"] == "logconcave"
        assert d["equalities"] == [1, 6]
        assert isinstance(d["exceptions_below"], list)


def point_by_point_report(k, prop, horizon):
    """scan_thresholds' report rebuilt from the per-index public checks."""
    if prop == "subadd":
        bad = tuple(
            (total - b, b)
            for total in range(k, horizon + 1)
            for b in range(1, total // 2 + 1)
            if not check_subadditivity(k, total - b, b)
        )
        observed = max((a + b for a, b in bad), default=k - 1) + 1
        return ThresholdReport(k, prop, k, observed, horizon, bad)
    ns = range(1, horizon + 1)
    if prop == "logconcave":
        paper = LOGCONCAVE_THRESHOLDS[k]
        bad = tuple(n for n in ns if not check_logconcave(k, n, strict=False))
        equalities = tuple(n for n in ns if logconcave_equality(k, n))
    else:
        paper = TURAN3_THRESHOLDS[k]
        bad = tuple(n for n in ns if not check_turan3(k, n))
        equalities = ()
    observed = bad[-1] + 1 if bad else 1
    return ThresholdReport(k, prop, paper, observed, horizon, bad, equalities)


class TestScanMatchesPointChecks:
    # the scan reads the cached tables directly; the public checks go through
    # pk() one index at a time, and both must give the same report
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize(
        "prop, horizon", [("logconcave", 3000), ("turan3", 1500), ("subadd", 200)]
    )
    def test_report_equal(self, prop, horizon, k):
        assert scan_thresholds(k, prop, horizon) == point_by_point_report(
            k, prop, horizon
        )
