"""Series arithmetic checks against brute-force polynomial oracles.

``pk_series`` runs on the theta identity; the eta-quotient expansion in
``qseries_oracle`` is the independent reference it must reproduce, and two
congruences mod 4 and mod 8 check the whole table without any series
arithmetic.
"""

from math import isqrt

import pytest

from regover import qseries

from regover.qseries import (
    EtaQuotientSpec,
    SeriesError,
    build_spec,
    pk,
    pk_series,
    warm_cache,
)

from qseries_oracle import (
    euler_series,
    eta_quotient_series,
    series_invert,
    series_mul,
    unit_series,
)


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            if i + j <= order:
                out[i + j] += ca * cb
    return out


def euler_brute(m, order):
    """Expand prod_j (1 - q^{m j}) by naive polynomial multiplication."""
    out = [1] + [0] * order
    j = 1
    while m * j <= order:
        factor = [0] * (order + 1)
        factor[0] = 1
        factor[m * j] = -1
        out = poly_mul(out, factor, order)
        j += 1
    return out


def partitions_brute(n):
    """Count partitions of n by explicit enumeration."""

    def walk(remaining, max_part):
        if remaining == 0:
            return 1
        return sum(
            walk(remaining - s, s) for s in range(min(remaining, max_part), 0, -1)
        )

    return walk(n, n)


class TestEulerSeries:
    def test_order7_matches_brute_force(self):
        # oracle: euler_brute(1, 7) == [1,-1,-1,0,0,1,0,1]
        assert list(euler_series(1, 7)) == euler_brute(1, 7)
        assert euler_brute(1, 7) == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_below_first_exponent_is_unit(self):
        assert euler_series(5, 4) == (1, 0, 0, 0, 0)

    def test_m2_order4(self):
        assert list(euler_series(2, 4)) == euler_brute(2, 4)
        assert euler_brute(2, 4) == [1, 0, -1, 0, -1]

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_matches_brute_force(self, m):
        assert list(euler_series(m, 60)) == euler_brute(m, 60)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_coefficients_in_minus_one_zero_one(self, m):
        assert set(euler_series(m, 500)) <= {-1, 0, 1}

    def test_rejects_bad_args(self):
        with pytest.raises(SeriesError):
            euler_series(0, 5)
        with pytest.raises(SeriesError):
            euler_series(1, -1)


class TestIntegerSeries:
    # a series is the tuple of its coefficients; one with no coefficient,
    # not even a constant term, is rejected
    @pytest.mark.parametrize("raw", [(), []], ids=["tuple", "list"])
    def test_empty_rejected(self, raw):
        with pytest.raises(SeriesError):
            series_mul(raw, raw)
        with pytest.raises(SeriesError):
            series_invert(raw)


class TestMulInvert:
    def test_difference_of_squares_truncated(self):
        out = series_mul((1, 1), (1, -1))
        assert out == (1, 0)

    def test_unit_identity(self):
        a = (3, -2, 5, 7)
        assert series_mul(a, unit_series(3)) == a

    def test_hand_convolution(self):
        out = series_mul((1, 2, 1), (1, 1, 0))
        assert out == (1, 3, 3)

    def test_order_mismatch_rejected(self):
        with pytest.raises(SeriesError):
            series_mul((1, 1), (1, 1, 1))

    def test_invert_geometric(self):
        assert series_invert((1, -1, 0, 0)) == (1, 1, 1, 1)

    def test_invert_unit(self):
        assert series_invert(unit_series(5)) == unit_series(5)

    def test_invert_euler_gives_partition_numbers(self):
        inv = series_invert(euler_series(1, 10))
        assert list(inv) == [partitions_brute(n) for n in range(11)]
        assert inv == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

    def test_invert_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            series_invert((2, 1))

    def test_invert_roundtrip(self):
        a = euler_series(3, 40)
        assert series_mul(a, series_invert(a)) == unit_series(40)


class TestBuildSpec:
    def test_k2_matches_published_exponents(self):
        spec = build_spec(2)
        assert spec.factors == ((1, -2), (2, 1), (2, 2), (4, -1))

    @pytest.mark.parametrize("k", [3, 9])
    def test_general_k_shape(self, k):
        spec = build_spec(k)
        assert spec.factors == ((1, -2), (2, 1), (k, 2), (2 * k, -1))

    def test_rejects_small_k(self):
        with pytest.raises(SeriesError):
            build_spec(1)

    def test_spec_validation(self):
        with pytest.raises(SeriesError):
            EtaQuotientSpec(())
        with pytest.raises(SeriesError):
            EtaQuotientSpec(((0, 1),))


class TestPkSeries:
    def test_order_zero(self):
        assert pk_series(2, 0) == (1,)

    def test_small_counts(self):
        s = pk_series(2, 4)
        assert s[0] == 1
        assert s[1] == 2  # {1} and {overlined 1}

    def test_ring_roundtrip(self):
        # multiplying the series back by the denominator factors recovers
        # the numerator factors exactly
        order = 80
        k = 3
        s = pk_series(k, order)
        denom = series_mul(
            series_mul(euler_series(1, order), euler_series(1, order)),
            euler_series(2 * k, order),
        )
        numer = series_mul(
            series_mul(euler_series(k, order), euler_series(k, order)),
            euler_series(2, order),
        )
        assert series_mul(s, denom) == numer

    def test_matches_generic_eta_quotient(self):
        assert pk_series(5, 50) == eta_quotient_series(build_spec(5), 50)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_matches_eta_quotient_oracle_to_10000(self, k):
        order = 10_000
        assert pk_series(k, order) == eta_quotient_series(build_spec(k), order)

    def test_rejects_bad_args(self):
        with pytest.raises(SeriesError):
            pk_series(1, 5)
        with pytest.raises(SeriesError):
            pk_series(2, -1)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_orders_at_segment_edges(self, k):
        # the terms j = 1..J cover n in [k J^2, k (J+1)^2): end a table just
        # before, at and just after each edge, and at orders 0 and k - 1
        edges = [k * J * J + d for J in range(1, 7) for d in (-1, 0, 1)]
        oracle = eta_quotient_series(build_spec(k), max(edges))
        for order in [0, k - 1, *edges]:
            assert pk_series(k, order) == oracle[: order + 1], order

    @pytest.mark.parametrize("k", range(2, 10))
    def test_positive_and_nondecreasing(self, k):
        s = pk_series(k, 120)
        assert all(c >= 1 for c in s)
        assert all(s[n + 1] >= s[n] for n in range(1, 120))


OVERPARTITIONS_SPEC = EtaQuotientSpec(((1, -2), (2, 1)))  # 1/phi(-q)


class TestOverpartitionTable:
    def test_first_values(self):
        # OEIS A015128: overpartitions of n
        table = qseries.overpartitions(10)
        assert table[:11] == [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232]

    @pytest.mark.parametrize("start", [1, 2, 3])
    def test_growth_in_steps_across_squares(self, start, monkeypatch):
        # the recurrence gains a term at each square m^2: grow the table in
        # steps that end at m^2 - 1, m^2 and m^2 + 1, from a cold [1] and
        # from the first two and three entries, and in one step
        order = 1300
        oracle = eta_quotient_series(OVERPARTITIONS_SPEC, order)
        monkeypatch.setattr(qseries, "_OVERPARTITIONS", list(oracle[:start]))
        for end in [m * m + d for m in range(1, 37) for d in (-1, 0, 1)] + [order]:
            table = qseries.overpartitions(end)
            assert len(table) == max(end + 1, start), end
        stepwise = table
        monkeypatch.setattr(qseries, "_OVERPARTITIONS", list(oracle[:start]))
        assert qseries.overpartitions(order) == stepwise
        assert tuple(stepwise) == oracle

    def test_matches_eta_quotient_oracle(self):
        # 1/phi(-q) = (q^2;q^2) / (q;q)^2
        order = 3000
        oracle = eta_quotient_series(OVERPARTITIONS_SPEC, order)
        assert tuple(qseries.overpartitions(order)[: order + 1]) == oracle


class TestPkAccessor:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_pk_zero_is_one(self, k):
        assert pk(k, 0) == 1

    def test_pk_2_2(self):
        # {1+1}, {overlined 1 + 1}: the 2's are excluded by 2-regularity
        assert pk(2, 2) == 2

    def test_memo_growth_consistency(self):
        direct = pk_series(7, 300)
        for n in (5, 120, 300):
            assert pk(7, n) == direct[n]

    def test_shared_table_grown_through_another_k(self, monkeypatch):
        # start cold, grow the shared table through k = 2, then read k = 9
        monkeypatch.setattr(qseries, "_OVERPARTITIONS", [1])
        monkeypatch.setattr(qseries, "_CACHE", {})
        pk(9, 50)
        pk(2, 3000)
        oracle = eta_quotient_series(build_spec(9), 3000)
        assert pk(9, 3000) == oracle[3000]

    def test_rejects_bad_args(self):
        with pytest.raises(SeriesError):
            pk(1, 5)
        with pytest.raises(SeriesError):
            pk(2, -1)


class TestPkCoefficient:
    # pk on a cold cache reads one coefficient from the shared pbar table

    @pytest.mark.parametrize("k", range(2, 10))
    def test_matches_the_table(self, k, monkeypatch):
        monkeypatch.setattr(qseries, "_CACHE", {})
        table = pk_series(k, 2000)
        for n in (0, 1, k - 1, k, 4 * k, 999, 2000):
            assert pk(k, n) == table[n]
        assert qseries._CACHE == {}

    def test_read_past_a_warmed_table_leaves_it_as_it_was(self, monkeypatch):
        monkeypatch.setattr(qseries, "_CACHE", {})
        warm_cache(4, 100)
        assert pk(4, 500) == pk_series(4, 500)[500]
        assert len(qseries._CACHE[4]) - 1 == 100

    def test_rejects_bad_args(self, monkeypatch):
        monkeypatch.setattr(qseries, "_CACHE", {})
        with pytest.raises(SeriesError):
            pk(1, 5)
        with pytest.raises(SeriesError):
            pk(2, -1)


class TestWarmCache:
    def test_scans_build_to_the_asked_order(self, monkeypatch):
        # the log-concavity scan reads H + 2 coefficients: the shared table
        # grows to H + 2, and neither scan memoizes a k table
        from regover.inequalities import scan_thresholds

        monkeypatch.setattr(qseries, "_OVERPARTITIONS", [1])
        monkeypatch.setattr(qseries, "_CACHE", {})
        H = 3000
        scan_thresholds(2, "subadd", H)
        scan_thresholds(2, "logconcave", H)
        assert len(qseries._OVERPARTITIONS) - 1 == H + 2
        assert 2 not in qseries._CACHE

    def test_memo_holds_one_table(self, monkeypatch):
        # warming k drops every other k's table; a read of a dropped k sums
        # its coefficient's terms instead
        monkeypatch.setattr(qseries, "_CACHE", {})
        warm_cache(3, 400)
        warm_cache(4, 300)
        assert list(qseries._CACHE) == [4]
        assert pk(3, 400) == pk_series(3, 400)[400]
        warm_cache(4, 200)
        warm_cache(3, 100)
        assert list(qseries._CACHE) == [3]
        assert len(qseries._CACHE[3]) - 1 == 100

    def test_longer_table_is_kept(self, monkeypatch):
        monkeypatch.setattr(qseries, "_CACHE", {})
        warm_cache(5, 256)
        assert len(warm_cache(5, 40)) - 1 == 256
        assert len(warm_cache(5, 300)) - 1 == 300
        assert pk(5, 301) == pk_series(5, 600)[301]
        assert len(qseries._CACHE[5]) - 1 == 300

    def test_rejects_bad_args(self, monkeypatch):
        monkeypatch.setattr(qseries, "_CACHE", {})
        with pytest.raises(SeriesError):
            warm_cache(1, 5)
        with pytest.raises(SeriesError):
            warm_cache(2, -1)
        warm_cache(2, 5)
        with pytest.raises(SeriesError):
            warm_cache(2, -1)


# Congruence oracles.  With T = sum_{j>=1} (-1)^j q^(j^2), phi(-q) = 1 + 2T
# and pk-bar = phi(-q^k) / phi(-q).  Since 1/(1 + 2T) = 1 - 2T + 4T^2 (mod 8),
#   pk-bar = (1 + 2T(q^k)) (1 - 2T + 4T^2)
#          = 1 - 2T + 4T^2 + 2T(q^k) - 4 T T(q^k)   (mod 8),
# and modulo 4 only 1 - 2T + 2T(q^k) remains, where -2T = 2T (mod 4).  Each
# coefficient below is a signed count of representations by squares,
# computed directly from its definition.
CONGRUENCE_ORDER = 20_000


def signed_squares(order):
    """T(n) = (-1)^j if n = j^2 with j >= 1, else 0, for n <= order."""
    t = [0] * (order + 1)
    for j in range(1, isqrt(order) + 1):
        t[j * j] = (-1) ** j
    return t


def signed_two_square_sums(order, k):
    """sum of (-1)^(i+j) over i, j >= 1 with i^2 + k j^2 = n, for n <= order."""
    out = [0] * (order + 1)
    for i in range(1, isqrt(order) + 1):
        for j in range(1, isqrt((order - i * i) // k) + 1):
            out[i * i + k * j * j] += (-1) ** (i + j)
    return out


class TestCongruenceOracles:
    @pytest.mark.parametrize("k", range(2, 10))
    def test_mod_4(self, k):
        # pk-bar(n) = 2 ([n is a square] + [n is k times a square])  (mod 4)
        order = CONGRUENCE_ORDER
        t = signed_squares(order)
        table = pk_series(k, order)
        bad = [
            n
            for n in range(1, order + 1)
            if (table[n] - 2 * (t[n] != 0) - 2 * (n % k == 0 and t[n // k] != 0)) % 4
        ]
        assert bad == []

    @pytest.mark.parametrize("k", range(2, 10))
    def test_mod_8(self, k):
        # pk-bar(n) = [n = 0] - 2T(n) + 4T2(n) + 2T(n/k) - 4U(n)  (mod 8)
        order = CONGRUENCE_ORDER
        t = signed_squares(order)
        t2 = signed_two_square_sums(order, 1)
        u = signed_two_square_sums(order, k)
        table = pk_series(k, order)
        bad = [
            n
            for n in range(order + 1)
            if (
                table[n]
                - (n == 0)
                + 2 * t[n]
                - 4 * t2[n]
                - 2 * (t[n // k] if n % k == 0 else 0)
                + 4 * u[n]
            )
            % 8
        ]
        assert bad == []
