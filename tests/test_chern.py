"""Invariants, certified asymptotic brackets, and the expansion oracle's
exponential sums and truncated sum."""

import cmath
import math
from fractions import Fraction

import pytest

from regover import chern
from regover.chern import (
    ChernError,
    N_K,
    NDOT_K,
    estimate,
    main_term,
    pk_bounds,
    remainder_bound,
    verify_bracket,
    verify_corollary_bracket,
)
from regover.numerics import (
    Interval,
    PrecisionExhausted,
    bessel_i1,
    dedekind_sum,
    mu,
    pi,
)
from regover.qseries import pk

from expansion_oracle import (
    a_hat,
    check_admissibility,
    delta4,
    invariants,
    positive_classes,
    truncated_expansion,
)
from qseries_oracle import EtaQuotientSpec, build_spec

KS = list(range(2, 10))


class TestInvariants:
    def test_k2_published_table(self):
        inv = invariants(build_spec(2))
        assert inv.delta1 == 0 and inv.delta2 == 0
        assert inv.L == 4
        assert [inv.delta3[l] for l in (1, 2, 3, 4)] == [
            Fraction(3, 4),
            -3,
            Fraction(3, 4),
            0,
        ]
        # Delta4 = (sqrt2/2, sqrt2, sqrt2/2, 1): check the exact squares
        assert [inv.delta4_sq[l] for l in (1, 2, 3, 4)] == [
            Fraction(1, 2),
            2,
            Fraction(1, 2),
            1,
        ]
        assert positive_classes(inv) == [1, 3]

    def test_k3_delta3_one(self):
        assert invariants(build_spec(3)).delta3[1] == 1

    @pytest.mark.parametrize("k", KS)
    def test_delta1_delta2_vanish(self, k):
        inv = invariants(build_spec(k))
        assert inv.delta1 == 0
        assert inv.delta2 == 0
        # at l = L every gcd equals m_r, so Delta3(L) = -sum(delta_r m_r)
        assert inv.delta3[inv.L] == -inv.delta2

    @pytest.mark.parametrize("k", KS)
    def test_delta4_positive(self, k):
        inv = invariants(build_spec(k))
        for l in range(1, inv.L + 1):
            assert inv.delta4_sq[l] > 0
            assert delta4(inv, l).lo > 0


class TestAdmissibility:
    @pytest.mark.parametrize("k", KS)
    def test_build_specs_admissible(self, k):
        assert check_admissibility(build_spec(k)) == (True, None)

    def test_adversarial_fails(self):
        ok, witness = check_admissibility(EtaQuotientSpec(((1, -48),)))
        assert not ok and witness == 1


class TestAHat:
    def test_kk_one_is_exact_one(self):
        v = a_hat(1, 7, build_spec(2))
        assert v.lo == 1 and v.hi == 1

    @pytest.mark.parametrize("kk,n", [(3, 5), (5, 7), (7, 11), (9, 4), (4, 6)])
    def test_matches_complex_oracle(self, kk, n):
        spec = build_spec(2)
        total = 0j
        for h in range(kk):
            if math.gcd(h, kk) != 1:
                continue
            phase = -2 * math.pi * n * h / kk
            for m, d in spec.factors:
                g = math.gcd(m, kk)
                phase -= math.pi * d * float(
                    dedekind_sum(m * h // g, kk // g)
                )
            total += cmath.exp(1j * phase)
        v = a_hat(kk, n, spec)
        assert abs(float(v.lo) - total.real) < 1e-9
        assert abs(total.imag) < 1e-9

    def test_modulus_bound_on_grid(self):
        spec = build_spec(3)
        for kk in range(1, 12):
            for n in (0, 1, 9, 25):
                v = a_hat(kk, n, spec)
                assert -kk <= float(v.lo) and float(v.hi) <= kk + 1e-12


class TestMainTerm:
    # positive residue classes per k; the paper's printed closed-form
    # constants are exactly this factor times the true leading coefficient
    COUNTS = {2: 2, 3: 2, 4: 4, 5: 4, 6: 4, 7: 6, 8: 8, 9: 6}
    # the printed main-term constants coeff * sqrt(rad) * pi^2 / mu_k(n),
    # as (coeff, rad)
    PRINTED = {
        2: (Fraction(1, 8), 8),
        3: (Fraction(2, 9), 3),
        4: (Fraction(3, 4), 1),
        5: (Fraction(8, 25), 5),
        6: (Fraction(5, 18), 6),
        7: (Fraction(18, 49), 7),
        8: (Fraction(7, 8), 2),
        9: (Fraction(8, 9), 1),
    }

    @pytest.mark.parametrize("k", KS)
    def test_class_count(self, k):
        # Delta3 and Delta4 are constant across the positive classes, which
        # is what lets one constant be pulled out of the expansion
        inv = invariants(build_spec(k))
        l_pos = positive_classes(inv)
        assert len(l_pos) == self.COUNTS[k]
        assert len({inv.delta3[l] for l in l_pos}) == 1
        assert len({inv.delta4_sq[l] for l in l_pos}) == 1

    @pytest.mark.parametrize("k", KS)
    def test_printed_constant_is_class_count_multiple(self, k):
        # the erratum main_term corrects: the printed constant is the true
        # one times the number of positive classes
        n = 777
        coeff, rad = self.PRINTED[k]
        printed = (
            coeff * Interval.from_exact(rad).sqrt() * pi(192).pow_int(2)
            / mu(k, n).value
        )
        inv = invariants(build_spec(k))
        true = 2 * pi(192) * Interval.from_exact(
            inv.delta4_sq[1] * inv.delta3[1] / Fraction(24 * n)
        ).sqrt()
        ratio = printed / true
        assert ratio.lo <= self.COUNTS[k] <= ratio.hi, (float(ratio.lo), float(ratio.hi))

    GRID = [1, 7, 600, 1500, 5000, 50000]

    @staticmethod
    def invariant_inner(k, n):
        """Delta4(1)^2 Delta3(1) / (24 n + Delta2) from the invariants."""
        inv = invariants(build_spec(k))
        return inv.delta4_sq[1] * inv.delta3[1] / (24 * n + inv.delta2)

    @pytest.mark.parametrize("k", KS)
    def test_closed_form_is_the_invariant_form(self, k):
        # main_term's (k-1)/(16 k^2 n) is the same Fraction
        for n in self.GRID:
            assert Fraction(k - 1, 16 * k * k * n) == self.invariant_inner(k, n)

    @pytest.mark.parametrize("bits", [96, 192, 768])
    def test_enclosure_is_the_invariant_form(self, bits):
        # the same inner Fraction gives the same enclosure, endpoint for endpoint
        for k in KS:
            for n in self.GRID:
                inner = Interval.from_exact(self.invariant_inner(k, n), bits)
                ref = 2 * pi(bits) * inner.sqrt() * bessel_i1(mu(k, n, bits).value)
                assert main_term(k, n, bits)._val == ref._val, (k, n)

    def test_relative_error_at_1000(self):
        exact = pk(2, 1000)
        mt = main_term(2, 1000)
        assert abs(float(mt.lo) / exact - 1) < 1e-3

    @pytest.mark.parametrize("k", KS)
    def test_main_term_tracks_exact(self, k):
        n = 900
        assert abs(float(main_term(k, n).lo) / pk(k, n) - 1) < 1e-2

    def test_rejects_bad_k(self):
        with pytest.raises(ChernError):
            main_term(10, 100)
        with pytest.raises(ChernError):
            main_term(1, 100)


class TestRemainderBound:
    def test_below_threshold_names_it(self):
        with pytest.raises(ChernError, match="22"):
            remainder_bound(2, 5)

    def test_thresholds_table(self):
        assert [N_K[k] for k in KS] == [22, 49, 41, 58, 130, 102, 129, 268]
        assert [NDOT_K[k] for k in KS] == [43, 49, 43, 58, 130, 102, 129, 268]

    @pytest.mark.parametrize("k", KS)
    def test_thresholds_decided_at_the_first_valid_n(self, k):
        # the guards compare floor(mu.lo) with the integer threshold; the
        # exact lower end decides the first valid n here
        def first_valid(threshold):
            n = math.ceil(threshold**2 * k / (math.pi**2 * (k - 1)))
            while mu(k, n).value.lo >= threshold:
                n -= 1
            while mu(k, n).value.lo < threshold:
                n += 1
            return n

        for thresholds, bounds in ((N_K, remainder_bound), (NDOT_K, pk_bounds)):
            n = first_valid(thresholds[k])
            bounds(k, n)
            with pytest.raises(ChernError, match="below validity threshold"):
                bounds(k, n - 1)
        n = first_valid(N_K[k])
        assert estimate(k, n).remainder is not None
        assert estimate(k, n - 1).remainder is None

    def test_exponential_rates(self):
        # k=2 grows like exp(mu/3), k=3 like exp(mu/5): check by ratios
        import math as _m

        for k, rate in ((2, 3), (3, 5)):
            n1, n2 = 1000, 4000
            r1 = float(remainder_bound(k, n1).lo)
            r2 = float(remainder_bound(k, n2).lo)
            m1 = float(mu(k, n1).value.lo)
            m2 = float(mu(k, n2).value.lo)
            observed = _m.log(r2 / r1)
            predicted = (m2 - m1) / rate + 0.5 * _m.log(m1 / m2)
            assert observed == pytest.approx(predicted, rel=1e-9)


class TestBrackets:
    # (9, 13000): M / R' is about 2^377; 384 bits cannot separate it, 768 can
    @pytest.mark.parametrize(
        "k,n", [(2, 99), (2, 1000), (3, 400), (4, 300), (5, 500), (7, 1300), (9, 13000)]
    )
    def test_theorem_bracket_contains_exact(self, k, n):
        assert verify_bracket(k, n)

    @pytest.mark.parametrize("k,n", [(2, 375), (2, 2500), (3, 400), (4, 250)])
    def test_corollary_bracket_contains_exact(self, k, n):
        assert verify_corollary_bracket(k, n)

    @pytest.mark.parametrize("n", [375, 600, 1500])
    def test_theorem_bracket_nested_in_corollary(self, n):
        # the corollary derivation is exactly R'/M <= mu^-6, so its bracket
        # contains the theorem bracket wherever both apply (no crossover)
        k = 2
        lo_c, hi_c = pk_bounds(k, n)
        m = main_term(k, n)
        rb = remainder_bound(k, n)
        assert lo_c.lo <= (m - rb).lo and (m + rb).hi <= hi_c.hi

    def test_bracket_relative_width(self):
        k, n = 2, 2000
        lo, hi = pk_bounds(k, n)
        m6 = mu(k, n).value.pow_int(6)
        rel = (hi - lo) / main_term(k, n)
        assert rel.hi <= float(2 / m6.lo) * 1.001

    def test_below_threshold_rejected(self):
        with pytest.raises(ChernError):
            pk_bounds(2, 100)  # mu ~ 22 < 43

    def test_touching_endpoint_is_not_a_certificate(self, monkeypatch):
        # main - R' = [exact, exact] touches the count at every precision
        exact = pk(2, 1000)
        monkeypatch.setattr(
            chern, "main_term", lambda k, n, prec: Interval.from_exact(exact + 1, prec)
        )
        monkeypatch.setattr(
            chern, "remainder_bound", lambda k, n, prec: Interval.from_exact(1, prec)
        )
        with pytest.raises(PrecisionExhausted, match="k=2, n=1000"):
            verify_bracket(2, 1000)


class TestEstimate:
    def test_row_fields(self):
        est = estimate(2, 1000)
        row = est.to_row()
        assert row["k"] == 2 and row["n"] == 1000
        assert row["inside"] == "true"
        assert row["exact"] == str(pk(2, 1000))
        assert row["mu"].startswith("[")
        assert "e" in row["main_lo"] or "." in row["main_lo"]

    def test_below_threshold_flagged(self):
        est = estimate(2, 10)
        assert est.remainder is None and est.inside is None
        row = est.to_row()
        assert row["rprime_hi"] == row["rel_width"] == "n/a"

    @pytest.mark.parametrize("n", [5000, 9000, 20000, 50000])
    def test_rel_width_is_tight_and_positive(self, n):
        # (upper - lower)/main would straddle 0 here at 192 bits, since main
        # does not cancel in interval arithmetic.  2R'/M has a positive lower
        # end and a 20-digit width, and encloses 2R'/M taken at 768 bits.
        # mu_9(5000) ~ 209 lies below N_K[9] = 268: k = 9 has no width there
        for k in KS if n > 5000 else KS[:-1]:
            cell = estimate(k, n).to_row()["rel_width"]
            lo, hi = (Fraction(end) for end in cell[1:-1].split(","))
            ref = 2 * remainder_bound(k, n, 768) / main_term(k, n, 768)
            assert 0 < lo <= ref.lo and ref.hi <= hi, (k, cell)
            assert hi - lo < lo / 10**18, (k, cell)

    @pytest.mark.parametrize(
        "k, n", [(2, 1000), (3, 5000), (6, 9000), (9, 20000), (2, 50000), (7, 50000)]
    )
    def test_row_is_the_same_from_96_bits(self, k, n):
        rows = [estimate(k, n, bits).to_row() for bits in (96, 192, 384, 768)]
        assert rows[0]["rel_width"] != "n/a"
        assert all(row == rows[0] for row in rows[1:])

    def test_json(self):
        import json

        data = json.loads(json.dumps(estimate(3, 500).to_row()))
        assert data["inside"] == "true"

    def test_overlap_is_not_inside(self, monkeypatch):
        # R' = [0, 2 exact] makes main -/+ R' overlap the count on both sides
        exact = pk(2, 1000)
        monkeypatch.setattr(
            chern,
            "remainder_bound",
            lambda k, n, prec: Interval.from_endpoints(0, 2 * exact, prec),
        )
        with pytest.raises(PrecisionExhausted, match="k=2, n=1000"):
            estimate(2, 1000)


class TestTruncatedExpansion:
    def test_reproduces_exact_count(self):
        # truncated at N = floor(mu), the sum's enclosure lies within 1/2 of
        # the exact count at every k, which checks every k's invariants
        half = Fraction(1, 2)
        for k in KS:
            for n in (100, 200):
                m = mu(k, n).value
                N = math.floor(m.lo)
                assert math.floor(m.hi) == N
                out = truncated_expansion(build_spec(k), n, N)
                exact = pk(k, n)
                assert exact - half < out.lo and out.hi < exact + half, (k, n)

    def test_rejects_nonzero_delta1(self):
        with pytest.raises(ChernError):
            truncated_expansion(EtaQuotientSpec(((1, -1),)), 10, 5)
