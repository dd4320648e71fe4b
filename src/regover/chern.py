"""Asymptotic machinery for eta-quotient coefficients.

Computes the four Delta invariants of an eta quotient, the admissibility
condition of the coefficient asymptotic, the exponential sums A-hat with
exact rational Dedekind-sum phases, the Bessel main term C_k(n) I1(mu_k),
the printed closed-form remainder bounds, and the resulting certified
two-sided brackets for the k-regular overpartition counts.  Every bracket
verdict, including the ``inside`` column of :func:`estimate`, is decided by
:func:`regover.numerics.certify`.

Only the Delta1 = 0 branch of the asymptotic is supported; every spec used
here has Delta1 = 0 and Delta2 = 0, which is asserted rather than assumed.
The full truncated expansion over the Kloosterman-type sums is implemented
for validation experiments (the truncation cutoff N is a caller-chosen
parameter; the source derivation takes N = floor(mu)), while certified
brackets rely exclusively on the printed main-term/remainder tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Mapping, Optional

from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    bessel_i1,
    certify,
    dedekind_sum,
    mu,
    pi,
)
from .qseries import EtaQuotientSpec, build_spec, pk


class ChernError(ValueError):
    """Raised on domain violations in the asymptotic machinery."""


@dataclass(frozen=True)
class ChernInvariants:
    """The Delta invariants of an eta quotient.

    delta4_sq holds the exact rational squares of the algebraic Delta4
    values; delta4() returns an outward-rounded enclosure.
    """

    delta1: Fraction
    delta2: int
    delta3: Mapping[int, Fraction]
    delta4_sq: Mapping[int, Fraction]
    L: int
    l_pos: frozenset

    def delta4(self, l: int, precision: int = DEFAULT_PRECISION) -> Interval:
        return Interval.from_exact(self.delta4_sq[l], precision).sqrt()


def invariants(spec: EtaQuotientSpec) -> ChernInvariants:
    """Compute Delta1, Delta2, Delta3(l), Delta4(l), L and the positive set."""
    factors = spec.factors
    delta1 = -Fraction(sum(d for _, d in factors), 2)
    delta2 = sum(m * d for m, d in factors)
    L = math.lcm(*(m for m, _ in factors))
    delta3 = {}
    delta4_sq = {}
    for l in range(1, L + 1):
        d3 = Fraction(0)
        d4sq = Fraction(1)
        for m, d in factors:
            g = math.gcd(m, l)
            d3 -= Fraction(d * g * g, m)
            d4sq *= Fraction(m, g) ** (-d)
        delta3[l] = d3
        delta4_sq[l] = d4sq
    l_pos = frozenset(l for l, v in delta3.items() if v > 0)
    return ChernInvariants(
        delta1,
        delta2,
        MappingProxyType(delta3),
        MappingProxyType(delta4_sq),
        L,
        l_pos,
    )


def check_admissibility(spec: EtaQuotientSpec) -> tuple[bool, Optional[int]]:
    """Check min_r gcd^2(m_r, l)/m_r >= Delta3(l)/24 for all 1 <= l <= L.

    Returns (True, None) on success or (False, witness l) on the first
    failing l.  Exact rational arithmetic throughout.
    """
    inv = invariants(spec)
    for l in range(1, inv.L + 1):
        smallest = min(
            Fraction(math.gcd(m, l) ** 2, m) for m, _ in spec.factors
        )
        if smallest < inv.delta3[l] / 24:
            return False, l
    return True, None


def _a_hat_phases(kk: int, n: int, spec: EtaQuotientSpec) -> list[Fraction]:
    """Exact phases t_h (in units of pi) of the summands exp(i pi t_h)."""
    phases = []
    for h in range(kk):
        if math.gcd(h, kk) != 1:
            continue
        t = Fraction(-2 * n * h, kk)
        for m, d in spec.factors:
            g = math.gcd(m, kk)
            t -= d * dedekind_sum(m * h // g, kk // g)
        # reduce mod 2 to keep the trig argument small
        t -= 2 * (t.numerator // (2 * t.denominator))
        phases.append(t)
    return phases


def a_hat(
    kk: int, n: int, spec: EtaQuotientSpec, precision: int = DEFAULT_PRECISION
) -> Interval:
    """Enclosure of the exponential sum A-hat_kk(n).

    The sum is real for the specs in scope (summands come in conjugate
    pairs); the imaginary part is evaluated anyway and must enclose 0.
    Satisfies |A-hat_kk(n)| <= kk.
    """
    if kk < 1:
        raise ChernError(f"kk must be >= 1, got {kk}")
    if kk == 1:
        return Interval.from_exact(1, precision)
    p = pi(precision)
    real = Interval.from_exact(0, precision)
    imag = Interval.from_exact(0, precision)
    for t in _a_hat_phases(kk, n, spec):
        arg = p * t
        real = real + arg.cos()
        imag = imag + arg.sin()
    if not imag.contains(0):
        raise ChernError(
            f"imaginary part of A-hat_{kk}({n}) does not enclose 0: {imag!r}"
        )
    return real


# Printed main-term constants: coeff * sqrt(rad) * pi^2 / mu_k.  NOTE:
# these published closed forms are exactly class_count(k) times the true
# leading coefficient of the verified expansion (the factor arises from
# erroneously multiplying the pulled-out per-class constant by the number
# of contributing residue classes).  main_term() uses the true constant,
# computed from the invariants; the printed values are retained for
# documentation and cross-checks via printed_main_constant().
_C_TABLE: dict[int, tuple[Fraction, int]] = {
    2: (Fraction(1, 8), 8),
    3: (Fraction(2, 9), 3),
    4: (Fraction(3, 4), 1),
    5: (Fraction(8, 25), 5),
    6: (Fraction(5, 18), 6),
    7: (Fraction(18, 49), 7),
    8: (Fraction(7, 8), 2),
    9: (Fraction(8, 9), 1),
}

# Remainder bounds: R'_k(n) = coeff * sqrt(rad) * pi^(3/2) / sqrt(mu_k)
#                             * exp(mu_k / rate)
_R_TABLE: dict[int, tuple[Fraction, int, int]] = {
    2: (Fraction(1, 2), 3, 3),
    3: (Fraction(4, 27), 30, 5),
    4: (Fraction(3, 4), 6, 3),
    5: (Fraction(32, 125), 30, 3),
    6: (Fraction(10, 27), 15, 5),
    7: (Fraction(108, 343), 42, 3),
    8: (Fraction(7, 4), 3, 3),
    9: (Fraction(16, 27), 10, 5),
}

# validity thresholds in mu-units: bracket needs mu_k(n) >= N_K[k],
# the tightened corollary bracket needs mu_k(n) >= NDOT_K[k]
N_K = {2: 22, 3: 49, 4: 41, 5: 58, 6: 130, 7: 102, 8: 129, 9: 268}
NDOT_K = {2: 43, 3: 49, 4: 43, 5: 58, 6: 130, 7: 102, 8: 129, 9: 268}


def _check_k(k: int) -> None:
    if k not in _C_TABLE:
        raise ChernError(f"asymptotic constants available for k in 2..9, got {k}")


def _require_mu(k: int, n: int, threshold: int, precision: int) -> Interval:
    m = mu(k, n, precision).value
    if m.lo < threshold:
        raise ChernError(
            f"mu_{k}({n}) = {m.to_string(8)} below validity threshold {threshold}"
        )
    return m


@cache
def _invariants_for_k(k: int) -> ChernInvariants:
    return invariants(build_spec(k))


def class_count(k: int) -> int:
    """Number of contributing residue classes; requires them homogeneous.

    All eight specs have Delta3 and Delta4 constant across the positive
    classes, which is what lets a single constant be pulled out of the
    expansion; this is verified, not assumed.
    """
    _check_k(k)
    inv = _invariants_for_k(k)
    d3 = {inv.delta3[l] for l in inv.l_pos}
    d4 = {inv.delta4_sq[l] for l in inv.l_pos}
    if len(d3) != 1 or len(d4) != 1:
        raise ChernError(f"inhomogeneous positive classes for k={k}")
    return len(inv.l_pos)


def printed_main_constant(
    k: int, n: int, precision: int = DEFAULT_PRECISION
) -> Interval:
    """The published closed-form constant (class_count times the true one)."""
    _check_k(k)
    if n < 1:
        raise ChernError(f"n must be >= 1, got {n}")
    m = mu(k, n, precision).value
    coeff, rad = _C_TABLE[k]
    return coeff * Interval.from_exact(rad, precision).sqrt() * pi(
        precision
    ).pow_int(2) / m


def main_term(k: int, n: int, precision: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of the true Bessel main term C_k(n) * I1(mu_k(n)).

    The constant is 2 pi sqrt(Delta4(1)^2 Delta3(1) / (24 n + Delta2)),
    the leading (kk = 1) coefficient of the verified expansion.
    """
    _check_k(k)
    if n < 1:
        raise ChernError(f"n must be >= 1, got {n}")
    inv = _invariants_for_k(k)
    m = mu(k, n, precision).value
    inner = inv.delta4_sq[1] * inv.delta3[1] / (24 * n + inv.delta2)
    c = 2 * pi(precision) * Interval.from_exact(inner, precision).sqrt()
    return c * bessel_i1(m)


def remainder_bound(k: int, n: int, precision: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of the printed remainder bound R'_k(n); needs mu_k >= N_K[k]."""
    _check_k(k)
    m = _require_mu(k, n, N_K[k], precision)
    coeff, rad, rate = _R_TABLE[k]
    p = pi(precision)
    front = coeff * Interval.from_exact(rad, precision).sqrt()
    return front * p * p.sqrt() / m.sqrt() * (m / rate).exp()


def pk_bounds(
    k: int, n: int, precision: int = DEFAULT_PRECISION
) -> tuple[Interval, Interval]:
    """Tightened corollary bracket M_k(n) * (1 -/+ 1/mu_k^6)."""
    _check_k(k)
    m = _require_mu(k, n, NDOT_K[k], precision)
    main = main_term(k, n, precision)
    wiggle = 1 / m.pow_int(6)
    return main * (1 - wiggle), main * (1 + wiggle)


def _theorem_bracket(
    k: int, n: int, precision: int
) -> tuple[Interval, Interval, Interval, Interval]:
    """Main term M, remainder bound R' and the theorem bracket M -/+ R'."""
    main = main_term(k, n, precision)
    rb = remainder_bound(k, n, precision)
    return main, rb, main - rb, main + rb


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Certified bracket data for one (k, n), serializable for reports."""

    k: int
    n: int
    mu: Interval
    main: Interval
    remainder: Optional[Interval]
    lower: Optional[Interval]
    upper: Optional[Interval]
    exact: int
    inside: Optional[bool]

    def to_row(self) -> dict:
        main_lo, main_hi = self.main.to_string()[1:-1].split(",")
        rprime_hi = (
            "n/a"
            if self.remainder is None
            else self.remainder.to_string()[1:-1].split(",")[1]
        )
        return {
            "k": self.k,
            "n": self.n,
            "mu": self.mu.to_string(),
            "main_lo": main_lo,
            "main_hi": main_hi,
            "rprime_hi": rprime_hi,
            "exact": str(self.exact),
            "inside": "n/a" if self.inside is None else str(self.inside).lower(),
        }


def estimate(k: int, n: int, precision: int = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """Bracket p_k-bar(n); remainder fields are None below the threshold.

    ``inside`` is the certified verdict of :func:`verify_bracket`; the
    reported intervals stay at the requested precision.
    """
    _check_k(k)
    m = mu(k, n, precision).value
    exact = pk(k, n)
    if m.lo < N_K[k]:
        main = main_term(k, n, precision)
        return AsymptoticEstimate(k, n, m, main, None, None, None, exact, None)
    main, remainder, lower, upper = _theorem_bracket(k, n, precision)

    def bounds(prec):
        # the first round reuses the reported bracket
        if prec == precision:
            return lower, upper
        return _theorem_bracket(k, n, prec)[2:]

    inside = certify(exact, bounds, precision, f"bracket comparison for k={k}, n={n}")
    return AsymptoticEstimate(k, n, m, main, remainder, lower, upper, exact, inside)


def verify_bracket(k: int, n: int, precision: Optional[int] = None) -> bool:
    """Definitely p_k-bar(n) in (main - R', main + R') (theorem bracket)."""
    return certify(
        pk(k, n),
        lambda prec: _theorem_bracket(k, n, prec)[2:],
        precision,
        f"bracket comparison for k={k}, n={n}",
    )


def verify_corollary_bracket(k: int, n: int, precision: Optional[int] = None) -> bool:
    """Definitely p_k-bar(n) in M_k(n) * (1 - mu^-6, 1 + mu^-6)."""
    return certify(
        pk(k, n),
        lambda prec: pk_bounds(k, n, prec),
        precision,
        f"corollary bracket comparison for k={k}, n={n}",
    )


def truncated_expansion(
    spec: EtaQuotientSpec,
    n: int,
    N: int,
    precision: int = DEFAULT_PRECISION,
) -> Interval:
    """Experimental: the truncated asymptotic sum without its error term.

    Valid only for Delta1 = 0 specs (checked).  Not a certified bracket --
    the caller chooses the truncation N; the source derivation uses
    N = floor(mu).  Useful to validate a_hat and the invariant plumbing
    against exact coefficients.
    """
    inv = invariants(spec)
    if inv.delta1 != 0:
        raise ChernError(f"only Delta1 = 0 supported, got {inv.delta1}")
    ok, witness = check_admissibility(spec)
    if not ok:
        raise ChernError(f"spec fails admissibility at l = {witness}")
    if 24 * n + inv.delta2 <= 0:
        raise ChernError(f"need 24n + Delta2 > 0, got {24 * n + inv.delta2}")
    p = pi(precision)
    total = Interval.from_exact(0, precision)
    base = Interval.from_exact(24 * n + inv.delta2, precision)
    for l in sorted(inv.l_pos):
        d3 = inv.delta3[l]
        prefactor = 2 * p * inv.delta4(l, precision) * (d3 / base).sqrt()
        inner = Interval.from_exact(0, precision)
        for kk in range(1, N):
            if kk % inv.L != l % inv.L:
                continue
            arg = p / (6 * kk) * (base * d3).sqrt()
            inner = inner + bessel_i1(arg) * a_hat(kk, n, spec, precision) / kk
        total = total + prefactor * inner
    return total
