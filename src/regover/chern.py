"""Asymptotic machinery for eta-quotient coefficients.

Computes the Delta invariants of an eta quotient, the Bessel main term
C_k(n) I1(mu_k), the printed closed-form remainder bounds, and the resulting
certified two-sided brackets for the k-regular overpartition counts.  Every
bracket verdict, including the ``inside`` column of :func:`estimate`, is
decided by :func:`regover.numerics.certify`.

The certificates rest on one term of the asymptotic: the main term's
leading coefficient, computed from the invariants, with the printed
remainder table and its corollary bracket.  Only the Delta1 = 0 branch of
the asymptotic is used; every k-regular spec has Delta1 = 0 and Delta2 = 0,
which the tests check rather than assume.  The full truncated expansion over
the Kloosterman-type sums A-hat, which checks the invariants against the
exact counts, is a test oracle (``tests/expansion_oracle.py``), not part of
the package.
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
    values.
    """

    delta1: Fraction
    delta2: int
    delta3: Mapping[int, Fraction]
    delta4_sq: Mapping[int, Fraction]
    L: int


def invariants(spec: EtaQuotientSpec) -> ChernInvariants:
    """Compute Delta1, Delta2, Delta3(l), the squares of Delta4(l), and L."""
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
    return ChernInvariants(
        delta1, delta2, MappingProxyType(delta3), MappingProxyType(delta4_sq), L
    )


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
    if k not in _R_TABLE:
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


def main_term(k: int, n: int, precision: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of the true Bessel main term C_k(n) * I1(mu_k(n)).

    The constant is 2 pi sqrt(Delta4(1)^2 Delta3(1) / (24 n + Delta2)),
    the leading (kk = 1) coefficient of the verified expansion.  The
    paper's printed closed-form constants are this one times the number of
    positive residue classes, an erratum that ``tests/test_chern.py``
    (``TestMainTerm``) checks against the printed table.
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
    """Certified bracket data for one (k, n), serializable for reports.

    :meth:`to_row` prints the bracket as M and R' and its relative width
    2R'/M, which is (upper - lower)/M for the bracket M -/+ R' without
    subtracting M from itself.  Below the validity threshold the R',
    ``inside`` and width cells are "n/a".
    """

    k: int
    n: int
    mu: Interval
    main: Interval
    remainder: Optional[Interval]
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
            "rel_width": (
                "n/a"
                if self.remainder is None
                else (2 * self.remainder / self.main).to_string()
            ),
        }


def estimate(k: int, n: int, precision: int = DEFAULT_PRECISION) -> AsymptoticEstimate:
    """Bracket p_k-bar(n); ``remainder`` and ``inside`` are None below the
    threshold.

    ``inside`` is the certified verdict of :func:`verify_bracket`, whose
    first round reuses the bracket computed here.  The reported intervals
    are those at ``precision``; 96 bits already print the row that 768 do
    (``tests/test_chern.py`` samples k = 2..9 up to n = 50 000).
    """
    _check_k(k)
    m = mu(k, n, precision).value
    exact = pk(k, n)
    if m.lo < N_K[k]:
        main = main_term(k, n, precision)
        return AsymptoticEstimate(k, n, m, main, None, exact, None)
    main, remainder, lower, upper = _theorem_bracket(k, n, precision)

    def bounds(prec):
        # the first round reuses the reported bracket
        if prec == precision:
            return lower, upper
        return _theorem_bracket(k, n, prec)[2:]

    inside = certify(exact, bounds, precision, f"bracket comparison for k={k}, n={n}")
    return AsymptoticEstimate(k, n, m, main, remainder, exact, inside)


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

