"""Test oracle: the Delta invariants of an eta quotient, Chern's truncated
asymptotic expansion and the two-sided I1 bound, the validation tools the
certificates do not run.

:func:`invariants` computes Delta1, Delta2, Delta3(l) and Delta4(l)^2 of any
``EtaQuotientSpec`` (``qseries_oracle``); the package uses only their closed
forms for the k-regular quotient, in ``chern.main_term``, ``numerics.mu``
and ``inequalities._q_rows``, and the tests check each against them.  The
expansion sums the Bessel terms of every positive residue class l
(Delta3(l) > 0) over the exponential sums A-hat with exact rational
Dedekind-sum phases, so it checks the invariants against the exact counts.
The I1 bracket e^s / sqrt(2 pi s) (E_I(s) -/+ 31/s^6) checks
``numerics.bessel_i1``.  Both evaluate in
:class:`regover.numerics.Interval`; only ``a_hat``'s cos and sin load mpmath.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from regover.chern import ChernError
from regover.numerics import (
    DEFAULT_PRECISION,
    Interval,
    NumericsError,
    bessel_i1,
    dedekind_sum,
    pi,
)

from qseries_oracle import EtaQuotientSpec


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


def positive_classes(inv: ChernInvariants) -> list[int]:
    """The residue classes l with Delta3(l) > 0, the terms of the expansion."""
    return sorted(l for l, d3 in inv.delta3.items() if d3 > 0)


def delta4(inv: ChernInvariants, l: int, precision=DEFAULT_PRECISION) -> Interval:
    """Outward-rounded enclosure of Delta4(l), the root of its exact square."""
    return Interval.from_exact(inv.delta4_sq[l], precision).sqrt()


def check_admissibility(spec):
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


def _a_hat_phases(kk, n, spec):
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


def a_hat(kk, n, spec, precision=DEFAULT_PRECISION) -> Interval:
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
    if not imag.lo <= 0 <= imag.hi:
        raise ChernError(
            f"imaginary part of A-hat_{kk}({n}) does not enclose 0: {imag!r}"
        )
    return real


def truncated_expansion(spec, n, N, precision=DEFAULT_PRECISION) -> Interval:
    """The truncated asymptotic sum without its error term.

    Valid only for Delta1 = 0 specs (checked).  Not a certified bracket --
    the caller chooses the truncation N; the source derivation uses
    N = floor(mu).
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
    for l in positive_classes(inv):
        d3 = inv.delta3[l]
        prefactor = 2 * p * delta4(inv, l, precision) * (d3 / base).sqrt()
        inner = Interval.from_exact(0, precision)
        for kk in range(1, N):
            if kk % inv.L != l % inv.L:
                continue
            arg = p / (6 * kk) * (base * d3).sqrt()
            inner = inner + bessel_i1(arg) * a_hat(kk, n, spec, precision) / kk
        total = total + prefactor * inner
    return total


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
