"""Asymptotic machinery for the k-regular overpartition counts.

Computes the Bessel main term C_k(n) I1(mu_k), the printed closed-form
remainder bounds, and the resulting certified two-sided brackets for the
k-regular overpartition counts.  Every bracket verdict, including the
``inside`` column of :func:`estimate`, is decided by
:func:`regover.numerics.certify`.

The certificates rest on one term of Chern's asymptotic for the eta
quotient (q^k;q^k)^2 (q^2;q^2) / ((q;q)^2 (q^{2k};q^{2k})): the main term's
leading coefficient, with the printed remainder table and its corollary
bracket.  That quotient has Delta1 = 0, Delta2 = 0, Delta3(1) = 3 (k-1) /
(2k) and Delta4(1)^2 = 1/k, so the coefficient is taken in closed form,
pi sqrt(k-1) / (2k sqrt(n)).  The Delta invariants of a general eta
quotient, and the full truncated expansion over the Kloosterman-type sums
A-hat that checks them against the exact counts, are test oracles
(``tests/expansion_oracle.py``), and the tests check each closed form here
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .numerics import (
    DEFAULT_PRECISION,
    Interval,
    bessel_i1,
    certify,
    mu,
    pi,
)
from .qseries import pk


class ChernError(ValueError):
    """Raised on domain violations in the asymptotic machinery."""


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
    # floor(lo) < threshold iff lo < threshold, for an integer threshold
    if m.scaled(0)[0] < threshold:
        raise ChernError(
            f"mu_{k}({n}) = {m.to_string(8)} below validity threshold {threshold}"
        )
    return m


def main_term(k: int, n: int, precision: int = DEFAULT_PRECISION) -> Interval:
    """Enclosure of the true Bessel main term C_k(n) * I1(mu_k(n)).

    The constant is 2 pi sqrt(Delta4(1)^2 Delta3(1) / (24 n + Delta2)), the
    leading (kk = 1) coefficient of the verified expansion, which with
    Delta4(1)^2 = 1/k, Delta3(1) = 3 (k-1) / (2k) and Delta2 = 0 is
    2 pi sqrt((k-1) / (16 k^2 n)) = pi sqrt(k-1) / (2k sqrt(n));
    ``tests/test_chern.py`` checks the closed form against the invariants.
    The paper's printed closed-form constants are this one times the number
    of positive residue classes, an erratum that ``TestMainTerm`` checks
    against the printed table.
    """
    _check_k(k)
    if n < 1:
        raise ChernError(f"n must be >= 1, got {n}")
    m = mu(k, n, precision).value
    inner = Fraction(k - 1, 16 * k * k * n)
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
    if m.scaled(0)[0] < N_K[k]:
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

