"""Exact inequality verification and certified Q-ratio bounds.

Log-subadditivity (from the table's own log-concavity), log-concavity, and
the third-order Turan inequality are decided by exact big-integer
comparisons, and need neither mpmath nor :mod:`regover.numerics`.  The
two-sided bounds on the ratio Q_k(n) = p(n-1) p(n+1) / p(n)^2 are the
printed polynomials in t = 1/mu_k(n), evaluated in fixed-point Python
integers at scale 2^(P + 32): t is taken from the endpoints of
:func:`regover.numerics.mu`, pi^4 and pi^8 from those of
:func:`regover.numerics.pi`, and every product and quotient is rounded in
the direction that keeps its enclosure, so the resulting rationals are
proven bounds.  The verdict is :func:`regover.numerics.certify`'s, so only
the Q path loads :mod:`regover.numerics`.  A threshold scanner reports
observed minimal thresholds next to the published ones rather than assuming
the published values are tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .precision import DEFAULT_PRECISION
from .qseries import pk, pk_series


class InequalityError(ValueError):
    """Raised on contract violations in inequality checks."""


PROPERTIES = ("logconcave", "turan3", "subadd")

# published validity thresholds for log-concavity and third-order Turan
LOGCONCAVE_THRESHOLDS = {2: 21, 3: 4, 4: 5, 5: 6, 6: 1, 7: 1, 8: 1, 9: 1}
TURAN3_THRESHOLDS = {2: 65, 3: 23, 4: 28, 5: 26, 6: 11, 7: 22, 8: 23, 9: 10}

# published validity thresholds (in n) for the Q-ratio bound rows
QBOUND_THRESHOLDS = {
    2: 5652,
    3: 365,
    4: 455,
    5: 1120,
    6: 2055,
    7: 1230,
    8: 10422,
    9: 8187,
}

# Q-bound rows: both bounds share 1 - A pi^4/mu^3 + B pi^4/mu^4; the lower
# bound subtracts c5/mu^5 + c6/mu^6, the upper subtracts d5/mu^5 and adds
# (d6 + e pi^8)/mu^6.  Printed entries (c5, c6, d5, d6, e); A, B are derived.
_QB_TABLE: dict[int, tuple[int, int, int, int, Fraction]] = {
    2: (7, 130, 6, 120, Fraction(1, 256)),
    3: (13, 200, 6, 146, Fraction(1, 81)),
    4: (16, 300, 15, 150, Fraction(81, 4096)),
    5: (18, 400, 17, 400, Fraction(0)),
    6: (20, 441, 19, 441, Fraction(0)),
    7: (21, 500, 20, 500, Fraction(0)),
    8: (21, 505, 20, 505, Fraction(0)),
    9: (22, 524, 21, 529, Fraction(0)),
}


# The exact inequalities on coefficient values, which scan_thresholds
# decides on one k table built for the scan.


def _logconcave_sign(p0: int, p1: int, p2: int) -> int:
    """Sign of p(n)^2 - p(n-1) p(n+1): 1, 0 (equality) or -1 (failure)."""
    lhs = p1 * p1
    rhs = p0 * p2
    return (lhs > rhs) - (lhs < rhs)


def _turan3(a0: int, a1: int, a2: int, a3: int) -> bool:
    """Strict third-order Turan inequality on four consecutive values."""
    return 4 * (a1 * a1 - a0 * a2) * (a2 * a2 - a1 * a3) > (a1 * a2 - a0 * a3) ** 2


def _subadd_exceptions(c, k: int, horizon: int) -> tuple[tuple[int, int], ...]:
    """Pairs (a, b), a >= b >= 1 and k <= a+b <= horizon, at which strict
    log-subadditivity c[a] c[b] > c[a+b] fails, in order of (a+b, b).

    ``c`` is positive through index horizon.  From the last n < horizon with
    c[n]^2 < c[n-1] c[n+1] (start, or 0) on, the ratios c[n+1] / c[n] do not
    increase, so c[a+b] / c[a] <= c[m+b] / c[m] for a >= m >= start: one check
    at m = max(start, b, k-b) covers every a >= m, and the pairs below m are
    checked one by one.  Where it fails, or m + b > horizon, all are.
    """
    ns = range(horizon - 1, 0, -1)
    start = next((n for n in ns if _logconcave_sign(*c[n - 1 : n + 2]) < 0), 0)
    exceptions = []
    for b in range(1, horizon // 2 + 1):
        low, top = max(b, k - b), horizon - b
        m = max(start, low)
        if m <= top and c[m] * c[b] > c[m + b]:
            top = m - 1
        exceptions += [(a, b) for a in range(low, top + 1) if c[a] * c[b] <= c[a + b]]
    return tuple(sorted(exceptions, key=lambda pair: (sum(pair), pair[1])))


def q_ratio(k: int, n: int) -> Fraction:
    """Exact ratio p(n-1) p(n+1) / p(n)^2."""
    if n < 1:
        raise InequalityError(f"n must be >= 1, got {n}")
    return Fraction(pk(k, n - 1) * pk(k, n + 1), pk(k, n) ** 2)


class QEnclosure(NamedTuple):
    """Exact rational enclosure lo <= x <= hi of one Q-bound polynomial."""

    lo: Fraction
    hi: Fraction


# Fixed-point guard bits beyond the working precision P: every rounding in
# q_bounds moves a value by at most one unit of 2^-(P + _QB_GUARD), and even
# times the largest coefficient (c6 <= 529) that stays far below the 2^-P
# relative width that mu's enclosure brings in.
_QB_GUARD = 32


_Bound = tuple[int, int]


def _product(num: int, den: int, x: _Bound, y: _Bound, s: int) -> _Bound:
    """Enclosure (lo, hi) at scale 2^s of (num / den) x y.

    x and y are (lo, hi) enclosures at scale 2^s of nonnegative values and
    num / den >= 0.  The lower end is floor(num x.lo y.lo / (den 2^s)) and the
    upper end the matching ceiling: floor(floor(z / den) / 2^s) is
    floor(z / (den 2^s)) for integer z, and likewise for ceilings, so each
    end is rounded once.
    """
    return (
        num * x[0] * y[0] // den >> s,
        -(-num * x[1] * y[1] // den >> s),
    )


@lru_cache(maxsize=8)
def _pi_powers(precision: int) -> tuple[_Bound, _Bound]:
    """Enclosures (lo, hi) of pi^4 and pi^8 at scale 2^(precision + _QB_GUARD).

    Built from the endpoints of ``numerics.pi(precision)``, the lower chain
    rounding down and the upper chain up, so both are proven enclosures.
    """
    from .numerics import pi

    s = precision + _QB_GUARD
    p1 = pi(precision).scaled(s)
    p2 = _product(1, 1, p1, p1, s)
    p4 = _product(1, 1, p2, p2, s)
    return p4, _product(1, 1, p4, p4, s)


def _inverse_powers(m: _Bound, s: int) -> list[_Bound]:
    """Enclosures (lo, hi) at scale 2^s of t^j = 1/mu^j for j = 0..6.

    ``m`` encloses mu at scale 2^s.  t's lower end is floor(2^(2s) / mu.hi)
    and its upper end ceil(2^(2s) / mu.lo), and t^j = t^(j-1) t.
    """
    one = 1 << s
    t = ((one << s) // m[1], -(-(one << s) // m[0]))
    powers = [(one, one), t]
    for _ in range(5):
        powers.append(_product(1, 1, powers[-1], t, s))
    return powers


def _q_rows(
    k: int, m: _Bound, p4: _Bound, p8: _Bound, s: int
) -> tuple[_Bound, _Bound]:
    """Enclosures (lo, hi) of the lower and upper Q-bound rows at scale 2^s.

    ``m``, ``p4`` and ``p8`` are (lo, hi) enclosures of mu, pi^4 and pi^8 at
    scale 2^s.  With t = 1/mu, both rows share 1 - A pi^4 t^3 + B pi^4 t^4;
    the lower row subtracts c5 t^5 + c6 t^6, the upper subtracts d5 t^5 and
    adds (d6 + e pi^8) t^6.  Each row subtracts the upper end of a term from
    its lower end and the lower end from its upper end.
    """
    one = 1 << s
    t = _inverse_powers(m, s)
    # A = (Delta3(1) / 3)^2 with Delta3(1) = 3 (k-1) / (2k), and B = 3A:
    # A = a / d and B = 3a / d
    a, d = (k - 1) ** 2, 4 * k * k
    c5, c6, d5, d6, e = _QB_TABLE[k]
    a3 = _product(a, d, p4, t[3], s)
    b4 = _product(3 * a, d, p4, t[4], s)
    e6 = _product(e.numerator, e.denominator, p8, t[6], s)
    (t5_lo, t5_hi), (t6_lo, t6_hi) = t[5], t[6]
    shared_lo = one - a3[1] + b4[0]
    shared_hi = one - a3[0] + b4[1]
    return (
        (shared_lo - c5 * t5_hi - c6 * t6_hi, shared_hi - c5 * t5_lo - c6 * t6_lo),
        (
            shared_lo - d5 * t5_hi + d6 * t6_lo + e6[0],
            shared_hi - d5 * t5_lo + d6 * t6_hi + e6[1],
        ),
    )


def q_bounds(
    k: int, n: int, precision: int = DEFAULT_PRECISION
) -> tuple[QEnclosure, QEnclosure]:
    """Enclosures of the printed lower/upper polynomials bounding Q_k(n).

    mu_k(n) is read once from :func:`regover.numerics.mu` and the rows are
    evaluated by :func:`_q_rows` at scale 2^s with s = precision + 32; the
    endpoints are exact rationals with denominator 2^s.
    """
    from .numerics import mu

    if k not in _QB_TABLE:
        raise InequalityError(f"Q bounds available for k in 2..9, got {k}")
    threshold = QBOUND_THRESHOLDS[k]
    if n < threshold:
        raise InequalityError(
            f"Q bounds for k={k} require n >= {threshold}, got {n}"
        )
    s = precision + _QB_GUARD
    p4, p8 = _pi_powers(precision)
    lower, upper = _q_rows(k, mu(k, n, precision).value.scaled(s), p4, p8, s)
    one = 1 << s
    return (
        QEnclosure(Fraction(lower[0], one), Fraction(lower[1], one)),
        QEnclosure(Fraction(upper[0], one), Fraction(upper[1], one)),
    )


def verify_q_containment(k: int, n: int, precision: Optional[int] = None) -> bool:
    """Definitely L(n) < Q_k(n) < R(n), escalating precision as needed."""
    from .numerics import certify

    return certify(
        q_ratio(k, n),
        lambda prec: q_bounds(k, n, prec),
        precision,
        f"Q containment for k={k}, n={n}",
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Observed versus published validity threshold for one (k, property)."""

    k: int
    property: str
    paper_threshold: int
    observed_min_threshold: int
    horizon: int
    exceptions_below: tuple = ()
    equalities: tuple = ()

    def to_dict(self) -> dict:
        return dict(vars(self))


def scan_thresholds(k: int, property: str, horizon: int) -> ThresholdReport:
    """Minimal n0 <= horizon with the property holding on [n0, horizon].

    All failures below n0 are listed.  For log-concavity the scan uses the
    weak form (>=) for failures and lists the exact-equality points
    separately, since equality genuinely occurs at a few small n.  For
    "subadd" the exceptions are the failing pairs (a, b) of
    :func:`_subadd_exceptions` and n0 is the smallest total beyond which no
    pair fails.  The scan's k table, from :func:`pk_series`, is not kept.
    """
    if property not in PROPERTIES:
        raise InequalityError(f"property must be one of {PROPERTIES}")
    if property == "subadd":
        if horizon < k:
            raise InequalityError(f"horizon {horizon} below minimal total {k}")
        exceptions = _subadd_exceptions(pk_series(k, horizon), k, horizon)
        observed = max((a + b for a, b in exceptions), default=k - 1) + 1
        return ThresholdReport(k, property, k, observed, horizon, exceptions)

    published = LOGCONCAVE_THRESHOLDS if property == "logconcave" else TURAN3_THRESHOLDS
    if k not in published:
        raise InequalityError(
            f"no published {property} threshold for k={k}; they cover k = "
            f"{min(published)}..{max(published)}"
        )
    paper = published[k]
    if horizon < paper:
        raise InequalityError(
            f"horizon {horizon} below published threshold {paper} for k={k}"
        )
    c = pk_series(k, horizon + 2)
    equalities = []
    if property == "logconcave":
        failures = []
        for n in range(1, horizon + 1):
            sign = _logconcave_sign(c[n - 1], c[n], c[n + 1])
            if sign < 0:
                failures.append(n)
            elif sign == 0:
                equalities.append(n)
    else:
        failures = [n for n in range(1, horizon + 1) if not _turan3(*c[n - 1 : n + 3])]
    observed = (failures[-1] + 1) if failures else 1
    return ThresholdReport(
        k, property, paper, observed, horizon, tuple(failures), tuple(equalities)
    )
