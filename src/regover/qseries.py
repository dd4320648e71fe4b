"""Exact q-series arithmetic for k-regular overpartition counting.

The number of overpartitions of n with no part divisible by k has the
generating function

    prod_{k not | m} (1 + q^m)/(1 - q^m) = phi(-q^k) / phi(-q),

where phi(-q) = (q;q)/(-q;q) = 1 + 2 sum_{j>=1} (-1)^j q^{j^2} is Gauss's
theta identity.  Its reciprocal 1/phi(-q) = sum pbar(n) q^n counts all
overpartitions, so the coefficients of the k-regular series are

    pbar_k(n) = pbar(n) + 2 sum_{j>=1} (-1)^j pbar(n - k j^2).

This module keeps one table of pbar(n), grown in place by its own theta
recurrence pbar(n) = 2 sum_{j>=1} (-1)^{j+1} pbar(n - j^2) and shared by
every k.  Each k-regular table up to order N is that table plus
floor(sqrt(N/k)) shifted copies of 2 pbar: O(N sqrt(N/k)) integer additions
per k, after an O(N sqrt(N)) shared table that is paid once.

:func:`pk_series` returns a fresh k table and keeps none; :func:`warm_cache`
memoizes one, for reads by index; :func:`pk` reads that memo where it reaches
n and otherwise sums one coefficient's terms, building no k table.

Rewriting (-q^a;q^a) as (q^{2a};q^{2a})/(q^a;q^a) gives the same series as
the eta quotient (q^k;q^k)^2 (q^2;q^2) / ((q;q)^2 (q^{2k};q^{2k})), whose
exponents :func:`build_spec` returns for the invariants in
:mod:`regover.chern`.

Everything here is exact: coefficients are Python ints, truncation orders
are explicit, and no floating point is involved anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt


class SeriesError(ValueError):
    """Raised on contract violations in series arithmetic."""


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Exponent data (m_r, delta_r) for a finite product of Euler factors."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise SeriesError("eta quotient needs at least one factor")
        for m, _ in self.factors:
            if m < 1:
                raise SeriesError(f"factor modulus must be >= 1, got {m}")
        object.__setattr__(
            self, "factors", tuple((int(m), int(d)) for m, d in self.factors)
        )


def build_spec(k: int) -> EtaQuotientSpec:
    """Eta-quotient exponents for the k-regular overpartition series."""
    if k < 2:
        raise SeriesError(f"k must be >= 2, got {k}")
    return EtaQuotientSpec(((1, -2), (2, 1), (k, 2), (2 * k, -1)))


# pbar(0), pbar(1), ...: the overpartition counts shared by every k.  The table
# only grows, by appending, so each prefix is final once computed.
_OVERPARTITIONS: list[int] = [1]


def overpartitions(order: int) -> list[int]:
    """The shared table of pbar(n) for n <= ``order`` (and possibly beyond).

    Missing entries are appended by the theta recurrence: odd j add
    pbar(n - j^2), even j subtract it, and the sum is doubled.
    """
    table = _OVERPARTITIONS
    root = isqrt(order)
    odd_squares = [j * j for j in range(1, root + 1, 2)]
    even_squares = [j * j for j in range(2, root + 1, 2)]
    for n in range(len(table), order + 1):
        m = isqrt(n)
        plus = sum([table[n - s] for s in odd_squares[: (m + 1) // 2]])
        minus = sum([table[n - s] for s in even_squares[: m // 2]])
        table.append(2 * (plus - minus))
    return table


def pk_series(k: int, order: int) -> tuple[int, ...]:
    """Coefficients of q^0..q^order of the series whose coefficient of q^n
    counts k-regular overpartitions of n."""
    if k < 2:
        raise SeriesError(f"k must be >= 2, got {k}")
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    coeffs = overpartitions(order)[: order + 1]
    doubled = [2 * c for c in coeffs]
    for j in range(1, isqrt(order // k) + 1):
        e = k * j * j
        step = operator.sub if j % 2 else operator.add
        coeffs[e:] = map(step, coeffs[e:], doubled[: order + 1 - e])
    return tuple(coeffs)


# warm_cache's k tables, one per k, each to the order it was asked for and
# kept until the process exits; warm_cache is their only writer.  Callers
# run in one thread, so neither this cache nor the shared pbar table takes a
# lock; completed tuples are immutable.  A worker process forked by the CLI
# starts from the parent's tables and grows private copies of both, which
# the parent never sees.
_CACHE: dict[int, tuple[int, ...]] = {}


def pk(k: int, n: int) -> int:
    """Exact count of k-regular overpartitions of n: read from warm_cache's
    table where it reaches n, else summed in floor(sqrt(n/k)) terms."""
    if k < 2:
        raise SeriesError(f"k must be >= 2, got {k}")
    if n < 0:
        raise SeriesError(f"n must be >= 0, got {n}")
    if n < len(_CACHE.get(k, ())):
        return _CACHE[k][n]
    table = overpartitions(n)
    shifted = [table[n - k * j * j] for j in range(1, isqrt(n // k) + 1)]
    return table[n] + 2 * (sum(shifted[1::2]) - sum(shifted[::2]))


def warm_cache(k: int, order: int) -> tuple[int, ...]:
    """Memoize the series for ``k`` to ``order``, for reads by :func:`pk`.

    A shorter table is rebuilt to exactly ``order``, with the shared pbar
    table, since the caller says what it will read.  Returns the memoized
    coefficient tuple, which may run past ``order``.
    """
    if len(_CACHE.get(k, ())) <= order:
        _CACHE[k] = pk_series(k, order)
    pk(k, order)  # checks k and order as every read does
    return _CACHE[k]
