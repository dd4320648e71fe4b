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
every k.  While the table holds n entries, pbar(n - j^2) is table[-j^2], so
for every n in [m^2, (m+1)^2) two fixed-offset getters (odd j, even j) fetch
all m terms and ``sum`` adds them.  Each k-regular table up to order N is
that table plus floor(sqrt(N/k)) shifted copies of 2 pbar, summed segment by
segment: every n in [k J^2, k (J+1)^2) has the same J terms, so a segment is
a column sum over J + 1 slices.  That is O(N sqrt(N/k)) integer additions per
k, after an O(N sqrt(N)) shared table that is paid once, and both kernels
add in C loops, with no Python step per term.

:func:`pk_series` returns a fresh k table and keeps none; :func:`warm_cache`
memoizes one k's table at a time, for reads by index; :func:`pk` reads that
memo where it is k's and reaches n, and otherwise sums one coefficient's
terms, building no k table.

Rewriting (-q^a;q^a) as (q^{2a};q^{2a})/(q^a;q^a) gives the same series as
the eta quotient (q^k;q^k)^2 (q^2;q^2) / ((q;q)^2 (q^{2k};q^{2k})).  Its
expansion by the pentagonal number theorem, which shares no arithmetic with
the theta path, is the oracle in ``tests/qseries_oracle.py`` that the tables
here are checked against.

Everything here is exact: coefficients are Python ints, truncation orders
are explicit, and no floating point is involved anywhere.
"""

from __future__ import annotations

from math import isqrt
from operator import itemgetter, sub


class SeriesError(ValueError):
    """Raised on contract violations in series arithmetic."""


# pbar(0), pbar(1), ...: the overpartition counts shared by every k.  The table
# only grows, by appending, so each prefix is final once computed.
_OVERPARTITIONS: list[int] = [1]


def overpartitions(order: int) -> list[int]:
    """The shared table of pbar(n) for n <= ``order`` (and possibly beyond).

    Missing entries are appended by the theta recurrence: odd j add
    pbar(n - j^2), even j subtract it, and the sum is doubled.
    """
    table = _OVERPARTITIONS
    n = len(table)
    while n <= order:
        # n - j^2 >= 0 for j <= m throughout [m^2, (m+1)^2).  Each getter
        # also reads table[0] twice: the extra pbar(0)s cancel in the
        # difference, and itemgetter returns a tuple only for two indices
        # or more.
        m = isqrt(n)
        odd = itemgetter(0, 0, *[-j * j for j in range(1, m + 1, 2)])
        even = itemgetter(0, 0, *[-j * j for j in range(2, m + 1, 2)])
        end = min((m + 1) ** 2, order + 1)
        for _ in range(n, end):
            table.append(2 * (sum(odd(table)) - sum(even(table))))
        n = end
    return table


def pk_series(k: int, order: int) -> tuple[int, ...]:
    """Coefficients of q^0..q^order of the series whose coefficient of q^n
    counts k-regular overpartitions of n."""
    if k < 2:
        raise SeriesError(f"k must be >= 2, got {k}")
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    table = overpartitions(order)
    doubled = [2 * c for c in table[: order + 1]]
    coeffs = table[: min(k, order + 1)]
    for terms in range(1, isqrt(order // k) + 1):
        # every n in [lo, hi) has the terms j = 1..terms: even j add
        # 2 pbar(n - k j^2), odd j subtract it
        lo, hi = k * terms * terms, min(k * (terms + 1) ** 2, order + 1)
        shifted = [
            doubled[lo - k * j * j : hi - k * j * j] for j in range(1, terms + 1)
        ]
        plus = map(sum, zip(table[lo:hi], *shifted[1::2]))
        coeffs += map(sub, plus, map(sum, zip(*shifted[::2])))
    return tuple(coeffs)


# warm_cache's k table: at most one, that of the k it was last asked to
# grow, to the order it was asked for; warm_cache is its only writer.
# Callers run in one thread, so neither this cache nor the shared pbar table
# takes a lock; completed tuples are immutable.
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
    table, since the caller says what it will read; the table it replaces,
    and any other k's, is dropped first, so the memo never holds two.
    Returns the memoized coefficient tuple, which may run past ``order``.
    """
    if len(_CACHE.get(k, ())) <= order:
        _CACHE.clear()
        _CACHE[k] = pk_series(k, order)
    pk(k, order)  # checks k and order as every read does
    return _CACHE[k]
