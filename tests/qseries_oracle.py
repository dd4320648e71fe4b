"""Independent reference for the k-regular overpartition series.

The series is expanded here from its eta quotient (``build_spec``): each
Euler factor (q^m;q^m)_inf is expanded by the pentagonal number theorem and
multiplied into, or divided out of, a dense series.  It shares no arithmetic
with the theta-series path of ``regover.qseries.pk_series``, so the tests use
it as the oracle that ``pk_series`` must reproduce coefficient for
coefficient.  A series is the tuple of its coefficients, the coefficient of
q^n at index n, so its truncation order is its length minus 1.  The generic
helpers (``series_mul``, ``series_invert``, ``euler_series``,
``unit_series``) are checked against brute-force polynomial products in
``test_qseries.py``.
"""

from __future__ import annotations

from typing import Sequence

from regover.qseries import EtaQuotientSpec, SeriesError

Series = tuple[int, ...]


def unit_series(order: int) -> Series:
    """The constant series 1, truncated at the given order."""
    return (1,) + (0,) * order


def _pentagonal_terms(m: int, order: int) -> list[tuple[int, int]]:
    """Sparse expansion of (q^m;q^m)_inf up to the given order.

    Returns (exponent, sign) pairs: exponent m*j(3j-1)/2 with sign (-1)^j
    for j = 0, +-1, +-2, ...  All signs are +-1.
    """
    terms = [(0, 1)]
    j = 1
    while True:
        sign = -1 if j % 2 else 1
        e1 = m * j * (3 * j - 1) // 2
        e2 = m * j * (3 * j + 1) // 2
        if e1 > order:
            break
        terms.append((e1, sign))
        if e2 <= order:
            terms.append((e2, sign))
        j += 1
    return terms


def euler_series(m: int, order: int) -> Series:
    """(q^m;q^m)_inf truncated at the given order.

    Coefficients all lie in {-1, 0, 1} by the pentagonal number theorem.
    """
    if m < 1:
        raise SeriesError(f"m must be >= 1, got {m}")
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    coeffs = [0] * (order + 1)
    for e, s in _pentagonal_terms(m, order):
        coeffs[e] += s
    return tuple(coeffs)


def _order(a: Series) -> int:
    if not a:
        raise SeriesError("series needs at least a constant term")
    return len(a) - 1


def series_mul(a: Series, b: Series) -> Series:
    """Exact Cauchy product truncated at the common order."""
    n, nb = _order(a), _order(b)
    if n != nb:
        raise SeriesError(f"order mismatch: {n} != {nb}")
    out = [0] * (n + 1)
    # iterate over nonzero coefficients of the sparser operand
    nza = sum(1 for c in a if c)
    nzb = sum(1 for c in b if c)
    x, y = (a, b) if nza <= nzb else (b, a)
    for i, ci in enumerate(x):
        if not ci:
            continue
        for j in range(n - i + 1):
            cj = y[j]
            if cj:
                out[i + j] += ci * cj
    return tuple(out)


def series_invert(a: Series) -> Series:
    """Multiplicative inverse of a series with constant term 1.

    Forward substitution: b_n = -sum_{i>=1} a_i b_{n-i}.  Zero coefficients
    of ``a`` are skipped, so inverting a pentagonal-sparse Euler factor costs
    O(N sqrt(N)) instead of O(N^2).
    """
    n = _order(a)
    if a[0] != 1:
        raise SeriesError("can only invert a series with constant term 1")
    nz = [(i, c) for i, c in enumerate(a) if i and c]
    b = [0] * (n + 1)
    b[0] = 1
    for j in range(1, n + 1):
        acc = 0
        for i, c in nz:
            if i > j:
                break
            acc += c * b[j - i]
        b[j] = -acc
    return tuple(b)


def _mul_pentagonal(dense: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    n = len(dense) - 1
    out = [0] * (n + 1)
    for e, s in terms:
        if s == 1:
            for i in range(e, n + 1):
                out[i] += dense[i - e]
        else:
            for i in range(e, n + 1):
                out[i] -= dense[i - e]
    return out


def _div_pentagonal(dense: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    # forward substitution against a divisor with constant term 1
    n = len(dense) - 1
    tail = [(e, s) for e, s in terms if e > 0]
    out = [0] * (n + 1)
    for i in range(n + 1):
        acc = dense[i]
        for e, s in tail:
            if e > i:
                break
            if s == 1:
                acc -= out[i - e]
            else:
                acc += out[i - e]
        out[i] = acc
    return out


def eta_quotient_series(spec: EtaQuotientSpec, order: int) -> Series:
    """Expand the eta quotient defined by ``spec`` to the given order."""
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    dense = [1] + [0] * order
    # multiplications first; division by a unit-constant factor is exact over Z
    # in any order, but this keeps intermediate coefficients small-ish
    for m, d in spec.factors:
        if d > 0:
            terms = _pentagonal_terms(m, order)
            for _ in range(d):
                dense = _mul_pentagonal(dense, terms)
    for m, d in spec.factors:
        if d < 0:
            terms = _pentagonal_terms(m, order)
            for _ in range(-d):
                dense = _div_pentagonal(dense, terms)
    return tuple(dense)
