"""Independent reference for whole tables of pbar_k(n), modulo a prime.

The product F(q) = prod_{k not | m} (1 + q^m)/(1 - q^m) has the logarithmic
derivative q F'(q)/F(q) = sum_{j>=1} c(j) q^j, with

    c(j) = 2 * (sum of m over the m | j with j/m odd and k not | m),

since log((1 + x)/(1 - x)) = 2 * sum over odd r of x^r / r.  Comparing the
coefficients of q^n gives n a(n) = sum_{j=1}^{n} c(j) a(n - j), with
a(0) = 1.  With k = None the condition on m is dropped, and a(n) = pbar(n).

The recurrence runs modulo P = 1,048,573, a prime below 2^20, in numpy's
int64: a product of two residues is below 2^40, a sum of at most 50,000 of
them below 2^56, and every n <= 50,000 is invertible modulo P.  Each n costs
one dot product.  The method shares nothing with ``regover.qseries``: no
theta series, no pbar table and no shifted copies.

Run as a script, it checks pbar and every k = 2..9 up to an order (3,000 by
default) and exits 1 on any mismatch::

    PYTHONPATH=src python tests/table_oracle.py 50000
"""

from __future__ import annotations

import sys

import numpy as np

from regover import qseries

P = 1_048_573
K_RANGE = range(2, 10)


def log_derivative(k: int | None, order: int) -> np.ndarray:
    """c(0..order) modulo P, with c(0) = 0."""
    c = np.zeros(order + 1, dtype=np.int64)
    for m in range(1, order + 1):
        if k is None or m % k:
            c[m :: 2 * m] += 2 * m  # j = m, 3m, 5m, ...
    return c % P


def series_mod_p(k: int | None, order: int) -> np.ndarray:
    """a(0..order) modulo P: pbar_k(n) for a k, pbar(n) for k = None."""
    c = log_derivative(k, order)
    reverse = c[::-1].copy()  # reverse[i] = c(order - i)
    a = np.zeros(order + 1, dtype=np.int64)
    a[0] = 1
    for n in range(1, order + 1):
        # sum over i < n of a(i) c(n - i), with c(n - i) = reverse[order - n + i]
        total = int(np.dot(a[:n], reverse[order - n : order]))
        a[n] = total % P * pow(n, -1, P) % P
    return a


def mismatches(k: int | None, order: int) -> list[int]:
    """The n <= order where regover's table disagrees with the recurrence."""
    if k is None:
        table = qseries.overpartitions(order)[: order + 1]
    else:
        table = qseries.pk_series(k, order)
    want = series_mod_p(k, order).tolist()
    return [n for n, (x, y) in enumerate(zip(table, want)) if x % P != y]


def main(argv: list[str]) -> int:
    order = int(argv[0]) if argv else 3000
    failed = False
    for k in (None, *K_RANGE):
        bad = mismatches(k, order)
        name = "pbar" if k is None else f"k={k}"
        print(f"{name} to {order}: {len(bad)} mismatches {bad[:10]}")
        failed = failed or bool(bad)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
