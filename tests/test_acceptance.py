"""Acceptance gate: the eight end-to-end criteria, one verdict line each.

Each criterion is implemented faithfully against its stated range and
runtime budget.  Where the underlying mathematics genuinely fails at a few
points (criteria 2 and 3), the criterion still sweeps its whole grid and
requires exactly the known exceptions from ``conftest``: it fails on any
other failure and on any listed exception that no longer fails, and each
listed exception's counts are recounted by brute force.  The per-criterion
pass/fail lines are echoed in the terminal summary.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from regover.chern import (
    N_K,
    NDOT_K,
    verify_bracket,
    verify_corollary_bracket,
)
from regover.combinatorics import (
    Constraint,
    count_overpartitions,
    enumerate_overpartitions,
    verify_lemma,
)
from regover.inequalities import (
    LOGCONCAVE_THRESHOLDS,
    QBOUND_THRESHOLDS,
    TURAN3_THRESHOLDS,
    check_subadditivity,
    scan_thresholds,
    verify_q_containment,
)
from regover.numerics import (
    Interval,
    bessel_i1,
    bessel_i1_bracket,
    dedekind_sum,
    mu,
)
from regover.qseries import pk, warm_cache

from conftest import LEMMA_EXCEPTIONS, SUBADD_COUNTEREXAMPLES, record_acceptance

KS = list(range(2, 10))


def _shown(items: list) -> str:
    more = f" (+{len(items) - 6} more)" if len(items) > 6 else ""
    return ", ".join(str(f) for f in items[:6]) + more


def _verdict(
    num: int,
    name: str,
    failures: list,
    started: float,
    budget: float,
    known: dict | None = None,
    noun: str = "",
):
    """Record and assert one criterion's verdict.

    ``known`` maps each expected failure to a label.  The criterion then
    passes only if its failures are exactly those keys; the pass line names
    what it reproduced (labels counted when they repeat), and a fail line
    lists unexpected failures and vanished exceptions separately.
    """
    elapsed = time.monotonic() - started
    known = known or {}
    unexpected = [f for f in failures if f not in known]
    vanished = [e for e in known if e not in failures]
    ok = not unexpected and not vanished and elapsed < budget
    detail = ""
    if ok and known:
        labels = Counter(known.values())
        shown = ", ".join(
            f"{label} x{count}" if count > 1 else label
            for label, count in labels.items()
        )
        detail = f" — {len(known)} known {noun} reproduced: {shown}"
    if unexpected:
        kind = "unexpected failure(s)" if known else "failure(s)"
        detail += f" — {len(unexpected)} {kind}: {_shown(unexpected)}"
    if vanished:
        detail += f" — {len(vanished)} known {noun} no longer fail: "
        detail += _shown(vanished)
    if elapsed >= budget:
        detail += f" — over budget {budget:.0f}s"
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]{detail}"
    record_acceptance(line)
    assert ok, line


def _first_n_at_or_above(k: int, threshold: int, hi: int) -> int:
    """Smallest n <= hi with mu_k(n) certainly >= threshold, or hi + 1."""
    lo, up = 0, hi + 1
    while lo < up:
        mid = (lo + up) // 2
        if mu(k, mid).value.lo >= threshold:
            up = mid
        else:
            lo = mid + 1
    return lo


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    failures = []
    for k in KS:
        warm_cache(k, 40)
        constraint = Constraint(k_regular=k)
        for n in range(41):
            if pk(k, n) != count_overpartitions(n, constraint):
                failures.append((k, n))
    _verdict(1, "oracle equivalence k=2..9, n<=40", failures, started, 60)


def _relation(lhs: int, rhs: int) -> str:
    return f"{lhs} {'<' if lhs < rhs else '=' if lhs == rhs else '>'} {rhs}"


def test_criterion_2_subadditivity_sweep():
    started = time.monotonic()
    failures = []
    for k in KS:
        warm_cache(k, 200)
        for total in range(k, 201):
            for b in range(1, total // 2 + 1):
                if not check_subadditivity(k, total - b, b):
                    failures.append((k, total - b, b))
    # each listed counterexample is one by its own brute-force counts
    for (k, a, b), counts in SUBADD_COUNTEREXAMPLES.items():
        c = Constraint(k_regular=k)
        recount = (
            count_overpartitions(a, c) * count_overpartitions(b, c),
            count_overpartitions(a + b, c),
        )
        if recount != counts or recount[0] > recount[1]:
            failures.append(((k, a, b), f"table {counts}, brute force {recount}"))
    known = {
        key: f"{key} {_relation(*counts)}"
        for key, counts in SUBADD_COUNTEREXAMPLES.items()
    }
    _verdict(
        2, "strict log-subadditivity a+b<=200", failures, started, 120,
        known, "counterexamples",
    )


def _lemma_counts(lemma: str, k: int, a: int, b: int) -> tuple[int, int]:
    """The lemma's (lhs, rhs), recounted from its statement by brute force."""
    free = Constraint(k_regular=k)
    no1 = Constraint(k_regular=k, forbid_ones=True)
    no2 = Constraint(k_regular=k, forbid_twos=True)
    no12 = Constraint(k_regular=k, forbid_ones=True, forbid_twos=True)
    if lemma == "2.1":
        return (
            count_overpartitions(a, no1) * count_overpartitions(b, no2),
            count_overpartitions(a + b, no12),
        )
    return (
        count_overpartitions(a, no2) * count_overpartitions(b, free),
        count_overpartitions(a + b, no2),
    )


def _witness_shape(lemma: str, k: int, a: int) -> list:
    """Every mu of weight a of the stated witness shape: (mu; 1~) with
    exactly one plain 1 in mu below a larger part and no overlined 1 for
    lemma 2.2, (mu; 1~,1) with mu free of 1's for lemma 2.3."""
    ops = enumerate_overpartitions(a, Constraint(k_regular=k, forbid_twos=True))
    if lemma == "2.2":
        return [
            mu for mu in ops
            if [p for p in mu if p[0] == 1] == [(1, False)] and mu[0][0] > 1
        ]
    return [mu for mu in ops if all(s > 1 for s, _ in mu)]


def _exception_class(lemma: str, k: int, lhs: int, rhs: int) -> str:
    if lemma == "2.1":
        return "2.1 k=2 a=2 lhs = 0"
    if lemma == "2.3" and k == 2:
        return "2.3 k=2 codomain"
    if lhs == rhs:
        return f"{lemma} lhs == rhs"
    return f"{lemma} witness shape empty"


def test_criterion_3_injection_suites():
    started = time.monotonic()
    failures = []
    # f2 / f3: injective with the stated unattained witness, a <= 20
    for lemma in ("2.2", "2.3"):
        for k in KS:
            for a in range(1, 21):
                rep = verify_lemma(lemma, k, a)
                key = (lemma, k, a, rep.b)
                counts = _lemma_counts(lemma, k, a, rep.b)
                if (rep.lhs, rep.rhs) != counts:
                    got = f"report {rep.lhs, rep.rhs}, brute force {counts}"
                    failures.append((key, got))
                if not rep.injective:
                    failures.append((key, "not injective"))
                if any(n.startswith("stated witness attained") for n in rep.notes):
                    failures.append((key, "stated witness attained"))
                if rep.unattained_witness is None:
                    failures.append(key)
                    if _witness_shape(lemma, k, a):
                        failures.append((key, "witness shape not empty"))
                    # injective into the codomain with lhs > rhs: some
                    # element is unattained by counting alone
                    if counts[0] > counts[1] and not rep.codomain_ok:
                        failures.append((key, "codomain violated"))
    # f1: injective for k in 5..9, a+b <= 18
    for k in range(5, 10):
        for a in range(1, 18):
            for b in range(1, 19 - a):
                rep = verify_lemma("2.1", k, a, b)
                if not rep.injective:
                    failures.append((("2.1", k, a, b), "not injective"))
    # cardinality inequality for k in 2..4 over the same grid
    for k in (2, 3, 4):
        for a in range(1, 18):
            for b in range(1, 19 - a):
                rep = verify_lemma("2.1", k, a, b)
                if not rep.holds:
                    failures.append(("2.1", k, a, b))
    known = {
        key: e
        for key, e in LEMMA_EXCEPTIONS.items()
        if key[0] == "2.1" or (key[0] in ("2.2", "2.3") and not e.witness)
    }
    for key, e in known.items():
        recount = _lemma_counts(*key)
        if recount != (e.lhs, e.rhs):
            failures.append((key, f"table {e.lhs, e.rhs}, brute force {recount}"))
    labels = {
        key: _exception_class(key[0], key[1], e.lhs, e.rhs) for key, e in known.items()
    }
    _verdict(3, "injection suites", failures, started, 600, labels, "exceptions")


def test_criterion_4_theorem_bracket():
    started = time.monotonic()
    failures = []
    for k in KS:
        warm_cache(k, 1500)
        start = _first_n_at_or_above(k, N_K[k], 1500)
        for n in range(start, 1501):
            if not verify_bracket(k, n):
                failures.append((k, n))
    _verdict(4, "main-term bracket to n=1500", failures, started, 600)


def test_criterion_5_corollary_bracket():
    started = time.monotonic()
    failures = []
    for k in KS:
        warm_cache(k, 5000)
        start = _first_n_at_or_above(k, NDOT_K[k], 5000)
        ns = [n for n in range(start, 1501)] + [
            n for n in range(1510, 5001, 10) if n >= start
        ]
        for n in ns:
            if not verify_corollary_bracket(k, n):
                failures.append((k, n))
    _verdict(5, "relative bracket to n=5000", failures, started, 600)


def test_criterion_6_thresholds():
    started = time.monotonic()
    failures = []
    observed = []
    for k in KS:
        # log-concavity in the glossary (weak) sense above the published
        # threshold; exact-equality points are reported, not failures
        rep = scan_thresholds(k, "logconcave", 2000)
        for n in rep.exceptions_below:
            if n >= LOGCONCAVE_THRESHOLDS[k]:
                failures.append(("logconcave", k, n))
        rep3 = scan_thresholds(k, "turan3", 2000)
        for n in rep3.exceptions_below:
            if n >= TURAN3_THRESHOLDS[k]:
                failures.append(("turan3", k, n))
        observed.append(
            f"k={k}: lc {rep.observed_min_threshold}"
            + (f" eq={list(rep.equalities)}" if rep.equalities else "")
            + f", t3 {rep3.observed_min_threshold}"
        )
    record_acceptance("  observed minima — " + "; ".join(observed))
    _verdict(6, "log-concavity and Turan thresholds to n=2000", failures, started, 600)


def test_criterion_7_q_ratio_containment():
    started = time.monotonic()
    failures = []
    for k in KS:
        n0 = QBOUND_THRESHOLDS[k]
        warm_cache(k, n0 + 502)
        for n in range(n0, n0 + 501):
            if not verify_q_containment(k, n):
                failures.append((k, n))
    _verdict(7, "two-sided Q-ratio bounds, 501 n per k", failures, started, 900)


def test_criterion_8_numerics_properties():
    started = time.monotonic()
    failures = []
    rng = random.Random(20240824)

    # Bessel bracket containment on 50 sampled s in [26, 500]
    samples = [Fraction(26), Fraction(500)] + [
        Fraction(rng.randint(26 * 64, 500 * 64), 64) for _ in range(48)
    ]
    for s in samples:
        si = Interval.from_exact(s)
        lo, hi = bessel_i1_bracket(si)
        val = bessel_i1(si)
        if not (lo.lo <= val.lo and val.hi <= hi.hi):
            failures.append(("bessel", s))

    # Dedekind reciprocity on 100 random coprime pairs with h, j <= 500
    done = 0
    while done < 100:
        j = rng.randint(2, 500)
        h = rng.randint(1, j - 1)
        if math.gcd(h, j) != 1:
            continue
        lhs = dedekind_sum(h, j) + dedekind_sum(j, h)
        rhs = Fraction(-1, 4) + (
            Fraction(h, j) + Fraction(j, h) + Fraction(1, h * j)
        ) / 12
        if lhs != rhs:
            failures.append(("dedekind", h, j))
        done += 1

    # precision-refinement monotonicity on 100 random interval-op instances
    for _ in range(100):
        x = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
        coarse = Interval.from_exact(x, 128)
        fine = Interval.from_exact(x, 256)
        for op in (
            lambda v: v.sqrt(),
            lambda v: v.exp() if x < 50 else v + 1,
            lambda v: (v * v + 3) / (v + 1),
        ):
            if not op(coarse).encloses(op(fine)):
                failures.append(("refinement", x))

    _verdict(8, "interval and number-theory soundness", failures, started, 120)
