"""One benchmark child process; ``run.py`` starts exactly one at a time.

Usage: child.py MODE [ARGS...]

  setup                       import regover.cli, build one Interval, print "ready"
  plan SEED POINTS OUT        write the seeded certificate sample to OUT
  certify PLAN REPORT TRACE   run the sample's library certificates
  width PLAN REPORT           relative width of main_term at 192 bits per point
  cli REPORT TRACE ARGS...    run the regover CLI with ARGS in this process
  micro REPORT REPEATS        isolated layer microbenchmarks

TRACE is 0 or 1.  Every mode but setup and plan writes a JSON report with the
process's peak resident memory; traced modes add the trace summary.
"""

import sys


def _setup() -> None:
    import regover.cli  # noqa: F401
    from regover.numerics import Interval

    Interval.from_exact(1)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    import platform

    import mpmath

    print(f"python={platform.python_version()} mpmath_backend={mpmath.libmp.BACKEND}")


if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    _setup()
    sys.exit(0)

import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer as tracing  # noqa: E402

# Certificates sample n up to CERT_N_MAX; points with n <= BRACKET_N_MAX also
# get the theorem bracket, as in acceptance criteria 4 and 5.
CERT_N_MAX = 5000
BRACKET_N_MAX = 1500
HIGH_PRECISION = 384
HIGH_PRECISION_SHARE = 8  # one call in eight passes precision=384
WIDTH_PRECISION = 192


def _write(path: str, report: dict) -> None:
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w") as fh:
        json.dump(report, fh)


def _first_n_at_or_above(k: int, threshold: int, hi: int) -> int:
    """Smallest n <= hi with mu_k(n) certainly >= threshold, or hi + 1."""
    from regover.numerics import mu

    lo, up = 0, hi + 1
    while lo < up:
        mid = (lo + up) // 2
        if mu(k, mid).value.lo >= threshold:
            up = mid
        else:
            lo = mid + 1
    return lo


def plan(seed: int, points_per_k: int) -> dict:
    """Seeded, stratified sample of (k, n) from each k's corollary threshold.

    Each k's range is cut into ``points_per_k`` equal strata with one point
    drawn in each, so the amount of work barely depends on the seed.  k = 9
    has no point: its threshold n = 8187 lies beyond CERT_N_MAX.
    """
    from regover.chern import NDOT_K

    rng = random.Random(f"certify:{seed}")
    points = []
    for k in range(2, 10):
        start = _first_n_at_or_above(k, NDOT_K[k], CERT_N_MAX)
        span = CERT_N_MAX + 1 - start
        if span < points_per_k:
            continue
        for i in range(points_per_k):
            lo = start + span * i // points_per_k
            hi = start + span * (i + 1) // points_per_k - 1
            points.append((k, rng.randint(lo, hi)))
    ops = []
    for k, n in points:
        ops.append(["corollary", k, n])
        if n <= BRACKET_N_MAX:
            ops.append(["bracket", k, n])
    high = set(rng.sample(range(len(ops)), len(ops) // HIGH_PRECISION_SHARE))
    for i, op in enumerate(ops):
        op.append(HIGH_PRECISION if i in high else None)
    return {"points": points, "ops": ops}


def _tracer(trace: bool):
    if not trace:
        return None
    t = tracing.Tracer()
    tracing.install(t)
    return t


def certify(plan_path: str, report_path: str, trace: bool) -> None:
    tracer = _tracer(trace)
    from regover import chern
    from regover.numerics import PrecisionExhausted
    from regover.qseries import warm_cache

    with open(plan_path) as fh:
        ops = json.load(fh)["ops"]
    for k in sorted({op[1] for op in ops}):
        warm_cache(k, CERT_N_MAX)
    results = []
    clock = time.perf_counter
    for kind, k, n, precision in ops:
        fn = chern.verify_corollary_bracket if kind == "corollary" else chern.verify_bracket
        t0 = clock()
        try:
            outcome = fn(k, n, precision) is True
        except PrecisionExhausted:
            outcome = "PrecisionExhausted"
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            outcome = type(exc).__name__
        results.append([outcome, clock() - t0])
    report = {"results": results}
    if tracer:
        report["trace"] = tracer.summary()
    _write(report_path, report)


def width(plan_path: str, report_path: str) -> None:
    """Median of -log2(width / lo) of the main_term enclosure over the sample."""
    from regover.chern import main_term

    with open(plan_path) as fh:
        points = json.load(fh)["points"]
    bits = []
    for k, n in points:
        m = main_term(k, n, WIDTH_PRECISION)
        ratio = (m.hi - m.lo) / m.lo
        bits.append(math.log2(ratio.denominator) - math.log2(ratio.numerator))
    _write(report_path, {"median_bits": statistics.median(bits), "points": len(bits)})


def cli(report_path: str, trace: bool, args: list[str]) -> None:
    tracer = _tracer(trace)
    from regover import cli as regover_cli

    code = 0
    try:
        if tracer:
            with tracer.root_span(tracing.CLI_STEP):
                regover_cli.main(args=args, prog_name="regover")
        else:
            regover_cli.main(args=args, prog_name="regover")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
    report = {"exit": code}
    if tracer:
        report["trace"] = tracer.summary()
    _write(report_path, report)
    sys.exit(code)


def _time_calls(fn, batches: int, inner: int, setup) -> list[float]:
    """Per-call seconds of ``fn`` over ``batches`` batches of ``inner`` calls."""
    samples = []
    for _ in range(batches):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return samples


def micro(report_path: str, repeats: int) -> None:
    """Layer microbenchmarks, each timed as isolated calls."""
    from regover import chern, combinatorics, inequalities, numerics, qseries
    from regover.numerics import Interval

    prec = numerics.DEFAULT_PRECISION
    x = Interval.from_exact(Fraction(355, 113), prec)
    y = Interval.from_exact(Fraction(577, 408), prec)
    qseries.warm_cache(3, 1500)
    slow = max(1, repeats // 3)
    # name, unit per second, call, batches, calls per batch, before each batch
    cases = [
        ("qseries.pk_series.k2_n20000_s", 1, lambda: qseries.pk_series(2, 20000), slow, 1, None),
        ("numerics.interval_mul_us", 1e6, lambda: x * y, repeats, 2000, None),
        ("numerics.interval_div_us", 1e6, lambda: x / y, repeats, 1000, None),
        ("numerics.interval_lo_us", 1e6, lambda: x.lo, repeats, 2000, None),
    ]
    for s in (57, 157, 206):
        arg = Interval.from_exact(s, prec)
        cases.append((f"numerics.bessel_i1.s{s}_ms", 1e3,
                      lambda a=arg: numerics.bessel_i1(a), repeats, 3, None))
    cases += [
        ("numerics.dedekind_sum.h7_j499_ms", 1e3,
         lambda: numerics.dedekind_sum(7, 499), repeats, 3, None),
        ("chern.verify_bracket.k3_n1500_ms", 1e3,
         lambda: chern.verify_bracket(3, 1500), repeats, 3, None),
        ("chern.verify_corollary_bracket.k3_n1500_ms", 1e3,
         lambda: chern.verify_corollary_bracket(3, 1500), repeats, 3, None),
        ("inequalities.verify_q_containment.k3_n800_ms", 1e3,
         lambda: inequalities.verify_q_containment(3, 800), repeats, 50, None),
        # the enumeration cache is cleared so that every call does its work
        ("combinatorics.verify_lemma.l2_3_k9_a20_s", 1,
         lambda: combinatorics.verify_lemma("2.3", 9, 20), slow, 1,
         combinatorics.enumerate_overpartitions.cache_clear),
    ]
    out = {}
    for name, scale, fn, batches, inner, setup in cases:
        samples = [s * scale for s in _time_calls(fn, batches, inner, setup)]
        out[name] = {"p50": statistics.median(samples), "min": min(samples)}
    _write(report_path, {"micro": out})


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    if mode == "plan":
        seed, points_per_k, out = int(rest[0]), int(rest[1]), rest[2]
        with open(out, "w") as fh:
            json.dump(plan(seed, points_per_k), fh)
    elif mode == "certify":
        certify(rest[0], rest[1], rest[2] == "1")
    elif mode == "width":
        width(rest[0], rest[1])
    elif mode == "cli":
        cli(rest[0], rest[1] == "1", rest[2:])
    elif mode == "micro":
        micro(rest[0], int(rest[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
