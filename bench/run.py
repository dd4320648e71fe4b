"""regover benchmark harness: certify, table and sweep workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One harness process starts one child process at a time (``child.py``); CLI
children get ``--jobs J`` with J = min(2, nproc).  Each workload is a closed
loop with one client: passes run back to back until ``--seconds`` is used
up, and every pass is checked for correct output.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run plus the layer microbenchmarks.  See
bench/README.md for every metric and how to compare two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("certify", "table", "sweep")
CHILD_TIMEOUT = 150
SETUP_SAMPLES = 7
MICRO_REPEATS = 9
# main_term enclosures at 192 bits are about 181.6 bits tight; a looser kernel
# below this floor fails the run instead of counting as a faster one
WIDTH_FLOOR_BITS = 176

KS = "2..9"
N_KS = 8


@dataclass(frozen=True)
class Step:
    """One CLI invocation; ``args`` without ``--jobs`` keys expected.json."""

    args: tuple[str, ...]
    items: int
    takes_jobs: bool = True

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _subadd_pairs(k_lo: int, k_hi: int, horizon: int) -> int:
    return sum(t // 2 for k in range(k_lo, k_hi + 1) for t in range(k, horizon + 1))


# Seeded variants of each step.  Every variant's stdout digest and exit code
# were recorded into expected.json by record.py; a seed picks one variant
# per step, and the variants of a step do nearly the same amount of work.
FULL = {
    "points_per_k": 16,
    "asym": Step(
        ("asym", "--k", KS, "--n-min", "1000", "--n-max", "1500", "--step", "100",
         "--output", "csv"),
        N_KS * 6,
    ),
    "table": [
        [Step(("count", "--k", KS, "--n-max", str(n), "--output", "csv"), N_KS * (n + 1), False)
         for n in range(8000, 7968, -4)]
    ],
    "sweep": [
        [Step(("verify", "logconcave", "--k", KS, "--horizon", str(h)), N_KS * h)
         for h in (3000, 2990, 2980, 2970)],
        [Step(("verify", "turan3", "--k", KS, "--horizon", str(h)), N_KS * h)
         for h in (1500, 1490, 1480, 1470)],
        [Step(("verify", "subadd", "--k", KS, "--horizon", "200"), _subadd_pairs(2, 9, 200))],
        [Step(("verify", "qbounds", "--k", str(k), "--horizon", str(t + 500)), 501)
         for k, t in ((3, 365), (4, 455), (5, 1120))],
        [Step(("lemmas", "--id", "2.2", "--k", KS, "--a-max", "16"), N_KS * 16)],
        [Step(("lemmas", "--id", "2.3", "--k", KS, "--a-max", "16"), N_KS * 16)],
    ],
}

SMOKE = {
    "points_per_k": 5,
    "asym": Step(
        ("asym", "--k", "2..3", "--n-min", "400", "--n-max", "420", "--step", "10",
         "--output", "csv"),
        6,
    ),
    "table": [[Step(("count", "--k", "2..3", "--n-max", "300", "--output", "csv"), 2 * 301, False)]],
    "sweep": [
        [Step(("verify", "logconcave", "--k", "2..3", "--horizon", "100"), 200)],
        [Step(("verify", "turan3", "--k", "2..3", "--horizon", "100"), 200)],
        [Step(("verify", "subadd", "--k", "2..3", "--horizon", "30"), _subadd_pairs(2, 3, 30))],
        [Step(("verify", "qbounds", "--k", "3", "--horizon", "380"), 16)],
        [Step(("lemmas", "--id", "2.2", "--k", "2..3", "--a-max", "6"), 12)],
        [Step(("lemmas", "--id", "2.3", "--k", "2..3", "--a-max", "6"), 12)],
    ],
}

# Tracer coverage: the layers each workload must hit (calls > 0) and must
# bypass (calls == 0), and call-count inequalities lhs >= rhs that hold only
# if every module's imported name for a function was wrapped.
_INEQ = ["inequalities.scan_thresholds", "inequalities.verify_q_containment",
         "inequalities.q_bounds", "inequalities.q_ratio"]
_COMB = ["combinatorics.verify_lemma", "combinatorics.enumerate_overpartitions",
         "combinatorics.count_overpartitions"]
_CHERN = ["chern.verify_bracket", "chern.verify_corollary_bracket", "chern.main_term",
          "chern.remainder_bound", "chern.estimate"]
COVERAGE = {
    "certify": {
        "hit": ["qseries.pk_series", "qseries.pk", "numerics.bessel_i1", "numerics.mu",
                *_CHERN, "cli.step"],
        "bypass": [*_INEQ, *_COMB],
        "at_least": [("numerics.bessel_i1", "chern.main_term"),
                     ("numerics.mu", "chern.main_term"),
                     ("qseries.pk", "chern.verify_corollary_bracket"),
                     ("chern.main_term", "chern.estimate")],
    },
    "table": {
        "hit": ["qseries.pk_series", "qseries.pk", "cli.step"],
        "bypass": ["numerics.bessel_i1", "numerics.mu", *_CHERN, *_INEQ, *_COMB],
        "at_least": [],
    },
    "sweep": {
        "hit": ["qseries.pk_series", "qseries.pk", "numerics.mu", *_INEQ, *_COMB, "cli.step"],
        "bypass": ["numerics.bessel_i1", *_CHERN],
        "at_least": [("inequalities.q_bounds", "inequalities.verify_q_containment"),
                     ("numerics.mu", "inequalities.q_bounds"),
                     ("inequalities.q_ratio", "inequalities.verify_q_containment"),
                     ("combinatorics.count_overpartitions", "combinatorics.verify_lemma")],
    },
}

TRACED = ["qseries.pk_series", "qseries.pk", "numerics.bessel_i1", "numerics.mu",
          *_CHERN, *_INEQ, *_COMB]
# functions every workload calls; only their times are reported in seconds
EVERYWHERE = ["qseries.pk_series", "qseries.pk"]
MICRO = [
    ("qseries.pk_series.k2_n20000_s", "s"),
    ("numerics.interval_mul_us", "us"),
    ("numerics.interval_div_us", "us"),
    ("numerics.interval_lo_us", "us"),
    ("numerics.bessel_i1.s57_ms", "ms"),
    ("numerics.bessel_i1.s157_ms", "ms"),
    ("numerics.bessel_i1.s206_ms", "ms"),
    ("numerics.dedekind_sum.h7_j499_ms", "ms"),
    ("chern.verify_bracket.k3_n1500_ms", "ms"),
    ("chern.verify_corollary_bracket.k3_n1500_ms", "ms"),
    ("inequalities.verify_q_containment.k3_n800_ms", "ms"),
    ("combinatorics.verify_lemma.l2_3_k9_a20_s", "s"),
]


def end_to_end_units() -> dict[str, str]:
    return {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.pct"] = "%"
        units[f"{name}.self_pct"] = "%"
        if name in EVERYWHERE:
            units[f"{name}.s"] = "s"
            units[f"{name}.self_s"] = "s"
    units.update({
        "qseries.pk_series.max_order": "count",
        "numerics.Interval.ops": "count",
        "numerics.Interval.endpoint_reads": "count",
        "chern.main_term.per_cert": "ratio",
        "inequalities.q_bounds.per_cert": "ratio",
        "combinatorics.enum_cache.hit_ratio": "ratio",
        "combinatorics.enum_cache.currsize": "count",
        "cli.step.calls": "count",
        "cli.step.s": "s",
        "cli.self_s": "s",
        "cli.self_pct": "%",
        "bench.trace_overhead_frac": "ratio",
    })
    for name, unit in MICRO:
        units[f"{name}.p50"] = unit
        units[f"{name}.min"] = unit
    return units


# -- child processes ---------------------------------------------------------


def jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REGOVER_PRECISION", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class ChildResult:
    code: int | None
    wall: float
    report: dict | None
    stdout: Path | None
    stderr: str


def run_child(work: Path, args: list[str], name: str) -> ChildResult:
    """Run child.py with ``args``; its stdout goes to a file in ``work``."""
    out_path, err_path = work / f"{name}.out", work / f"{name}.err"
    report_path = work / f"{name}.json"
    report_path.unlink(missing_ok=True)
    args = [a.replace("{report}", str(report_path)) for a in args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), *args], stdout=out, stderr=err,
                env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        wall = time.perf_counter() - t0
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    stderr = err_path.read_text(errors="replace")
    return ChildResult(code, wall, report, out_path, stderr)


def measure_setup() -> tuple[float, str]:
    """Seconds from spawning a fresh interpreter until it printed "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), "setup"], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
    )
    killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().decode().strip()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("setup child failed to import regover")
    return elapsed, rest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- passes ------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    rss_kb: int = 0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add_child(self, res: ChildResult) -> None:
        self.wall += res.wall
        if res.report:
            self.rss_kb = max(self.rss_kb, res.report.get("rss_kb", 0))
            if "trace" in res.report:
                self.traces.append(res.report["trace"])

    def fail(self, what: str, res: ChildResult | None = None) -> None:
        self.failed += 1
        tail = f": {res.stderr.strip().splitlines()[-1]}" if res and res.stderr.strip() else ""
        self.problems.append(what + tail)


class Runner:
    """Runs one workload's passes and checks every output."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        self.workload = workload
        self.sizes = SMOKE if smoke else FULL
        self.work = work
        self.jobs = jobs()
        self.expected = json.loads(EXPECTED.read_text())["steps"]
        rng = random.Random(f"{workload}:{seed}")
        self.steps: list[Step] = []
        if workload in ("table", "sweep"):
            self.steps = [rng.choice(variants) for variants in self.sizes[workload]]
        self.plan = None
        if workload == "certify":
            self.plan = work / "plan.json"
            res = run_child(work, ["plan", str(seed), str(self.sizes["points_per_k"]),
                                   str(self.plan)], "plan")
            if res.code != 0:
                raise RuntimeError(f"certificate plan failed: {res.stderr.strip()}")
            self.steps = [self.sizes["asym"]]

    def cli_step(self, p: Pass, step: Step, trace: bool) -> None:
        args = list(step.args) + (["--jobs", str(self.jobs)] if step.takes_jobs else [])
        res = run_child(self.work, ["cli", "{report}", str(int(trace)), *args], "cli")
        p.add_child(res)
        p.attempted += 1
        p.items += step.items
        want = self.expected.get(step.key)
        if res.report is None or res.code is None:
            p.fail(f"crashed: {step.key}", res)
        elif want is None:
            p.fail(f"no recorded digest for: {step.key}")
        elif res.code != want["exit"]:
            p.fail(f"exit {res.code}, expected {want['exit']}: {step.key}", res)
        elif _sha256(res.stdout) != want["sha256"]:
            p.fail(f"stdout digest mismatch: {step.key}")

    def certify_step(self, p: Pass, trace: bool) -> None:
        ops = len(json.loads(self.plan.read_text())["ops"])
        res = run_child(self.work, ["certify", str(self.plan), "{report}", str(int(trace))],
                        "certify")
        p.add_child(res)
        p.attempted += ops
        p.items += ops
        if res.code != 0 or res.report is None:
            p.failed += ops
            p.problems.append(f"certify child crashed: {res.stderr.strip()[-300:]}")
            return
        for outcome, seconds in res.report["results"]:
            p.latencies.append(seconds)
            if outcome is not True:
                p.fail(f"certificate returned {outcome}")

    def run_pass(self, trace: bool) -> Pass:
        p = Pass(trace)
        if self.workload == "certify":
            self.certify_step(p, trace)
        for step in self.steps:
            self.cli_step(p, step, trace)
        return p

    def main_width_bits(self) -> float | None:
        res = run_child(self.work, ["width", str(self.plan), "{report}"], "width")
        return res.report["median_bits"] if res.code == 0 and res.report else None


# -- metrics -----------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th decile, as statistics.quantiles(values, n=10) gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    hits = misses = currsize = max_order = 0
    for tr in traces:
        for name, (calls, incl, self_s) in tr["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        for name, value in tr["counts"].items():
            counts[name] = counts.get(name, 0) + value
        max_order = max(max_order, tr["max_order"])
        cache = tr.get("enum_cache")
        if cache:
            hits += cache["hits"]
            misses += cache["misses"]
            currsize = max(currsize, cache["currsize"])
    return {"spans": spans, "counts": counts, "max_order": max_order,
            "hits": hits, "misses": misses, "currsize": currsize}


def layer_metrics(p: Pass) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and every span's seconds."""
    tr = merge_traces(p.traces)
    spans = tr["spans"]
    wall = p.wall

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    m: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for name in TRACED:
        n, incl, self_s = spans.get(name, [0, 0.0, 0.0])
        m[f"{name}.calls"] = n
        m[f"{name}.pct"] = 100.0 * incl / wall
        m[f"{name}.self_pct"] = 100.0 * self_s / wall
        seconds[f"{name}.s"] = incl
        seconds[f"{name}.self_s"] = self_s
        if name in EVERYWHERE:
            m[f"{name}.s"] = incl
            m[f"{name}.self_s"] = self_s
    n, incl, self_s = spans.get("cli.step", [0, 0.0, 0.0])
    m.update({"cli.step.calls": n, "cli.step.s": incl, "cli.self_s": self_s,
              "cli.self_pct": 100.0 * self_s / wall})
    m["qseries.pk_series.max_order"] = tr["max_order"]
    m.update(tr["counts"])
    certs = sum(calls(f"chern.{f}") for f in ("verify_bracket", "verify_corollary_bracket", "estimate"))
    m["chern.main_term.per_cert"] = calls("chern.main_term") / certs if certs else 0.0
    q = calls("inequalities.verify_q_containment")
    m["inequalities.q_bounds.per_cert"] = calls("inequalities.q_bounds") / q if q else 0.0
    lookups = tr["hits"] + tr["misses"]
    m["combinatorics.enum_cache.hit_ratio"] = tr["hits"] / lookups if lookups else 0.0
    m["combinatorics.enum_cache.currsize"] = tr["currsize"]
    return m, seconds


def coverage_problems(workload: str, m: dict[str, float]) -> list[str]:
    rules = COVERAGE[workload]
    problems = [f"{n} not called" for n in rules["hit"] if m[f"{n}.calls"] <= 0]
    problems += [f"{n} called {m[f'{n}.calls']:.0f} times, expected 0"
                 for n in rules["bypass"] if m[f"{n}.calls"] != 0]
    problems += [f"{a}.calls < {b}.calls" for a, b in rules["at_least"]
                 if m[f"{a}.calls"] < m[f"{b}.calls"]]
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 work: Path) -> dict:
    result = {"workload": workload, "seed": seed, "problems": []}
    metrics: dict[str, float] = {}
    extra: dict[str, float] = {}
    attempted = failed = 0

    if not trace:
        setups = [measure_setup()[0] for _ in range(1 if smoke else SETUP_SAMPLES)]
        metrics["setup_s"] = statistics.median(setups)

    runner = Runner(workload, seed, smoke, work)
    micro = None
    if trace:
        res = run_child(work, ["micro", "{report}", str(1 if smoke else MICRO_REPEATS)], "micro")
        attempted += 1
        if res.code == 0 and res.report:
            micro = res.report["micro"]
        else:
            failed += 1
            result["problems"].append(f"microbenchmarks crashed: {res.stderr.strip()[-300:]}")

    # Closed loop: start another pass only while it is expected to finish
    # within the time left.  A traced run alternates untraced and traced
    # passes so that both see the same conditions.
    passes: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        tracing_now = trace and len(passes) % 2 == 1
        passes.append(runner.run_pass(tracing_now))
        elapsed = time.perf_counter() - t_start
        needed = 2 if trace else 1
        typical = statistics.median(p.wall for p in passes)
        if len(passes) >= needed and elapsed + typical > seconds:
            break
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    for p in passes:
        attempted += p.attempted
        failed += p.failed
        result["problems"] += p.problems

    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        for name in per_pass[0][0]:
            metrics[name] = statistics.median(pm[name] for pm, _ in per_pass)
        for name in per_pass[0][1]:
            extra[name] = statistics.median(ps[name] for _, ps in per_pass)
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1
        )
        for name, _ in MICRO:
            for stat in ("p50", "min"):
                metrics[f"{name}.{stat}"] = micro[name][stat] if micro else 0.0
        problems = coverage_problems(workload, metrics)
        attempted += 1
        failed += bool(problems)
        result["problems"] += [f"tracer coverage: {problem}" for problem in problems]
    else:
        walls = [p.wall for p in plain]
        metrics["wall_s"] = statistics.median(walls)
        metrics["items_per_s"] = statistics.median(p.items / p.wall for p in plain)
        metrics["peak_rss_mb"] = statistics.median(p.rss_kb for p in plain) / 1024
        extra["passes"] = len(plain)
        result["pass_walls"] = walls
        if workload == "certify":
            lat = [s * 1e3 for p in plain for s in p.latencies]
            extra["cert_p50_ms"] = quantile(lat, 5)
            extra["cert_p90_ms"] = quantile(lat, 9)
            extra["certificates"] = len(lat)
            bits = runner.main_width_bits()
            attempted += 1
            if bits is None:
                failed += 1
                result["problems"].append("main_term width child crashed")
            else:
                extra["main_rel_width_bits"] = bits
                if bits < WIDTH_FLOOR_BITS:
                    failed += 1
                    result["problems"].append(
                        f"main_term width {bits:.1f} bits is below {WIDTH_FLOOR_BITS}")
    extra["fail_frac"] = failed / attempted
    result.update(metrics=metrics, extra=extra, attempted=attempted, failed=failed,
                  correct=failed == 0)
    return result


# -- reporting ---------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


EXTRA_UNITS = {"cert_p50_ms": "ms", "cert_p90_ms": "ms", "main_rel_width_bits": "bits",
               "fail_frac": "ratio", "passes": "count", "certificates": "count"}


def print_result(result: dict, units: dict[str, str]) -> None:
    print(f"== {result['workload']} (seed {result['seed']})")
    for name, unit in units.items():
        print(f"{name} = {result['metrics'][name]!r} {unit}")
    for name, value in result["extra"].items():
        if name not in units:
            print(f"{name} = {value!r} {EXTRA_UNITS.get(name, 's')}")
    if "pass_walls" in result:
        print("pass walls (s): " + " ".join(f"{w:.3f}" for w in result["pass_walls"]))
    print(f"attempted = {result['attempted']}, failed = {result['failed']}")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the harness's own tests")
    ap.add_argument("--out", type=Path, help="also write the full results as JSON here")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "regover" / "cli.py").is_file():
        print(f"regover sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit, so that the running child is killed and
    # waited for (subprocess.run does so on any exception) and work is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    trace = bool(args.trace)
    units = per_layer_units() if trace else end_to_end_units()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        _, env_line = measure_setup()
        env = (f"nproc={len(os.sched_getaffinity(0))} jobs={jobs()} {env_line} "
               f"commit={git_commit()} seconds={args.seconds:g} trace={args.trace}"
               + (" smoke" if args.smoke else ""))
        print(f"env: {env}")
        results = []
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, trace, args.smoke, work)
            print_result(result, units)
            results.append(result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.out:
        args.out.write_text(json.dumps({"env": env, "results": results}, indent=1))
    if len(results) == 1:
        metrics = {name: {"value": results[0]["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": r["metrics"][name], "unit": unit}
                   for r in results for name, unit in units.items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
