"""Compare a parent commit with a change on one workload, in alternating pairs.

    python3 bench/compare.py --base ../parent --change . --workload certify

Both trees must hold the same bench/ directory (copy it into the parent's
checkout first), so that both sides run identical benchmark code.  Pair i
runs seed i on both trees, alternating which side runs first.  For every
metric the script prints each side's median and quartiles, how many pairs
the change won, and a verdict by the rule in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BOUNDS = {m["name"]: m for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
# printed-only metrics of certify, with the direction that is better
EXTRA_BETTER = {"cert_p50_ms": "lower", "cert_p90_ms": "lower",
                "main_rel_width_bits": "higher", "fail_frac": "lower"}


def run_once(tree: Path, workload: str, seed: int, seconds: int, out: Path) -> dict:
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--out", str(out)],
        cwd=tree, check=True, stdout=subprocess.DEVNULL,
    )
    result = json.loads(out.read_text())["results"][0]
    return {**result["metrics"], **result["extra"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(name: str, base: list[float], change: list[float]) -> str:
    better = BOUNDS[name]["better"] if name in BOUNDS else EXTRA_BETTER.get(name)
    if better is None:
        return ""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    q1, med_b, q3 = quartiles(base)
    med_c = statistics.median(change)
    text = f"change won {wins}/{len(base)}"
    if wins >= 0.9 * len(base) and abs(med_c - med_b) > q3 - q1:
        return text + ", gain"
    bound = BOUNDS.get(name, {}).get("bound")
    if bound is not None:
        worse = -sign * (med_c - med_b) / med_b
        if (q3 - q1) / med_b > bound and not all(sign * (c - b) > 0 for b in base for c in change):
            return text + ", unresolved (spread above bound)"
        if worse > bound:
            return text + f", regression ({100 * worse:.1f}% > {100 * bound:.0f}%)"
        return text + ", within bound"
    return text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()

    work = BENCH / "_work"
    work.mkdir(exist_ok=True)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for seed in range(1, args.pairs + 1):
        order = ("base", "change") if seed % 2 else ("change", "base")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, args.seconds,
                                       work / f"compare_{side}.json"))
        print(f"pair {seed}: done", file=sys.stderr)
    for name in runs["base"][0]:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        bq = quartiles(base)
        cq = quartiles(change)
        print(f"{name:24} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {verdict(name, base, change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
