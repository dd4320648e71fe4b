"""Tests of the benchmark harness, run in smoke mode on tiny inputs.

    python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import covered_length  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    else:
        calls = {k: v["value"] for k, v in last["metrics"].items() if k.endswith(".calls")}
        assert (calls["numerics.bessel_i1.calls"] > 0) == (workload == "certify")
        assert (calls["combinatorics.verify_lemma.calls"] > 0) == (workload == "sweep")


def test_benchmark_json_names_only_bench_files():
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.end_to_end_units())
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.per_layer_units())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_mismatch_and_wrong_exit_count_as_failures(tmp_path):
    runner = run.Runner("sweep", 1, True, tmp_path)
    subadd = next(s for s in runner.steps if "subadd" in s.args)
    qbounds = next(s for s in runner.steps if "qbounds" in s.args)
    runner.expected = json.loads(json.dumps(runner.expected))
    runner.expected[subadd.key]["exit"] = 0
    runner.expected[qbounds.key]["sha256"] = "0" * 64
    p = run.Pass(traced=False)
    runner.cli_step(p, subadd, False)
    runner.cli_step(p, qbounds, False)
    assert (p.attempted, p.failed) == (2, 2)
    assert "exit 1, expected 0" in p.problems[0]
    assert "digest mismatch" in p.problems[1]


def test_certificate_plan_is_seeded_and_in_range(tmp_path):
    runner = run.Runner("certify", 5, True, tmp_path)
    first = json.loads(runner.plan.read_text())
    again = json.loads(run.Runner("certify", 5, True, tmp_path).plan.read_text())
    other = json.loads(run.Runner("certify", 6, True, tmp_path).plan.read_text())
    assert first == again and first != other
    assert {k for k, _ in first["points"]} == set(range(2, 9))
    assert all(n <= 5000 for _, n in first["points"])
    brackets = {(k, n) for kind, k, n, _ in first["ops"] if kind == "bracket"}
    assert brackets == {(k, n) for k, n in first["points"] if n <= 1500}
    assert {p for *_, p in first["ops"]} == {None, 384}


def test_coverage_check_flags_a_bypassed_or_hit_layer():
    metrics = {f"{n}.calls": 1 for n in run.TRACED + ["cli.step"]}
    problems = run.coverage_problems("table", metrics)
    assert "numerics.bessel_i1 called 1 times, expected 0" in problems
    metrics = {f"{n}.calls": 0 for n in run.TRACED + ["cli.step"]}
    assert "inequalities.q_bounds not called" in run.coverage_problems("sweep", metrics)


def test_covered_length_merges_overlapping_children():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    assert covered_length([(-1.0, 0.2), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.3)
