"""CLI contract: subcommands, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
from click.testing import CliRunner

from regover import chern, cli, combinatorics, inequalities
from regover.cli import (
    A_MAX_CEILING,
    N_MAX_CEILING,
    SUBADD_HORIZON_CEILING,
    TOTAL_MAX_CEILING,
    main,
)
from regover.numerics import Interval, PrecisionExhausted
from regover.qseries import pk, warm_cache

from conftest import SUBADD_COUNTEREXAMPLES


@pytest.fixture
def runner():
    return CliRunner()


def rows_from_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def reference_count(ks, ns, output):
    """count's stdout rendered the slow way: one pk() call and dict per row."""
    rows = [{"k": k, "n": n, "count": str(pk(k, n))} for k in ks for n in ns]
    if output == "table" and len(rows) == 1:
        return rows[0]["count"] + "\n"  # a single cell prints bare
    return render_rows(rows, output)


def render_rows(rows, output):
    """Rows of identical keys as a padded table, CSV or a JSON array."""
    if output == "json":
        return json.dumps(rows) + "\n"
    lines = [list(rows[0])] + [
        [str(v).lower() if isinstance(v, bool) else str(v) for v in row.values()]
        for row in rows
    ]
    if output == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        return buf.getvalue()
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "".join(
        "  ".join(v.ljust(w) for v, w in zip(line, widths)) + "\n" for line in lines
    )


class TestCount:
    def test_single_value_prints_one_integer(self, runner):
        result = runner.invoke(main, ["count", "--k", "2", "--n", "10"])
        assert result.exit_code == 0
        assert result.stdout.strip() == "40"

    def test_grid_csv(self, runner):
        result = runner.invoke(
            main, ["count", "--k", "2..9", "--n-max", "50", "--output", "csv"]
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.stdout)
        assert len(rows) == 8 * 51
        assert rows[0] == {"k": "2", "n": "0", "count": "1"}
        by_key = {(r["k"], r["n"]): r["count"] for r in rows}
        assert by_key[("3", "4")] == "10"

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["count", "--k", "3", "--n-max", "3", "--output", "json"]
        )
        data = json.loads(result.stdout)
        assert [d["count"] for d in data] == ["1", "2", "4", "6"]

    def test_k_one_is_usage_error(self, runner):
        result = runner.invoke(main, ["count", "--k", "1", "--n", "5"])
        assert result.exit_code == 2

    def test_malformed_range_is_usage_error(self, runner):
        for bad in ("2..x", "9..2", "2-9", ""):
            result = runner.invoke(main, ["count", "--k", bad, "--n", "5"])
            assert result.exit_code == 2, bad

    def test_requires_exactly_one_of_n_and_nmax(self, runner):
        assert runner.invoke(main, ["count", "--k", "2"]).exit_code == 2
        result = runner.invoke(
            main, ["count", "--k", "2", "--n", "3", "--n-max", "5"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("output", ["csv", "json", "table"])
    @pytest.mark.parametrize(
        "args, ks, ns",
        [
            # table widths change as the counts gain digits
            (["--k", "2..9", "--n-max", "300"], range(2, 10), range(301)),
            (["--k", "5", "--n-max", "0"], [5], [0]),
            (["--k", "2..3", "--n", "7"], [2, 3], [7]),
        ],
        ids=["k2-9-n300", "k5-n0", "k2-3-n7"],
    )
    def test_rows_match_reference_renderer(self, runner, args, ks, ns, output):
        result = runner.invoke(main, ["count", *args, "--output", output])
        assert result.exit_code == 0
        got, want = result.stdout, reference_count(ks, ns, output)
        # report the first differing character: pytest's diff of two long
        # one-line JSON strings takes minutes
        at = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        near = slice(max(at - 40, 0), at + 40)
        assert len(got) == len(want) == at, (at, got[near], want[near])

    def test_n_max_stops_short_of_a_longer_table(self, runner):
        assert len(warm_cache(3, 1000)) > 11
        for output, lines in (("csv", 12), ("table", 12), ("json", 1)):
            result = runner.invoke(
                main, ["count", "--k", "3", "--n-max", "10", "--output", output]
            )
            assert result.exit_code == 0
            assert result.stdout.count("\n") == lines, output
        data = json.loads(result.stdout)
        assert [d["n"] for d in data] == list(range(11))
        assert data[-1]["count"] == str(pk(3, 10))

    def test_deterministic(self, runner):
        args = ["count", "--k", "2..4", "--n-max", "20", "--output", "csv"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout


class TestVerify:
    def test_subadd_clean_k_exits_zero(self, runner):
        result = runner.invoke(
            main,
            ["verify", "subadd", "--k", "3..9", "--horizon", "60", "--output", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert len(data) == 7
        assert all(d["exceptions_below"] == [] for d in data)

    def test_subadd_k2_counterexamples_exit_one(self, runner):
        result = runner.invoke(
            main,
            ["verify", "subadd", "--k", "2", "--horizon", "60", "--output", "json"],
        )
        assert result.exit_code == 1
        data = json.loads(result.stdout)
        assert data[0]["exceptions_below"] == [
            [a, b] for k, a, b in SUBADD_COUNTEREXAMPLES if k == 2
        ]

    def test_logconcave_report(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "logconcave", "--k", "2..9",
                "--horizon", "150", "--output", "csv",
            ],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.stdout)
        observed = {r["k"]: r["observed_min_threshold"] for r in rows}
        assert observed == {
            "2": "21", "3": "4", "4": "5", "5": "6",
            "6": "1", "7": "1", "8": "1", "9": "1",
        }
        eq = {r["k"]: r["equalities"] for r in rows}
        assert eq["3"] == "1;6" and eq["2"] == ""

    def test_turan3_observed_at_most_published(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "turan3", "--k", "2", "--horizon", "150",
                "--output", "json",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert data[0]["observed_min_threshold"] <= 65

    def test_qbounds_short_horizon_names_threshold(self, runner):
        result = runner.invoke(
            main, ["verify", "qbounds", "--k", "8", "--horizon", "9000"]
        )
        assert result.exit_code == 2
        assert "10422" in result.stderr

    def test_qbounds_small_sweep(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "qbounds", "--k", "3", "--horizon", "400",
                "--output", "csv",
            ],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.stdout)
        assert rows[0]["n"] == "365" and rows[-1]["n"] == "400"
        assert all(r["verdict"] == "true" for r in rows)

    def test_horizon_below_published_threshold_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["verify", "turan3", "--k", "2", "--horizon", "10"]
        )
        assert result.exit_code == 2

    def test_bad_precision_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            [
                "verify", "qbounds", "--k", "3", "--horizon", "366",
                "--precision", "16",
            ],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("bits", ["16", "63"], ids=["option-16", "option-63"])
    def test_exact_scan_rejects_bad_precision(self, runner, bits):
        # the exact scans never read the precision, but validate it all the same
        result = runner.invoke(
            main, ["verify", "turan3", "--k", "2..9", "--precision", bits]
        )
        assert result.exit_code == 2
        assert f"precision must be >= 64 bits, got {bits}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("output", ["csv", "json", "table"])
    @pytest.mark.parametrize(
        "ks, horizon",
        [([3, 4], 1000), ([6], 2055), ([9], 8200)],
        ids=["k3-4-h1000", "k6-one-row", "k9-h8200"],
    )
    def test_qbounds_rows_match_reference_renderer(self, runner, ks, horizon, output):
        # rows are streamed as they are decided; the bytes must be those of
        # the rows rendered all at once
        spec = f"{ks[0]}..{ks[-1]}"
        result = runner.invoke(
            main,
            ["verify", "qbounds", "--k", spec, "--horizon", str(horizon),
             "--output", output],
        )
        assert result.exit_code == 0
        rows = [
            {"k": k, "n": n, "property": "qbounds",
             "verdict": inequalities.verify_q_containment(k, n)}
            for k in ks
            for n in range(inequalities.QBOUND_THRESHOLDS[k], horizon + 1)
        ]
        assert result.stdout == render_rows(rows, output)

    def test_qbounds_undecided_row_exits_three_after_earlier_rows(
        self, runner, monkeypatch
    ):
        decide = inequalities.verify_q_containment

        def undecided_at_370(k, n, precision=None):
            if n == 370:
                raise PrecisionExhausted(f"Q containment for k={k}, n={n} inconclusive")
            return decide(k, n, precision)

        monkeypatch.setattr(inequalities, "verify_q_containment", undecided_at_370)
        result = runner.invoke(
            main, ["verify", "qbounds", "--k", "3", "--horizon", "400", "--output", "csv"]
        )
        assert result.exit_code == 3
        assert "precision exhausted" in result.stderr and "n=370" in result.stderr
        assert [r["n"] for r in rows_from_csv(result.stdout)] == [
            str(n) for n in range(365, 370)
        ]


class TestAsym:
    @pytest.mark.parametrize("value", ["64", "abc"])
    def test_precision_environment_variable_is_ignored(
        self, runner, monkeypatch, value
    ):
        # --precision is the only precision setting: a REGOVER_PRECISION in
        # the environment changes neither the rows nor the exit code
        args = ["asym", "--k", "3", "--n-min", "600", "--n-max", "700",
                "--step", "50", "--output", "csv"]
        monkeypatch.delenv("REGOVER_PRECISION", raising=False)
        plain = runner.invoke(main, args)
        monkeypatch.setenv("REGOVER_PRECISION", value)
        with_env = runner.invoke(main, args)
        assert plain.exit_code == 0
        assert (with_env.exit_code, with_env.stdout) == (0, plain.stdout)

    def test_bracket_rows(self, runner):
        result = runner.invoke(
            main,
            [
                "asym", "--k", "2", "--n-min", "95", "--n-max", "105",
                "--step", "5", "--output", "csv",
            ],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.stdout)
        assert [r["n"] for r in rows] == ["95", "100", "105"]
        below, above = rows[0], rows[1]
        # mu(2, 95) ~ 21.7 < 22: below threshold, flagged not failed
        assert below["inside"] == "n/a" and below["rprime_hi"] == "n/a"
        assert above["inside"] == "true"
        assert above["exact"] == "29025326"
        assert above["mu"].startswith("[") and above["mu"].endswith("]")

    def test_rel_width_shrinks(self, runner):
        result = runner.invoke(
            main,
            [
                "asym", "--k", "3", "--n-min", "500", "--n-max", "1000",
                "--step", "500", "--output", "json",
            ],
        )
        rows = json.loads(result.stdout)

        def upper(cell):
            return float(cell[1:-1].split(",")[1])

        assert upper(rows[1]["rel_width"]) < upper(rows[0]["rel_width"])

    def test_no_bare_floats_in_machine_output(self, runner):
        result = runner.invoke(
            main,
            [
                "asym", "--k", "2", "--n-min", "100", "--n-max", "100",
                "--output", "json",
            ],
        )
        row = json.loads(result.stdout)[0]
        for key in ("mu", "rel_width"):
            assert row[key].startswith("[") and row[key].endswith("]")
        for key, value in row.items():
            assert not isinstance(value, float), key

    def test_bad_range_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["asym", "--k", "2", "--n-min", "10", "--n-max", "5"]
        )
        assert result.exit_code == 2

    def test_undecidable_row_exits_three(self, runner, monkeypatch):
        # a bracket that only overlaps the count is no certificate
        exact = pk(2, 1000)
        monkeypatch.setattr(
            chern,
            "remainder_bound",
            lambda k, n, prec: Interval.from_endpoints(0, 2 * exact, prec),
        )
        result = runner.invoke(
            main, ["asym", "--k", "2", "--n-min", "1000", "--n-max", "1000"]
        )
        assert result.exit_code == 3
        assert "precision exhausted" in result.stderr


class TestLemmas:
    def test_single_sided_sweep_csv(self, runner):
        result = runner.invoke(
            main,
            [
                "lemmas", "--id", "2.3", "--k", "4", "--a-max", "8",
                "--output", "csv",
            ],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.stdout)
        assert len(rows) == 8
        assert all(r["injective"] == "true" for r in rows)

    def test_k2_equality_exits_one(self, runner):
        # lhs == rhs at a=2 for every k except 3: strict claim fails
        result = runner.invoke(
            main, ["lemmas", "--id", "2.2", "--k", "2", "--a-max", "5"]
        )
        assert result.exit_code == 1

    def test_cardinality_mode_notice(self, runner):
        result = runner.invoke(
            main, ["lemmas", "--id", "2.1", "--k", "3", "--total-max", "6"]
        )
        assert result.exit_code == 0
        assert "cardinality only" in result.stderr

    def test_two_sided_map_mode_for_large_k(self, runner):
        result = runner.invoke(
            main,
            [
                "lemmas", "--id", "2.1", "--k", "7", "--total-max", "8",
                "--output", "json",
            ],
        )
        assert result.exit_code == 0
        data = json.loads(result.stdout)
        assert all(d["holds"] for d in data)
        assert any(d["mode"] == "map" for d in data)

    def test_unknown_id_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["lemmas", "--id", "9.9", "--k", "2", "--a-max", "3"]
        )
        assert result.exit_code == 2

    # stdout digests of the two-sided sweeps, recorded before lemma 2.1's map
    # moved onto raw part tuples; both sweeps meet the known k = 2
    # exceptions, so both exit 1
    PINNED = {
        ("2.1", "csv"): "0db26f6b144f808b783fbbe63f34e262e4e1bab2c6cd9bc59073c1cf786cb100",
        ("2.1", "json"): "6787dcfcfec8b5d990687497df882fdaf0158488e2606d0b0f5f1358a5757892",
        ("2.4", "csv"): "fa45677413116852aeecfd8e3ac06fa3a0017f4cca4f94a11254f855eb598d80",
        ("2.4", "json"): "df6310c773e29d20330f54821621193e9116077f11957e09cdd7c6e25ad8156e",
    }

    @pytest.mark.parametrize("lemma_id, output", list(PINNED))
    def test_two_sided_output_pinned(self, runner, lemma_id, output):
        result = runner.invoke(
            main,
            ["lemmas", "--id", lemma_id, "--k", "2..9", "--total-max", "14",
             "--output", output],
        )
        assert result.exit_code == 1
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.PINNED[lemma_id, output]


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in this thread if the block runs ``seconds`` long."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    # every forked worker has been waited for: this process has no child
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestJobs:
    @pytest.fixture
    def three_cpus(self, monkeypatch):
        # three processes, two of them forked, by default or at --jobs 3,
        # whatever this host has
        monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "_DEFAULT_JOBS", 3)
        assert cli._worker_count(None, 8) == cli._worker_count(3, 8) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["lemmas", "--id", "2.2", "--k", "5..6", "--a-max", "6"],
            ["asym", "--k", "2..3", "--n-min", "400", "--n-max", "420", "--step", "10"],
            ["verify", "qbounds", "--k", "3", "--horizon", "380"],
            ["verify", "logconcave", "--k", "2..4", "--horizon", "100"],
        ],
        ids=["lemmas", "asym", "qbounds", "logconcave"],
    )
    def test_jobs_flag_does_not_change_output(self, runner, args):
        base = args + ["--output", "csv"]
        one = runner.invoke(main, base + ["--jobs", "1"])
        four = runner.invoke(main, base + ["--jobs", "4"])
        assert one.stdout and one.stdout == four.stdout
        assert one.exit_code == four.exit_code

    @pytest.mark.parametrize(
        "args",
        [
            [*count, "--output", output]
            for count in (
                ["count", "--k", "2..9", "--n-max", "300"],
                ["count", "--k", "2..3", "--n-max", "300"],
                ["count", "--k", "2..9", "--n", "150"],
                ["count", "--k", "2..3", "--n", "7"],
            )
            for output in ("csv", "json", "table")
        ] + [
            ["lemmas", "--id", "2.1", "--k", "2..9", "--total-max", "10"],
            ["lemmas", "--id", "2.3", "--k", "2..9", "--a-max", "10", "--output", "json"],
        ],
        ids=[
            f"count-{ks}-{n}-{output}"
            for ks, n in (("2-9", "nmax"), ("2-3", "nmax"), ("2-9", "n"), ("2-3", "n"))
            for output in ("csv", "json", "table")
        ] + ["lemmas-2.1", "lemmas-2.3"],
    )
    def test_same_output_at_every_job_count(self, runner, monkeypatch, three_cpus, args):
        results = []
        with deadline(60):
            for processes in (1, 2, 3):
                # count runs in the default number; lemmas gets --jobs too
                monkeypatch.setattr(cli, "_DEFAULT_JOBS", processes)
                jobs = ["--jobs", str(processes)] if args[0] == "lemmas" else []
                results.append(runner.invoke(main, args + jobs))
        assert_no_child_left()
        one = results[0]
        assert one.stdout
        if args[0] == "lemmas":
            assert one.exit_code == 1
        for other in results[1:]:
            assert (other.exit_code, other.stdout, other.stderr) == (
                one.exit_code, one.stdout, one.stderr
            )

    def test_lemma_notice_at_every_job_count(self, runner, three_cpus):
        args = ["lemmas", "--id", "2.1", "--k", "2..9", "--total-max", "10"]
        for jobs in ("1", "3"):
            result = runner.invoke(main, args + ["--jobs", jobs])
            assert result.exit_code == 1
            assert "cardinality only" in result.stderr

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize(
        "args",
        [
            ["lemmas", "--id", "2.2", "--k", "3", "--a-max", "3"],
            ["verify", "turan3", "--k", "3", "--horizon", "40"],
            ["asym", "--k", "3", "--n-min", "400", "--n-max", "400"],
        ],
        ids=["lemmas", "verify", "asym"],
    )
    def test_jobs_below_one_is_usage_error(self, runner, args, jobs):
        result = runner.invoke(main, args + ["--jobs", jobs])
        assert result.exit_code == 2
        assert "--jobs" in result.stderr and result.stdout == ""

    def test_worker_count_is_capped_by_cpus_and_units(self, monkeypatch):
        # only the count is worked out: no process is started here
        monkeypatch.setattr(cli, "_cpu_count", lambda: 4)
        assert cli._worker_count(None, 8) == 1
        monkeypatch.setattr(cli, "_DEFAULT_JOBS", 4)
        assert cli._worker_count(None, 8) == 3
        assert cli._worker_count(10**6, 8) == 3
        assert cli._worker_count(10**6, 2) == 1
        assert cli._worker_count(2, 8) == 1
        assert cli._worker_count(1, 8) == 0
        assert cli._worker_count(10**6, 1) == 0
        monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
        assert cli._worker_count(None, 8) == 0

    def test_no_fork_beside_another_thread_or_without_fork(self, monkeypatch):
        monkeypatch.setattr(cli, "_cpu_count", lambda: 4)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(30,))
        thread.start()
        try:
            assert cli._worker_count(4, 8) == 0
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert cli._worker_count(4, 8) == 3
        monkeypatch.delattr(os, "fork")
        assert cli._worker_count(4, 8) == 0

    def test_shares_are_contiguous_and_balanced(self):
        ks = list(range(2, 10))
        assert cli._shares(ks, lambda k: 1, 1) == [ks]
        assert cli._shares(ks, lambda k: 1, 2) == [ks[:4], ks[4:]]
        assert cli._shares(ks, lambda k: 5 if k == 2 else 1, 2) == [ks[:2], ks[2:]]
        assert cli._shares(ks, lambda k: 20 if k == 9 else 1, 3) == [
            ks[:6], ks[6:7], ks[7:]
        ]
        for parts in range(1, 9):
            shares = cli._shares(ks, lambda k: k ** -0.5, parts)
            assert len(shares) == parts and all(shares)
            assert [k for share in shares for k in share] == ks

    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--k", "2..9", "--n-max", "60", "--output", "csv"],
            ["count", "--k", "2..9", "--n-max", "60", "--output", "table"],
            ["lemmas", "--id", "2.2", "--k", "2..9", "--a-max", "6"],
        ],
        ids=["count-csv", "count-table", "lemmas"],
    )
    @pytest.mark.parametrize(
        "failing_k, error",
        [(9, ValueError), (2, ValueError), (2, KeyboardInterrupt)],
        ids=["child-fails", "parent-fails", "parent-interrupted"],
    )
    def test_failure_waits_for_every_child(
        self, runner, monkeypatch, three_cpus, args, failing_k, error
    ):
        # k = 9 lies in the last child's share and k = 2 in the parent's
        module, name = (
            (cli, "warm_cache") if args[0] == "count"
            else (combinatorics, "verify_lemma")
        )
        real = getattr(module, name)

        def failing(*a):
            if failing_k in a[:2]:
                raise error(f"planted failure at k={failing_k}")
            return real(*a)

        monkeypatch.setattr(module, name, failing)
        with deadline(60):
            result = runner.invoke(main, args)
        assert_no_child_left()
        assert result.exit_code != 0
        if error is KeyboardInterrupt:
            assert "Aborted" in result.stderr
        else:
            assert "planted failure at k=" in str(result.exception)
        if failing_k == 9:
            assert isinstance(result.exception, RuntimeError)
            assert "worker for k in [" in str(result.exception)
            assert "ValueError: planted failure at k=9" in str(result.exception)

    def test_child_failing_while_it_writes(self, runner, monkeypatch, three_cpus):
        # the last child has built its tables and sent part of its rows
        real = cli._count_blocks

        def failing(ks, *a):
            yield from real(ks, *a)
            if 9 in ks:
                raise ValueError("planted failure after the rows")

        monkeypatch.setattr(cli, "_count_blocks", failing)
        with deadline(60):
            result = runner.invoke(main, ["count", "--k", "2..9", "--n-max", "60"])
        assert_no_child_left()
        assert isinstance(result.exception, RuntimeError)
        assert "worker for k in [" in str(result.exception)
        assert "exit status 1" in str(result.exception)


class TestResourceCeilings:
    @staticmethod
    def forbid_work(monkeypatch):
        def no_work(*_args, **_kwargs):
            raise AssertionError("work started on a refused input")

        # the subcommands look estimate and verify_lemma up on their home
        # modules when they run
        for module, name in [
            (cli, "warm_cache"),
            (cli, "pk"),
            (chern, "estimate"),
            (combinatorics, "verify_lemma"),
            (inequalities, "scan_thresholds"),
            (inequalities, "verify_q_containment"),
        ]:
            monkeypatch.setattr(module, name, no_work)

    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--k", "2..9", "--n-max", str(N_MAX_CEILING + 1), "--output", "csv"],
            ["count", "--k", "2", "--n", str(N_MAX_CEILING + 1)],
            ["asym", "--k", "2..9", "--n-min", "1000", "--n-max", str(N_MAX_CEILING + 1)],
            ["lemmas", "--id", "2.3", "--k", "2..9", "--a-max", str(A_MAX_CEILING + 1)],
            ["lemmas", "--id", "2.1", "--k", "2..9", "--total-max", str(TOTAL_MAX_CEILING + 1)],
            ["verify", "logconcave", "--k", "2..9", "--horizon", str(N_MAX_CEILING + 1)],
            ["verify", "turan3", "--k", "9", "--horizon", str(N_MAX_CEILING + 1)],
            ["verify", "qbounds", "--k", "3", "--horizon", str(N_MAX_CEILING + 1)],
            ["verify", "subadd", "--k", "2", "--horizon", str(SUBADD_HORIZON_CEILING + 1)],
        ],
        ids=[
            "count-n-max", "count-n", "asym", "lemmas", "lemmas-total-max",
            "logconcave", "turan3", "qbounds", "subadd",
        ],
    )
    def test_ceiling_plus_one_exits_two_at_once(self, runner, monkeypatch, args):
        self.forbid_work(monkeypatch)
        started = time.monotonic()
        result = runner.invoke(main, args)
        assert time.monotonic() - started < 1
        assert result.exit_code == 2
        assert "exceeds the resource ceiling" in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["asym", "--k", "2..9", "--n-min", "0", "--n-max", "50000"],
                "need 1 <= n-min <= n-max and step >= 1",
            ),
            (
                ["asym", "--k", "3", "--n-min", "600", "--n-max", "600",
                 "--precision", "769"],
                "precision must be <= 768 bits, got 769",
            ),
            (
                ["verify", "qbounds", "--k", "3", "--horizon", "400",
                 "--precision", "769"],
                "precision must be <= 768 bits, got 769",
            ),
            (
                ["verify", "turan3", "--k", "2..9", "--precision", "769"],
                "precision must be <= 768 bits, got 769",
            ),
        ],
        ids=["asym-n-min-0", "asym-precision", "qbounds-precision", "turan3-precision"],
    )
    def test_refused_before_any_table(self, runner, monkeypatch, args, message):
        # n = 0 has no mu, and certified comparisons never escalate past
        # MAX_PRECISION: both are usage errors before any table is built
        self.forbid_work(monkeypatch)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["asym", "--k", "3", "--n-min", "600", "--n-max", "600",
             "--precision", "768", "--output", "csv"],
            ["verify", "qbounds", "--k", "3", "--horizon", "366",
             "--precision", "768", "--output", "csv"],
        ],
        ids=["asym", "qbounds"],
    )
    def test_max_precision_is_accepted(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert rows_from_csv(result.stdout)

    def test_ceilings_cover_the_benchmark_and_test_sizes(self):
        # the benchmark's largest count --n-max (8000) and verify --horizon
        # (3000 logconcave, 200 subadd), the default qbounds horizons, and the
        # lemmas defaults --a-max 20 and --total-max 18 (criterion 3's
        # ranges) must stay accepted
        qbounds_defaults = [cli._default_horizon("qbounds", k) for k in range(2, 10)]
        assert N_MAX_CEILING >= max(8000, *qbounds_defaults)
        assert A_MAX_CEILING >= 20
        assert SUBADD_HORIZON_CEILING >= 200 and TOTAL_MAX_CEILING >= 18

    def test_subadd_at_its_ceiling_is_accepted(self, runner, monkeypatch):
        # the subadd ceiling applies to subadd only, and at the ceiling itself
        # the sweep starts
        calls = []

        def scan_started(*args):
            calls.append(args)
            raise inequalities.InequalityError("scan started")

        monkeypatch.setattr(inequalities, "scan_thresholds", scan_started)
        for prop, horizon in [
            ("subadd", SUBADD_HORIZON_CEILING),
            ("logconcave", SUBADD_HORIZON_CEILING + 1),
        ]:
            result = runner.invoke(
                main, ["verify", prop, "--k", "3", "--horizon", str(horizon)]
            )
            assert "scan started" in result.output
        assert calls == [
            (3, "subadd", SUBADD_HORIZON_CEILING),
            (3, "logconcave", SUBADD_HORIZON_CEILING + 1),
        ]


class TestImportFootprint:
    # each subcommand imports only the layers it runs; a layer imported at the
    # top of cli.py would put its import time back on every CLI process
    PROBE = (
        "import json, sys\n"
        "from regover import cli\n"
        "cli.main(json.loads(sys.argv[1]), standalone_mode=False)\n"
        "absent = json.loads(sys.argv[2])\n"
        "sys.stderr.write(json.dumps([m for m in absent if m in sys.modules]))\n"
    )

    @pytest.mark.parametrize(
        "args, absent",
        [
            (
                ["count", "--k", "2", "--n", "10"],
                ["mpmath", "regover.numerics", "regover.chern",
                 "regover.combinatorics", "regover.inequalities"],
            ),
            (
                ["lemmas", "--id", "2.2", "--k", "3", "--a-max", "3"],
                ["mpmath", "regover.chern"],
            ),
            (
                ["verify", "turan3", "--k", "3", "--horizon", "40"],
                ["mpmath", "regover.numerics", "regover.chern", "regover.combinatorics"],
            ),
            (
                ["verify", "logconcave", "--k", "2..9", "--horizon", "40"],
                ["mpmath", "regover.numerics", "regover.chern", "regover.combinatorics"],
            ),
            (
                ["verify", "subadd", "--k", "3..9", "--horizon", "20"],
                ["mpmath", "regover.numerics", "regover.chern", "regover.combinatorics"],
            ),
            (
                ["verify", "qbounds", "--k", "3", "--horizon", "370"],
                ["regover.chern", "regover.combinatorics"],
            ),
        ],
        ids=["count", "lemmas", "verify", "verify-logconcave", "verify-subadd",
             "verify-qbounds"],
    )
    def test_subcommand_leaves_other_layers_unimported(self, args, absent):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, json.dumps(args), json.dumps(absent)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr) == []
