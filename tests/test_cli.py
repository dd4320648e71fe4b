"""CLI contract: subcommands, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from regover import chern, cli, combinatorics, inequalities, qseries
from regover.cli import (
    A_MAX_CEILING,
    N_MAX_CEILING,
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
            # about 240 KB of rows per k, in many blocks
            (["--k", "2..9", "--n-max", "3000"], range(2, 10), range(3001)),
        ],
        ids=["k2-9-n300", "k5-n0", "k2-3-n7", "k2-9-n3000"],
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

    @pytest.mark.parametrize("output", ["csv", "json", "table"])
    def test_single_n_builds_no_table(self, runner, monkeypatch, output):
        # each row of count --n N is the row at N of count --n-max N
        def no_table(*_args):
            raise AssertionError("k table built for a single n")

        n = 700
        whole = runner.invoke(
            main, ["count", "--k", "2..9", "--n-max", str(n), "--output", output]
        )
        monkeypatch.setattr(cli, "pk_series", no_table)
        monkeypatch.setattr(qseries, "pk_series", no_table)
        single = runner.invoke(
            main, ["count", "--k", "2..9", "--n", str(n), "--output", output]
        )
        assert (whole.exit_code, single.exit_code) == (0, 0)
        if output == "json":
            rows = json.loads(whole.stdout)
            assert json.loads(single.stdout) == [r for r in rows if r["n"] == n]
        else:
            head, *lines = whole.stdout.splitlines(keepends=True)
            sep = "," if output == "csv" else None
            at_n = [line for line in lines if line.split(sep)[1] == str(n)]
            assert single.stdout == "".join([head, *at_n])

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

    def test_qbounds_keeps_one_table(self, runner, monkeypatch):
        # each k's warmed table replaces the one before it
        held = []

        def warm_and_count(*args):
            table = warm_cache(*args)
            held.append(len(qseries._CACHE))
            return table

        monkeypatch.setattr(qseries, "_CACHE", {})
        monkeypatch.setattr(cli, "warm_cache", warm_and_count)
        result = runner.invoke(
            main, ["verify", "qbounds", "--k", "3..4", "--horizon", "500"]
        )
        assert result.exit_code == 0
        assert held == [1, 1]
        assert list(qseries._CACHE) == [4]

    def test_horizon_below_published_threshold_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["verify", "turan3", "--k", "2", "--horizon", "10"]
        )
        assert result.exit_code == 2

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
        # no command takes a precision, and a REGOVER_PRECISION in the
        # environment changes neither the rows nor the exit code
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
        # past n = 5000, (upper - lower)/main would straddle 0 at 192 bits,
        # with an upper end near 1e-55 that no longer shrinks
        result = runner.invoke(
            main,
            [
                "asym", "--k", "3", "--n-min", "6000", "--n-max", "12000",
                "--step", "6000", "--output", "json",
            ],
        )
        rows = json.loads(result.stdout)

        def ends(cell):
            return [float(end) for end in cell[1:-1].split(",")]

        (lo0, hi0), (lo1, hi1) = (ends(row["rel_width"]) for row in rows)
        assert 0 < lo1 <= hi1 < lo0 <= hi0
        assert hi1 < 1e-90

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

    @pytest.mark.parametrize("n_min, n_max", [(900, 900), (600, 800)])
    def test_builds_no_table(self, runner, monkeypatch, n_min, n_max):
        def no_table(*_args):
            raise AssertionError("k table built for asym")

        monkeypatch.setattr(cli, "pk_series", no_table)
        monkeypatch.setattr(qseries, "pk_series", no_table)
        result = runner.invoke(
            main,
            ["asym", "--k", "2..9", "--n-min", str(n_min), "--n-max", str(n_max),
             "--step", "100", "--output", "csv"],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.stdout)
        assert len(rows) == 8 * len(range(n_min, n_max + 1, 100))
        assert all(r["exact"] == str(pk(int(r["k"]), int(r["n"]))) for r in rows)

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


class TestJobs:
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

    @pytest.mark.parametrize(
        "args, exit_code",
        [
            (["count", "--k", "2..9", "--n-max", "300", "--output", "csv"], 0),
            (["count", "--k", "2..9", "--n-max", "300", "--output", "json"], 0),
            (["count", "--k", "2..9", "--n-max", "300", "--output", "table"], 0),
            # exit 1 is lemma 2.3's known exception at k = 2
            (["lemmas", "--id", "2.3", "--k", "2..9", "--a-max", "6"], 1),
        ],
        ids=["count-csv", "count-json", "count-table", "lemmas"],
    )
    def test_no_command_forks(self, runner, monkeypatch, args, exit_code):
        # every command runs in this process, whatever CPUs the host has
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        result = runner.invoke(main, args)
        assert isinstance(result.exception, (SystemExit, type(None))), result.exception
        assert result.exit_code == exit_code
        assert result.stdout


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
            ["count", "--k", "2..9", "--output", "csv", "--n-max", str(N_MAX_CEILING + 1)],
            ["count", "--k", "2", "--n", str(N_MAX_CEILING + 1)],
            ["asym", "--k", "2..9", "--n-min", "1000", "--n-max", str(N_MAX_CEILING + 1)],
            ["lemmas", "--id", "2.3", "--k", "2..9", "--a-max", str(A_MAX_CEILING + 1)],
            ["lemmas", "--id", "2.1", "--k", "2..9", "--total-max", str(TOTAL_MAX_CEILING + 1)],
            ["verify", "logconcave", "--k", "2..9", "--horizon", str(N_MAX_CEILING + 1)],
            ["verify", "turan3", "--k", "9", "--horizon", str(N_MAX_CEILING + 1)],
            ["verify", "qbounds", "--k", "3", "--horizon", str(N_MAX_CEILING + 1)],
            ["verify", "subadd", "--k", "2", "--horizon", str(N_MAX_CEILING + 1)],
        ],
        ids=[
            "count-n-max", "count-n", "asym", "lemmas", "lemmas-total-max",
            "logconcave", "turan3", "qbounds", "subadd",
        ],
    )
    def test_ceiling_plus_one_exits_two_at_once(self, runner, monkeypatch, args):
        # the refused value comes last, after the option it is given to
        self.forbid_work(monkeypatch)
        started = time.monotonic()
        result = runner.invoke(main, args)
        assert time.monotonic() - started < 1
        assert result.exit_code == 2
        assert f"Invalid value for '{args[-2]}'" in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["asym", "--k", "2..9", "--n-min", "0", "--n-max", "50000"],
                "Invalid value for '--n-min'",
            ),
            (
                ["asym", "--k", "3", "--n-min", "600", "--n-max", "600",
                 "--precision", "192"],
                "No such option '--precision'",
            ),
            (
                ["verify", "qbounds", "--k", "3", "--horizon", "400",
                 "--precision", "192"],
                "No such option '--precision'",
            ),
            (
                ["verify", "turan3", "--k", "2..9", "--precision", "192"],
                "No such option '--precision'",
            ),
        ],
        ids=["asym-n-min-0", "asym-precision", "qbounds-precision", "turan3-precision"],
    )
    def test_refused_before_any_table(self, runner, monkeypatch, args, message):
        # n = 0 has no mu, and no command takes a precision, not even the
        # default 192 bits: both are usage errors before any table is built
        self.forbid_work(monkeypatch)
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert message in result.stderr
        assert result.stdout == ""

    def test_ceilings_cover_the_benchmark_and_test_sizes(self):
        # the benchmark's largest count --n-max (8000), above its verify
        # --horizon (3000 logconcave, 200 subadd), the default qbounds
        # horizons, and the lemmas defaults --a-max 20 and --total-max 18
        # (criterion 3's ranges) must stay accepted
        qbounds_defaults = [cli._default_horizon("qbounds", k) for k in range(2, 10)]
        assert N_MAX_CEILING >= max(8000, *qbounds_defaults)
        assert A_MAX_CEILING >= 20 and TOTAL_MAX_CEILING >= 18

    def test_every_ceiling_itself_is_accepted(self, runner, monkeypatch):
        # at each ceiling the work starts (and stops at once, planted)
        class Started(Exception):
            pass

        calls = []

        def started(*args):
            calls.append(args)
            raise Started

        for module, name in [
            (cli, "warm_cache"),
            (cli, "pk"),
            (chern, "estimate"),
            (combinatorics, "verify_lemma"),
            (inequalities, "scan_thresholds"),
        ]:
            monkeypatch.setattr(module, name, started)
        n = N_MAX_CEILING
        for args, first_call in [
            (["count", "--n", n], (3, n)),
            (["count", "--n-max", n, "--output", "csv"], (3, n)),
            (["asym", "--n-min", n, "--n-max", n], (3, n)),
            (["lemmas", "--id", "2.3", "--a-max", A_MAX_CEILING], ("2.3", 3)),
            (["lemmas", "--id", "2.1", "--total-max", TOTAL_MAX_CEILING], ("2.1", 3)),
            (["verify", "subadd", "--horizon", n], (3, "subadd", n)),
            (["verify", "logconcave", "--horizon", n], (3, "logconcave", n)),
            (["verify", "turan3", "--horizon", n], (3, "turan3", n)),
            (["verify", "qbounds", "--horizon", n], (3, n + 1)),
        ]:
            calls.clear()
            result = runner.invoke(main, [*map(str, args), "--k", "3"])
            assert isinstance(result.exception, Started), (args, result.output)
            assert [c[: len(first_call)] for c in calls] == [first_call], args


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
                ["mpmath", "csv", "dataclasses", "regover.numerics",
                 "regover.chern", "regover.combinatorics", "regover.inequalities"],
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
                ["mpmath", "csv", "regover.chern", "regover.combinatorics"],
            ),
            (
                ["asym", "--k", "3", "--n-min", "600", "--n-max", "700"],
                ["mpmath", "regover.combinatorics", "regover.inequalities"],
            ),
        ],
        ids=["count", "lemmas", "verify", "verify-logconcave", "verify-subadd",
             "verify-qbounds", "asym"],
    )
    def test_subcommand_leaves_other_layers_unimported(self, args, absent):
        assert self._run(self.PROBE, json.dumps(args), json.dumps(absent)) == []

    def test_library_certificates_leave_mpmath_unimported(self):
        # the interval kernels are integer code: only Interval.cos and
        # Interval.sin load mpmath
        probe = (
            "import json, sys\n"
            "from regover.chern import verify_bracket, verify_corollary_bracket\n"
            "from regover.inequalities import q_bounds\n"
            "verify_bracket(3, 1500)\n"
            "verify_corollary_bracket(5, 3000, 384)\n"
            "q_bounds(4, 500)\n"
            "sys.stderr.write(json.dumps(sorted({'mpmath'} & set(sys.modules))))\n"
        )
        assert self._run(probe) == []

    @staticmethod
    def _run(probe, *argv):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stderr)
