"""Command-line front end for counting, lemma checks, brackets, and sweeps.

Single binary with subcommands (count / verify / asym / lemmas).  All
machine output is exact: integers, rationals, or bracketed interval
strings "[lo,hi]" — never bare floats.  Output is deterministic for a
given configuration (stable row ordering, no timestamps).

Exit codes: 0 = all checks verified, 1 = counterexample found,
2 = usage or configuration error, 3 = precision exhaustion.

``--precision`` is the only precision setting: it defaults to
:data:`regover.precision.DEFAULT_PRECISION` (192 bits), and a value below
:data:`regover.precision.MIN_PRECISION` or above
:data:`regover.precision.MAX_PRECISION` (768 bits, where certified
comparisons stop escalating) exits 2.  Nothing is read from the
environment.

``count`` and ``lemmas`` split their k range among worker processes: the
parent runs the first share and one forked child runs each other share (see
the worker section below).  ``count`` runs in two processes, or in one where
only one CPU is usable; ``lemmas`` takes the number from ``--jobs``, with
the same default, and a value below 1 exits 2.  The output is the same at
every number of processes.  ``verify`` and ``asym`` accept ``--jobs`` but run
in one process: forking their sweeps gained nothing measurable.

Inputs that would exhaust time or memory fail early with exit 2, before
any table is built: ``count --n``/``--n-max``, ``asym --n-max`` and
``verify --horizon`` above :data:`N_MAX_CEILING` (``verify subadd --horizon``
above :data:`SUBADD_HORIZON_CEILING`), ``lemmas --a-max`` above
:data:`A_MAX_CEILING` and ``lemmas --total-max`` above
:data:`TOTAL_MAX_CEILING`.

Imports: this module loads only click and :mod:`regover.qseries` at import
time.  Each subcommand imports the layers it runs, and the exceptions it
catches, inside its own body, so a process pays only for what it runs:
``count`` needs nothing more, ``lemmas`` loads :mod:`regover.combinatorics`,
``verify`` :mod:`regover.inequalities` and the mpmath-free
:mod:`regover.precision` (``verify qbounds`` also :mod:`regover.numerics`),
and ``asym`` :mod:`regover.chern` and :mod:`regover.numerics` (mpmath comes
in with :mod:`regover.numerics`).  The worker helpers import ``os`` and
``threading``, which click has loaded already, and :mod:`signal` only to
kill a child left running; ``lemmas`` imports :mod:`pickle` only when it
forks.  Keep new imports inside the commands.
"""

from __future__ import annotations

import csv
import json
import sys

import click

from .qseries import overpartitions, pk, pk_coefficient, warm_cache

EXIT_COUNTEREXAMPLE = 1
EXIT_PRECISION = 3

K_MIN, K_MAX = 2, 9

# Resource ceilings.  Measured on a 2-core host (Python 3.11, pure-Python
# mpmath), all with ``--k 2..9 --output csv``:
#   * ``count --n-max 50000`` takes 6.2–6.6 s and 107 MB in one process, of
#     which the eight tables are about 5.3 s and 81 MB and the rest is one
#     joined block of output per k.  Re-measured on a slower day of the same
#     host: 7.4 s and 102 MB in one process (``taskset -c 0``), and 4.2–5.4 s
#     in the default two, with 70 MB in the parent and 82 MB in the child,
#     which holds its five k's tables, and one k's text at a time, until the
#     parent has written its own three.
#   * ``verify logconcave --horizon 50000`` takes 7.4 s and 87 MB, ``verify
#     turan3`` 10.3 s and 87 MB; ``verify qbounds --horizon 50000`` (about
#     370 000 certified rows, written as they are decided) takes 23.6 s and
#     87 MB, where keeping every row until the end took 62 s and 269 MB.
#   * ``verify subadd`` checks about horizon²/4 pairs per k: horizon 2000
#     takes 2.4 s and 3000 takes 4.9 s, both in 23 MB.
#   * ``lemmas --id 2.3 --a-max 26`` takes 3.4–3.9 s and 43 MB at ``--jobs
#     1`` (2.4 s at ``--jobs 2``, with 35 MB in the parent and 40 MB in the
#     child), and each step of a multiplies its time by about 1.3 and its
#     memory by about 1.15.  Mapping and checking each image takes most of
#     it, enumerating the domains about a fifth.
#   * ``lemmas --id 2.1 --total-max 20`` takes 1.1–1.3 s and 22 takes
#     1.7–1.9 s, both in 21 MB, with start-up; each step of total-max
#     multiplies the time by about 1.3.
N_MAX_CEILING = 50_000
SUBADD_HORIZON_CEILING = 3_000
A_MAX_CEILING = 26
TOTAL_MAX_CEILING = 22


def _check_ceiling(name: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise click.UsageError(
            f"{name} {value} exceeds the resource ceiling {ceiling}"
        )


def _parse_k_range(text: str) -> list[int]:
    """Parse "3" or "2..9" into a list of supported k values."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.UsageError(f"malformed k range {text!r}; use N or N..M")
    if lo > hi:
        raise click.UsageError(f"empty k range {text!r}")
    if lo < K_MIN or hi > K_MAX:
        raise click.UsageError(
            f"k must lie in {K_MIN}..{K_MAX}, got {text!r}"
        )
    return list(range(lo, hi + 1))


def _resolve_precision(precision: int | None) -> int:
    from .precision import DEFAULT_PRECISION, MAX_PRECISION, MIN_PRECISION

    if precision is None:
        return DEFAULT_PRECISION
    if precision < MIN_PRECISION:
        raise click.UsageError(
            f"precision must be >= {MIN_PRECISION} bits, got {precision}"
        )
    if precision > MAX_PRECISION:
        raise click.UsageError(
            f"precision must be <= {MAX_PRECISION} bits, got {precision}"
        )
    return precision


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (list, tuple)):
        return ";".join(
            "(" + ",".join(_cell(x) for x in v) + ")"
            if isinstance(v, (list, tuple))
            else _cell(v)
            for v in value
        )
    if value is None:
        return "n/a"
    return str(value)


def _emit(rows: list[dict], output: str) -> None:
    """Render rows of identical keys as a table, CSV, or JSON array."""
    if output == "json":
        click.echo(json.dumps(rows))
        return
    if not rows:
        return
    columns = list(rows[0])
    if output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        return
    # table: pad every column to its widest cell
    cells = [[_cell(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(name), *(line[i] and len(line[i]) or 0 for line in cells))
        for i, name in enumerate(columns)
    ]
    click.echo("  ".join(name.ljust(w) for name, w in zip(columns, widths)))
    for line in cells:
        click.echo("  ".join(v.ljust(w) for v, w in zip(line, widths)))


# -- worker processes --------------------------------------------------------
#
# ``count`` and ``lemmas`` split their k range into contiguous shares of about
# equal cost.  The parent runs the first share and writes as it goes; each
# other share runs in a child forked with os.fork, which starts from the
# parent's tables.  multiprocessing costs about 21 ms to import, and a spawned
# child would import everything again and rebuild the shared pbar table.
#
# A child does its share's heavy work before it writes, since it would
# otherwise wait on the pipe while the parent is busy with its own share.  It
# then sends b"+" and streams its output, or sends b"-" and the error, and
# leaves by os._exit, so it never returns into the parent's stack nor flushes
# the parent's buffers.

# Processes a command runs in by default (fewer where fewer CPUs are usable):
# the widest setting measured, on a 2-core host.
_DEFAULT_JOBS = 2


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _worker_count(jobs: int | None, units: int) -> int:
    """Children to fork for ``units`` work units: min(jobs, CPUs, units) - 1,
    with jobs defaulting to :data:`_DEFAULT_JOBS`.

    Zero where os.fork is missing or another thread runs: a forked child
    would inherit that thread's locks in whatever state they were.
    """
    import os
    import threading

    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 0
    jobs = _DEFAULT_JOBS if jobs is None else jobs
    return max(min(jobs, _cpu_count(), units) - 1, 0)


def _shares(units: list, cost, parts: int) -> list[list]:
    """Split ``units`` into ``parts`` (at most ``len(units)``) non-empty runs,
    in order, each cut where the ``cost`` of the units before it comes
    closest to its share."""
    if parts == 1:
        return [units]
    costs = [cost(u) for u in units]
    total = sum(costs)
    cuts = [0]
    for i in range(1, parts):
        # leave at least one unit for each run still to come
        options = range(cuts[-1] + 1, len(units) - parts + i + 1)
        cuts.append(min(options, key=lambda c: abs(sum(costs[:c]) - total * i / parts)))
    cuts.append(len(units))
    return [units[a:b] for a, b in zip(cuts, cuts[1:])]


def _serve(share: list, work, out_fd: int, foreign: list[int]):
    """In a forked child, send the bytes of ``work(share)`` to ``out_fd`` and
    exit; never returns.  ``work`` does its heavy part before it returns an
    iterable of bytes; an error raised later only sets the exit status.
    ``foreign`` are the inherited pipe ends of the parent and other children.
    """
    import os

    status = 1
    try:
        for fd in foreign:
            os.close(fd)
        with open(out_fd, "wb") as out:
            try:
                blocks = work(share)
            except Exception as exc:
                out.write(b"-" + f"{type(exc).__name__}: {exc}".encode())
                return  # with status 1
            out.write(b"+")
            out.writelines(blocks)
        status = 0
    finally:
        os._exit(status)


class _Worker:
    """One forked child running one share, seen from the parent."""

    def __init__(self, share: list, work, others: list[_Worker]):
        import os

        self.share = share
        out_r, out_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(out_r)
            os.close(out_w)
            raise
        if pid == 0:
            _serve(share, work, out_w, [out_r, *(w.out.fileno() for w in others)])
        self.pid = pid
        os.close(out_w)
        self.out = open(out_r, "rb")

    def _fail(self, why: str):
        raise RuntimeError(f"worker for k in {self.share} failed: {why}")

    def _open(self) -> None:
        """Read the child's status byte; raise its error if it failed."""
        head = self.out.read(1)
        if head != b"+":
            self._fail(self.out.read().decode(errors="replace") or "no output")

    def _wait(self) -> None:
        import os

        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code:
            self._fail(f"exit status {code}")

    def copy(self, write) -> None:
        """Pass the child's output, ASCII text, to ``write`` in bounded
        chunks; wait for the child and raise if it failed."""
        self._open()
        while chunk := self.out.read1(1 << 16):
            write(chunk.decode("ascii"))
        self._wait()

    def read(self) -> bytes:
        """The child's whole output, once it has exited cleanly."""
        self._open()
        data = self.out.read()
        self._wait()
        return data

    def close(self) -> None:
        """Kill the child if it may still run, wait for it, close the pipe."""
        import os

        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.out.close()


class _Workers(list):
    """Context manager forking one :class:`_Worker` per share; on every way
    out, each child is killed if still running and waited for."""

    def __init__(self, shares: list[list], work):
        super().__init__()
        self.shares, self.work = shares, work

    def __enter__(self) -> _Workers:
        try:
            for share in self.shares:
                self.append(_Worker(share, self.work, self))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for worker in self:
            worker.close()


def _count_blocks(ks: list[int], n_lo: int, n_hi: int, output: str, first: bool, wc: int):
    """Yield ``count``'s rows for the k in ``ks`` and n in n_lo..n_hi, one
    joined block of text per k, sliced from the memoized coefficients.

    Together the blocks of every share, and then "]\n" for json, are the
    bytes :func:`_emit` gives for the rows ``{"k": k, "n": n, "count":
    str(count)}``.  The ``first`` share also yields the header and opens the
    json array.  ``wc`` is the table's count column width, over all shares.
    """
    columns = {k: warm_cache(k, n_hi)[n_lo : n_hi + 1] for k in ks}
    if output == "csv":
        if first:
            yield "k,n,count\n"
        for k, counts in columns.items():
            yield "".join([f"{k},{n},{c}\n" for n, c in enumerate(counts, n_lo)])
    elif output == "json":
        sep = "[" if first else ", "
        for k, counts in columns.items():
            yield sep + ", ".join([
                f'{{"k": {k}, "n": {n}, "count": "{c}"}}'
                for n, c in enumerate(counts, n_lo)
            ])
            sep = ", "
    else:
        wn = max(len("n"), len(str(n_hi)))
        if first:
            yield f"k  {'n':<{wn}}  {'count':<{wc}}\n"
        for k, counts in columns.items():
            yield "".join([
                f"{k}  {n:<{wn}}  {c:<{wc}}\n" for n, c in enumerate(counts, n_lo)
            ])


def _write_counts(ks: list[int], n_lo: int, n_hi: int, output: str) -> None:
    """Write ``count``'s rows, with the k range split among worker processes.

    The shared pbar table is built before the fork, so every child starts
    from it; a k's own table costs about sqrt(n_hi / k) shifted copies.
    """
    from math import sqrt

    forks = _worker_count(None, len(ks))
    if forks:
        overpartitions(n_hi)
    wc = 0
    if output == "table":
        # k is one digit.  pbar_k(n) never decreases in n (adding a part 1 is
        # injective), so each column's widest cell is that of its last row.
        wc = max(len("count"), *(len(str(pk_coefficient(k, n_hi))) for k in ks))
    shares = _shares(ks, lambda k: sqrt(n_hi / k), forks + 1)

    def work(share):
        for k in share:
            warm_cache(k, n_hi)
        return (
            block.encode()
            for block in _count_blocks(share, n_lo, n_hi, output, False, wc)
        )

    write = sys.stdout.write
    with _Workers(shares[1:], work) as workers:
        for block in _count_blocks(shares[0], n_lo, n_hi, output, True, wc):
            write(block)
        for worker in workers:
            worker.copy(write)
    if output == "json":
        write("]\n")


def _write_qbounds(horizons: dict[int, int], output: str, precision: int) -> bool:
    """Certify and write ``verify qbounds``' rows; True iff some row failed.

    The bytes are those :func:`_emit` gives for the rows
    ``{"k": k, "n": n, "property": "qbounds", "verdict": ok}`` for n from the
    published threshold to ``horizons[k]``, but each row is written as soon
    as it is decided and none is kept, so memory stays flat in the horizon.
    A row that stays undecided raises after the rows before it are written.
    """
    from .inequalities import QBOUND_THRESHOLDS, verify_q_containment

    if output == "csv":
        head, row, joiner, tail = "k,n,property,verdict\n", "{},{},qbounds,{}\n", "", ""
    elif output == "json":
        head, joiner, tail = "[", ", ", "]\n"
        row = '{{"k": {}, "n": {}, "property": "qbounds", "verdict": {}}}'
    else:
        # k is one digit, "qbounds" and both verdicts are no wider than their
        # column names, and n's widest cell is that of the largest horizon
        wn = max(len("n"), len(str(max(horizons.values()))))
        head, joiner, tail = f"k  {'n':<{wn}}  property  verdict\n", "", ""
        row = f"{{}}  {{:<{wn}}}  qbounds   {{:<7}}\n"
    write = sys.stdout.write
    write(head)
    failed = False
    sep = ""
    for k, h in horizons.items():
        warm_cache(k, h + 1)
        for n in range(QBOUND_THRESHOLDS[k], h + 1):
            ok = verify_q_containment(k, n, precision)
            failed = failed or not ok
            write(sep + row.format(k, n, "true" if ok else "false"))
            sep = joiner
    write(tail)
    return failed


_OUTPUT = click.option(
    "--output",
    type=click.Choice(["table", "csv", "json"]),
    default="table",
    show_default=True,
    help="Row format for machine or human consumption.",
)
_JOBS = click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=None,
    help="Processes that lemmas splits the k range among [default: 2, or the "
    "CPUs this process may run on if fewer]; verify and asym run in one.",
)
_PRECISION = click.option(
    "--precision",
    type=int,
    default=None,
    help="Working precision in bits, 64 to 768 [default: 192].",
)


@click.group()
def main() -> None:
    """Exact counts, certified asymptotics, and inequality sweeps for
    k-regular overpartitions."""


@main.command()
@click.option("--k", "k_spec", required=True, help="k value or range N..M.")
@click.option("--n", "n_single", type=int, default=None, help="Single index n.")
@click.option("--n-max", type=int, default=None, help="Emit all n in 0..n-max.")
@_OUTPUT
def count(k_spec: str, n_single: int | None, n_max: int | None, output: str) -> None:
    """Print exact counts p_k-bar(n)."""
    ks = _parse_k_range(k_spec)
    if (n_single is None) == (n_max is None):
        raise click.UsageError("give exactly one of --n or --n-max")
    if n_single is not None and n_single < 0:
        raise click.UsageError(f"n must be >= 0, got {n_single}")
    if n_max is not None and n_max < 0:
        raise click.UsageError(f"n-max must be >= 0, got {n_max}")
    if n_single is not None:
        _check_ceiling("n", n_single, N_MAX_CEILING)
    else:
        _check_ceiling("n-max", n_max, N_MAX_CEILING)
    n_lo, n_hi = (0, n_max) if n_single is None else (n_single, n_single)
    if output == "table" and len(ks) == 1 and n_lo == n_hi:
        click.echo(str(pk(ks[0], n_hi)))
        return
    _write_counts(ks, n_lo, n_hi, output)


_DEFAULT_QBOUND_HORIZONS = {2: 8000, 8: 12000}


def _default_horizon(prop: str, k: int) -> int:
    from .inequalities import QBOUND_THRESHOLDS

    if prop == "qbounds":
        base = _DEFAULT_QBOUND_HORIZONS.get(k, 2000)
        return max(base, QBOUND_THRESHOLDS[k] + 500)
    return 2000 if prop in ("logconcave", "turan3") else 200


@main.command()
@click.argument(
    "property", type=click.Choice(["subadd", "logconcave", "turan3", "qbounds"])
)
@click.option("--k", "k_spec", required=True, help="k value or range N..M.")
@click.option(
    "--horizon",
    type=int,
    default=None,
    help="Sweep upper limit (n, or a+b for subadd) [default: per property].",
)
@_PRECISION
@_JOBS
@_OUTPUT
def verify(
    property: str,
    k_spec: str,
    horizon: int | None,
    precision: int | None,
    jobs: int | None,
    output: str,
) -> None:
    """Sweep one inequality over a k range; exit 0 iff no counterexample.

    subadd / logconcave / turan3 run exact big-integer scans and emit one
    threshold report per k, without loading mpmath.  qbounds certifies
    L(n) < Q_k(n) < R(n) row by row, with the printed bounds evaluated in
    directed-rounded fixed-point integers, and streams one verdict row per
    n; a row undecided at the precision cap exits 3 after the rows before
    it.
    """
    from .inequalities import QBOUND_THRESHOLDS, InequalityError, scan_thresholds
    from .precision import NumericsError, PrecisionExhausted

    ks = _parse_k_range(k_spec)
    if horizon is not None:
        ceiling = SUBADD_HORIZON_CEILING if property == "subadd" else N_MAX_CEILING
        _check_ceiling("horizon", horizon, ceiling)
    precision = _resolve_precision(precision)
    horizons = {
        k: horizon if horizon is not None else _default_horizon(property, k)
        for k in ks
    }
    failed = False
    try:
        if property == "qbounds":
            for k, h in horizons.items():
                threshold = QBOUND_THRESHOLDS[k]
                if h < threshold:
                    raise click.UsageError(
                        f"qbounds for k={k} start at n={threshold}; "
                        f"horizon {h} is below it"
                    )
            failed = _write_qbounds(horizons, output, precision)
        else:
            reports = [scan_thresholds(k, property, h) for k, h in horizons.items()]
            for rep in reports:
                if property == "subadd":
                    bad = rep.exceptions_below
                else:
                    bad = tuple(
                        n for n in rep.exceptions_below if n >= rep.paper_threshold
                    )
                if bad:
                    failed = True
                    click.echo(
                        f"counterexamples for k={rep.k} {property}: "
                        + _cell(bad),
                        err=True,
                    )
            _emit([rep.to_dict() for rep in reports], output)
    except PrecisionExhausted as exc:
        click.echo(f"precision exhausted: {exc}", err=True)
        sys.exit(EXIT_PRECISION)
    except (InequalityError, NumericsError) as exc:
        raise click.UsageError(str(exc))
    if failed:
        sys.exit(EXIT_COUNTEREXAMPLE)


@main.command()
@click.option("--k", "k_spec", required=True, help="k value or range N..M.")
@click.option("--n-min", type=int, required=True)
@click.option("--n-max", type=int, required=True)
@click.option("--step", type=int, default=1, show_default=True)
@_PRECISION
@_JOBS
@_OUTPUT
def asym(
    k_spec: str,
    n_min: int,
    n_max: int,
    step: int,
    precision: int | None,
    jobs: int | None,
    output: str,
) -> None:
    """Certified main-term brackets versus exact counts.

    Rows below the bracket's validity threshold carry "n/a" in the
    remainder, containment, and relative-width columns.
    """
    from .chern import ChernError, estimate
    from .numerics import NumericsError, PrecisionExhausted

    ks = _parse_k_range(k_spec)
    precision = _resolve_precision(precision)
    if n_min < 1 or n_max < n_min or step < 1:
        raise click.UsageError("need 1 <= n-min <= n-max and step >= 1")
    _check_ceiling("n-max", n_max, N_MAX_CEILING)
    ns = list(range(n_min, n_max + 1, step))
    rows = []
    try:
        for k in ks:
            warm_cache(k, n_max)
            for n in ns:
                est = estimate(k, n, precision)
                row = est.to_row()
                if est.remainder is None:
                    row["rel_width"] = "n/a"
                else:
                    rel = (est.upper - est.lower) / est.main
                    row["rel_width"] = rel.to_string()
                rows.append(row)
    except PrecisionExhausted as exc:
        click.echo(f"precision exhausted: {exc}", err=True)
        sys.exit(EXIT_PRECISION)
    except (ChernError, NumericsError) as exc:
        raise click.UsageError(str(exc))
    _emit(rows, output)
    if any(row["inside"] == "false" for row in rows):
        sys.exit(EXIT_COUNTEREXAMPLE)


@main.command()
@click.option(
    "--id",
    "lemma_id",
    type=click.Choice(["2.1", "2.2", "2.3", "2.4"]),
    required=True,
    help="Which splitting lemma to verify exhaustively.",
)
@click.option("--k", "k_spec", required=True, help="k value or range N..M.")
@click.option(
    "--a-max",
    type=int,
    default=20,
    show_default=True,
    help="Largest left weight a (single-sided lemmas).",
)
@click.option(
    "--total-max",
    type=int,
    default=18,
    show_default=True,
    help="Largest a+b for the two-sided lemmas.",
)
@_JOBS
@_OUTPUT
def lemmas(
    lemma_id: str,
    k_spec: str,
    a_max: int,
    total_max: int,
    jobs: int | None,
    output: str,
) -> None:
    """Exhaustive splitting-lemma verification over a grid; exit 0 iff
    every grid point holds (and is injective where a map is checked)."""
    from .combinatorics import (
        Constraint,
        OverpartitionError,
        count_overpartitions,
        lemma_grid,
        verify_lemma,
    )

    ks = _parse_k_range(k_spec)
    if a_max < 1 or total_max < 2:
        raise click.UsageError("need a-max >= 1 and total-max >= 2")
    _check_ceiling("a-max", a_max, A_MAX_CEILING)
    _check_ceiling("total-max", total_max, TOTAL_MAX_CEILING)

    def share_reports(share: list[int]) -> list:
        return [
            verify_lemma(lemma_id, k, a, b)
            for k in share
            for a, b in lemma_grid(lemma_id, k, a_max, total_max)
        ]

    def cost(k: int) -> int:
        # about that of enumerating the overpartitions of the k's grid
        no2 = Constraint(k_regular=k, forbid_twos=True)
        return sum(
            count_overpartitions(a + b, no2)
            for a, b in lemma_grid(lemma_id, k, a_max, total_max)
        )

    def work(share):
        return [pickle.dumps(share_reports(share))]

    try:
        forks = _worker_count(jobs, len(ks))
        if forks:
            import pickle
        shares = _shares(ks, cost, forks + 1)
        with _Workers(shares[1:], work) as workers:
            reports = share_reports(shares[0])
            for worker in workers:
                # bytes from a pipe only this program's own child writes to
                reports += pickle.loads(worker.read())
    except OverpartitionError as exc:
        raise click.UsageError(str(exc))
    if any(rep.mode != "map" for rep in reports):
        click.echo(
            "notice: some grid points verified by cardinality only "
            "(no explicit map for this case)",
            err=True,
        )
    _emit([rep.to_dict() for rep in reports], output)
    if any(not rep.holds or rep.injective is False for rep in reports):
        sys.exit(EXIT_COUNTEREXAMPLE)


if __name__ == "__main__":
    main()
