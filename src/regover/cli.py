"""Command-line front end for counting, lemma checks, brackets, and sweeps.

Single binary with subcommands (count / verify / asym / lemmas).  All
machine output is exact: integers, rationals, or bracketed interval
strings "[lo,hi]" — never bare floats.  Output is deterministic for a
given configuration (stable row ordering, no timestamps).

Exit codes: 0 = all checks verified, 1 = counterexample found,
2 = usage or configuration error, 3 = precision exhaustion.

No command takes a precision: ``verify qbounds`` and ``asym`` call the
library at its default of 192 bits, and :func:`regover.numerics.certify`
doubles the precision of an undecided comparison up to 768 bits.  Nothing
is read from the environment.

``count --n-max`` and ``lemmas`` cut their k range in two where the cost
before the cut comes closest to half: the parent runs the first half and
one forked child the second (see the worker section below).  Both run in
one process where only one CPU is usable or os.fork fails, and the output
is the same either way; ``count --n`` always runs in one, since its few
short sums gain nothing from a child.  ``verify``, ``asym`` and ``lemmas``
accept ``--jobs`` (a value below 1 exits 2), but no command reads it:
``verify`` and ``asym`` run in one process, since forking their sweeps
gained nothing measurable.

Inputs that would exhaust time or memory fail early with exit 2, before
any table is built.  Each bounded integer option is a ``click.IntRange``
that carries its limit, and ``--help`` shows each range: ``count
--n``/``--n-max``, ``asym --n-max`` and ``verify --horizon`` stop at
:data:`N_MAX_CEILING`, ``lemmas --a-max`` at :data:`A_MAX_CEILING` and
``lemmas --total-max`` at :data:`TOTAL_MAX_CEILING`.

Imports: this module loads only click, :mod:`json`,
:mod:`regover.qseries` and :mod:`regover.precision` (the numeric
exceptions) at import time, besides ``os``, ``sys``,
:mod:`contextlib`, :mod:`itertools` and :mod:`operator`, which are loaded
already.  Each subcommand imports the layers it runs, and the exceptions it
catches, inside its own body, so a process pays only for what it runs:
``count`` needs only :mod:`string` more, to parse its row template,
``lemmas`` loads :mod:`regover.combinatorics`, ``verify``
:mod:`regover.inequalities` (``verify qbounds`` also
:mod:`regover.numerics`), and ``asym`` :mod:`regover.chern` and
:mod:`regover.numerics`.  :mod:`csv` is loaded only where :func:`_emit`
writes csv rows, which ``count`` and ``verify qbounds`` never do.  No
command loads mpmath: the interval kernels in :mod:`regover.numerics` are
integer code.  The worker helpers import ``threading``, which click has
loaded already, and :mod:`signal` only to kill a child left running;
``lemmas`` imports :mod:`pickle` only when it forks.  Keep new imports
inside the commands.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from itertools import repeat
from operator import add

import click

from .precision import NumericsError, PrecisionExhausted
from .qseries import pk, pk_series, warm_cache

EXIT_COUNTEREXAMPLE = 1
EXIT_PRECISION = 3

K_MIN, K_MAX = 2, 9

# Resource ceilings.  Measured on a 2-core host (Intel Xeon, Python 3.11),
# all with ``--k 2..9 --output csv`` and start-up, memory as the peak RSS
# (``RUSAGE_CHILDREN``) seen by a small Python parent; ``count`` and
# ``lemmas`` in their default two processes and in one (``taskset -c 0``):
#   * ``count --n-max 50000`` takes 1.7–1.9 s and 80–81 MB, the child's,
#     which holds its five k's tables; in one process, which builds each k's
#     table just before its rows, 2.4–2.5 s and 64–65 MB.  ``count --n
#     50000`` builds no k table: 0.5 s and 23 MB, nearly all the shared pbar
#     table.
#   * ``verify logconcave --horizon 50000`` takes 2.2–2.3 s, ``turan3``
#     3.6–4.6 s and ``subadd`` 2.2–2.4 s (about horizon/2 checks per k, in
#     0.1 s), each 38 MB, since a scan frees its k table when it ends.
#     ``verify qbounds --horizon 50000`` (about 370 000 certified rows,
#     written as they are decided) takes 25 s and 38 MB, since warm_cache
#     keeps one k's table at a time.
#   * ``asym --n-min 50000 --n-max 50000`` takes 0.5–0.8 s and 25 MB.
#   * ``lemmas --id 2.3 --a-max 26`` takes 1.3–1.7 s, with 35 MB in the parent
#     and 40 MB in the child; in one process 2.0–2.5 s and 43 MB.  Each step
#     of a multiplies its time by about 1.3 and its memory by about 1.15.
#     Mapping and checking each image takes most of it, enumerating the
#     domains about a fifth.
#   * ``lemmas --id 2.1 --total-max 22`` takes 1.0 s, with 20 MB in the
#     parent and 16 MB in the child; in one process 1.2 s and 20 MB.
#     Each step of total-max multiplies the time by about 1.3.
N_MAX_CEILING = 50_000
A_MAX_CEILING = 26
TOTAL_MAX_CEILING = 22


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
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
        return
    cells = [[_cell(row[c]) for c in columns] for row in rows]
    widths = {c: max(len(line[i]) for line in cells) for i, c in enumerate(columns)}
    head, row, _, _ = _formats(widths, "table")
    sys.stdout.write(head)
    sys.stdout.writelines(row.format(*line) for line in cells)


def _formats(columns: dict[str, int], output: str, quoted=()) -> tuple[str, ...]:
    """The (head, row, sep, tail) of rows with ``columns`` (name: width of the
    widest cell) as csv, json or a table: ``row`` is a str.format template
    taking one cell per column, ``sep`` goes between rows and ``tail`` after
    the last.  The json values of the ``quoted`` columns are strings, the
    others verbatim; no cell may need csv quoting or json escaping.
    """
    if output == "csv":
        return ",".join(columns) + "\n", ",".join(["{}"] * len(columns)) + "\n", "", ""
    if output == "json":
        pairs = [f'"{c}": ' + ('"{}"' if c in quoted else "{}") for c in columns]
        return "[", "{{" + ", ".join(pairs) + "}}", ", ", "]\n"
    widths = {c: max(len(c), w) for c, w in columns.items()}
    head = "  ".join([c.ljust(w) for c, w in widths.items()]) + "\n"
    return head, "  ".join([f"{{:<{w}}}" for w in widths.values()]) + "\n", "", ""


# -- worker processes --------------------------------------------------------
#
# ``count --n-max`` and ``lemmas`` cut their k range in two where the cost
# before the cut comes closest to half.  The parent runs the first half and writes as it
# goes; the second runs in a child forked with os.fork, which starts from the
# parent's tables.  multiprocessing costs about 21 ms to import, and a spawned
# child would import everything again and rebuild the shared pbar table.  Two
# processes is the widest setting measured, on a 2-core host.
#
# The child does its half's heavy work before it writes, since it would
# otherwise wait on the pipe while the parent is busy with its own half.  It
# then sends b"+" and streams its output, or sends b"-" and the error, and
# leaves by os._exit, so it never returns into the parent's stack nor flushes
# the parent's buffers.


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _halves(units: list, cost) -> tuple[list, list]:
    """Cut ``units`` in two, in order, where the ``cost`` of the units before
    the cut comes closest to half of the total.

    The second half is empty for one unit, where one CPU is usable, where
    os.fork is missing or where another thread runs: a forked child would
    inherit that thread's locks in whatever state they were.
    """
    import threading

    forkable = threading.active_count() == 1 and hasattr(os, "fork")
    if not forkable or min(len(units), _cpu_count()) < 2:
        return units, []
    costs = [cost(u) for u in units]
    total = sum(costs)
    cut = min(range(1, len(units)), key=lambda c: abs(sum(costs[:c]) - total / 2))
    return units[:cut], units[cut:]


@contextmanager
def _forked(share: list, work):
    """Fork one child to send the bytes of ``work(share)``, unless ``share``
    is empty; yield an iterator over the chunks it sends (empty without one).
    Where os.fork fails, the iterator runs ``work(share)`` in this process
    when it is first read, so after the caller's own half.

    ``work`` does its heavy part before it returns an iterable of bytes; an
    error raised later only sets the child's exit status.  The iterator waits
    for the child when it ends and raises RuntimeError if the child failed.
    On every way out, a child still running is killed and waited for.
    """
    if not share:
        yield iter(())
        return
    out_r, out_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare (EAGAIN, ENOMEM): run the share here
        os.close(out_r)
        os.close(out_w)
        pid = None
    if pid is None:
        # map is lazy: work starts when the caller reads, after its own half
        yield (chunk for chunks in map(work, [share]) for chunk in chunks)
        return
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(out_r)
            with open(out_w, "wb") as out:
                try:
                    blocks = work(share)
                except Exception as exc:
                    out.write(b"-" + f"{type(exc).__name__}: {exc}".encode())
                else:
                    out.write(b"+")
                    out.writelines(blocks)
                    status = 0
        finally:
            os._exit(status)
    os.close(out_w)
    running = [pid]  # emptied once the child is waited for

    def chunks(pipe):
        def fail(why):
            raise RuntimeError(f"worker for k in {share} failed: {why}")

        if pipe.read(1) != b"+":
            fail(pipe.read().decode(errors="replace") or "no output")
        while chunk := pipe.read1(1 << 16):
            yield chunk
        _, status = os.waitpid(running.pop(), 0)
        if code := os.waitstatus_to_exitcode(status):
            fail(f"exit status {code}")

    try:
        with open(out_r, "rb") as pipe:
            yield chunks(pipe)
    finally:
        if running:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _row_parts(row: str) -> tuple[list[str], list[str]]:
    """The literal texts around the fields of a :func:`_formats` row template,
    one more than there are fields, and the fields' format specs."""
    from string import Formatter

    texts, specs = [""], []
    for text, field, spec, _ in Formatter().parse(row):
        texts[-1] += text
        if field is not None:
            texts.append("")
            specs.append(spec)
    return texts, specs


def _count_blocks(columns, layout: tuple, n_cells: list[str], first: bool):
    """Yield ``count``'s rows for the (k, counts) pairs of ``columns`` as
    blocks of text, a few per k; each pair is read just before its blocks, so
    a generator holds one k's counts at a time.

    ``n_cells`` is the n column that every k shares: for each row, its n cell
    and the text up to its count cell.  Together the blocks of both halves,
    and then the ``layout``'s tail, are the bytes :func:`_emit` gives for the
    rows ``{"k": k, "n": n, "count": str(count)}``.  The ``first`` half also
    yields the layout's head.
    """
    head, row, sep, _ = layout
    (before_k, before_n, _, end), (k_spec, _, count_spec) = _row_parts(row)
    lead = head if first else sep
    for k, counts in columns:
        start = before_k + format(k, k_spec) + before_n
        cells = map(format, counts, repeat(count_spec))
        yield lead + start
        yield (end + sep + start).join(map(add, n_cells, cells))
        yield end
        lead = sep


def _write_counts(ks: list[int], n_lo: int, n_hi: int, output: str) -> None:
    """Write ``count``'s rows, with a range's k range cut in two processes.

    The counts at n_hi give the widths, and for a single n they are the
    rows, written by this process without any k table.  For a range the
    parent builds each k's table just before its blocks, and the child its
    whole share first, so it never waits on the pipe.  The widths build the
    shared pbar table before the fork, so the child starts from it, and from
    the n column; a k's own table costs about sqrt(n_hi / k) shifted copies.
    """
    from math import sqrt

    # k is one digit.  pbar_k(n) never decreases in n (adding a part 1 is
    # injective), so each column's widest cell is that of its last row.
    last = {k: pk(k, n_hi) for k in ks}
    widths = {"k": 1, "n": len(str(n_hi)), "count": len(str(max(last.values())))}
    layout = _formats(widths, output, {"count"})
    (_, _, before_count, _), (_, n_spec, _) = _row_parts(layout[1])
    n_cells = [format(n, n_spec) + before_count for n in range(n_lo, n_hi + 1)]

    def columns(share):
        if n_lo == n_hi:
            return ((k, [last[k]]) for k in share)
        return ((k, pk_series(k, n_hi)) for k in share)

    if n_lo == n_hi:
        first, second = ks, []
    else:
        first, second = _halves(ks, lambda k: sqrt(n_hi / k))

    def work(share):
        built = list(columns(share))
        blocks = _count_blocks(built, layout, n_cells, False)
        return (block.encode() for block in blocks)

    write = sys.stdout.write
    with _forked(second, work) as chunks:
        for block in _count_blocks(columns(first), layout, n_cells, True):
            write(block)
        # the child's chunks are ascii already: pass them through as bytes
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    write(layout[3])


def _write_qbounds(horizons: dict[int, int], output: str) -> bool:
    """Certify and write ``verify qbounds``' rows; True iff some row failed.

    The bytes are those :func:`_emit` gives for the rows
    ``{"k": k, "n": n, "property": "qbounds", "verdict": ok}`` for n from the
    published threshold to ``horizons[k]``, but each row is written as soon
    as it is decided and none is kept, so memory stays flat in the horizon.
    A row that stays undecided raises after the rows before it are written.
    """
    from .inequalities import QBOUND_THRESHOLDS, verify_q_containment

    # k is one digit, and n's widest cell is that of the largest horizon
    widths = {"k": 1, "n": len(str(max(horizons.values())))}
    widths.update(property=len("qbounds"), verdict=len("false"))
    head, row, joiner, tail = _formats(widths, output, {"property"})
    write = sys.stdout.write
    write(head)
    failed = False
    sep = ""
    for k, h in horizons.items():
        warm_cache(k, h + 1)
        for n in range(QBOUND_THRESHOLDS[k], h + 1):
            ok = verify_q_containment(k, n)
            failed = failed or not ok
            write(sep + row.format(k, n, "qbounds", "true" if ok else "false"))
            sep = joiner
    write(tail)
    return failed


_K = click.option(
    "--k",
    "ks",
    required=True,
    callback=lambda ctx, param, text: _parse_k_range(text),
    help="k value or range N..M.",
)
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
    expose_value=False,
    help="At least 1, and read by no command: lemmas runs in 2 processes (1 "
    "where only one CPU is usable), verify and asym in 1.",
)


@click.group()
def main() -> None:
    """Exact counts, certified asymptotics, and inequality sweeps for
    k-regular overpartitions.  Each command's --help shows the range of
    every bounded option."""


@main.command()
@_K
@click.option(
    "--n", "n_single", type=click.IntRange(0, N_MAX_CEILING), help="Single index n."
)
@click.option(
    "--n-max", type=click.IntRange(0, N_MAX_CEILING), help="Emit all n in 0..n-max."
)
@_OUTPUT
def count(ks: list[int], n_single: int | None, n_max: int | None, output: str) -> None:
    """Print exact counts p_k-bar(n)."""
    if (n_single is None) == (n_max is None):
        raise click.UsageError("give exactly one of --n or --n-max")
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
@_K
@click.option(
    "--horizon",
    type=click.IntRange(max=N_MAX_CEILING),
    help="Sweep upper limit (n, or a+b for subadd) [default: per property].",
)
@_JOBS
@_OUTPUT
def verify(property: str, ks: list[int], horizon: int | None, output: str) -> None:
    """Sweep one inequality over a k range; exit 0 iff no counterexample.

    subadd / logconcave / turan3 run exact big-integer scans and emit one
    threshold report per k, without loading mpmath.  qbounds certifies
    L(n) < Q_k(n) < R(n) row by row, with the printed bounds evaluated in
    directed-rounded fixed-point integers, and streams one verdict row per
    n.  Each row's precision starts at 192 bits and doubles while the row
    is undecided; a row still undecided at 768 bits exits 3 after the rows
    before it.
    """
    from .inequalities import QBOUND_THRESHOLDS, InequalityError, scan_thresholds

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
            failed = _write_qbounds(horizons, output)
        else:
            reports = [scan_thresholds(k, property, h) for k, h in horizons.items()]
            for rep in reports:
                bad = rep.exceptions_below
                if property != "subadd":
                    bad = tuple(n for n in bad if n >= rep.paper_threshold)
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
@_K
@click.option("--n-min", type=click.IntRange(min=1), required=True)
@click.option("--n-max", type=click.IntRange(1, N_MAX_CEILING), required=True)
@click.option("--step", type=click.IntRange(min=1), default=1, show_default=True)
@_JOBS
@_OUTPUT
def asym(ks: list[int], n_min: int, n_max: int, step: int, output: str) -> None:
    """Certified main-term brackets versus exact counts.

    inside=true certifies the count strictly inside main -/+ R', decided
    from 192 bits and doubling up to 768; a row undecided at 768 bits exits
    3.  rel_width is 2R'/main.  Rows below the bracket's validity threshold
    carry "n/a" in the remainder, containment, and relative-width columns.
    """
    from .chern import ChernError, estimate

    if n_max < n_min:
        raise click.UsageError("need n-min <= n-max")
    ns = list(range(n_min, n_max + 1, step))
    try:
        rows = [estimate(k, n).to_row() for k in ks for n in ns]
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
@_K
@click.option(
    "--a-max",
    type=click.IntRange(1, A_MAX_CEILING),
    default=20,
    show_default=True,
    help="Largest left weight a (single-sided lemmas).",
)
@click.option(
    "--total-max",
    type=click.IntRange(2, TOTAL_MAX_CEILING),
    default=18,
    show_default=True,
    help="Largest a+b for the two-sided lemmas.",
)
@_JOBS
@_OUTPUT
def lemmas(
    lemma_id: str, ks: list[int], a_max: int, total_max: int, output: str
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
        first, second = _halves(ks, cost)
        if second:
            import pickle
        with _forked(second, work) as chunks:
            reports = share_reports(first)
            if second:
                # bytes from a pipe only this program's own child writes to
                reports += pickle.loads(b"".join(chunks))
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
