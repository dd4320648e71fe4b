"""Independent reference for constrained overpartition enumeration.

A recursive generator walks part sizes from the largest down and, for each
admissible size and multiplicity, chooses whether the first copy is
overlined.  Every result is asserted to be in canonical order (sizes
non-increasing, an overlined copy ahead of the plain copies of its size),
and the list is sorted, so it shares no construction with the dynamic
programme of ``regover.combinatorics.enumerate_overpartitions``.
``test_combinatorics.py`` requires that function's part tuples to be this
list, element for element.
"""

from __future__ import annotations

from typing import Iterator

from regover.combinatorics import Constraint, Part


def enumerate_overpartitions_oracle(
    n: int, constraint: Constraint = Constraint()
) -> tuple[tuple[Part, ...], ...]:
    """The part tuples of all overpartitions of n satisfying the
    constraint, in increasing order."""

    def gen(remaining: int, max_size: int) -> Iterator[tuple[Part, ...]]:
        if remaining == 0:
            yield ()
            return
        for s in range(min(remaining, max_size), 0, -1):
            if not constraint.allows_size(s):
                continue
            for mult in range(1, remaining // s + 1):
                for over in (True, False):
                    plain = mult - (1 if over else 0)
                    if over is False and plain == 0:
                        continue
                    if plain and not constraint.allows_plain(s):
                        continue
                    head = ((s, True),) * (1 if over else 0) + ((s, False),) * plain
                    for rest in gen(remaining - s * mult, s - 1):
                        yield head + rest

    parts = sorted(gen(n, n))
    for p in parts:
        assert p == tuple(sorted(p, key=lambda q: (-q[0], not q[1]))), p
    return tuple(parts)
