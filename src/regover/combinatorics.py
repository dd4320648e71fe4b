"""Overpartition objects, constrained enumeration, and the splitting injections.

An overpartition is a partition in which the first occurrence of each
distinct part size may be overlined (Corteel and Lovejoy, *Overpartitions*,
Trans. AMS 2004).  Canonical form stores parts in non-increasing size order
with the overlined copy (if any) ahead of the non-overlined copies of the
same size.

Restricted sets follow the convention forced by the splitting maps and the
counting identities they certify:

  * "no 1's" / "no 2's" forbids *non-overlined* parts of that size; an
    overlined 1 or 2 is still allowed.  (Removing one non-overlined 2 from
    any overpartition containing one is then a bijection onto weight n-2,
    which is exactly the decomposition the inductive arguments use.)
  * k-regular forbids parts divisible by k outright, overlined or not.

The maps f1 (with its even-k variant), f2 and f3 split an overpartition of
a+b into a pair of smaller overpartitions; exhaustive enumeration checks
injectivity and codomain membership, and explicit unattained codomain
elements witness strictness of the count inequalities.

Canonical tuples are built once and trusted inside this module.
``Overpartition(parts)`` is the validating public boundary: it sorts the
parts into canonical order and rejects non-positive sizes and repeated
overlines.  :func:`enumerate_overpartitions` instead builds each canonical
part tuple directly (a dynamic programme over part sizes in increasing
order, each new largest size prepended as one block; cf. Knuth, TAOCP 4A,
§7.2.1.4) and wraps it with the internal ``Overpartition._trusted``, which
neither sorts nor validates.  The internal bodies ``_f2_parts`` and
``_f3_parts`` map a canonical part tuple to its (left, right) image tuples,
which stay canonical, since dropping trailing parts of a canonical tuple, or
replacing its last part of size >= 2 by 1's, keeps it canonical.  The public
``f2_map``/``f3_map`` wrap them in a ``SplitPair`` behind one shared
precondition check (k-regular, no plain 2, least weight 1 resp. 2);
``f1_map``, whose extra parts are not provably canonical, keeps the
validating constructor.

Trusting construction skips no verification.  :func:`verify_lemma` checks
lemmas 2.2/2.3 on the raw image tuples, without building an object per
image, and checks every image, of every lemma, for its weight (the sum of
its part sizes), codomain membership and distinctness.  Membership is
decided on the tuple too: a part tuple of weight w satisfies a constraint
iff each of its parts is one of the (size, overline) pairs that
:meth:`Constraint.allowed_parts` gives for w, a set built once per grid
point.  :func:`count_overpartitions` recounts every domain by its own walk
over partitions, which shares nothing with the enumeration or the q-series;
its memo is kept per constraint across calls.

Each lemma is declared once: ``_SINGLE_SIDED`` gives the fixed b, map body
and witness shape of lemmas 2.2/2.3, and one predicate gives lemma 2.4's
range to both :func:`verify_lemma` and :func:`lemma_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional


class OverpartitionError(ValueError):
    """Raised when an input violates a map's precondition."""


class UnsupportedCaseError(OverpartitionError):
    """Raised for inputs whose handling the splitting rules leave open."""


Part = tuple[int, bool]  # (size, overlined)


def _canonical(parts) -> tuple[Part, ...]:
    return tuple(sorted(parts, key=lambda p: (-p[0], not p[1])))


@dataclass(frozen=True, slots=True)
class Overpartition:
    """Canonical multiset of parts with per-size overline flags."""

    parts: tuple[Part, ...]

    def __post_init__(self):
        parts = _canonical((int(s), bool(o)) for s, o in self.parts)
        seen_over = set()
        for s, o in parts:
            if s < 1:
                raise OverpartitionError(f"part sizes must be positive, got {s}")
            if o:
                if s in seen_over:
                    raise OverpartitionError(f"size {s} overlined more than once")
                seen_over.add(s)
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _trusted(cls, parts: tuple[Part, ...]) -> "Overpartition":
        """Wrap ``parts``, which must already be canonical and valid."""
        op = object.__new__(cls)
        _set_parts(op, parts)
        return op

    @property
    def weight(self) -> int:
        return sum(map(itemgetter(0), self.parts))

    def __str__(self) -> str:
        return (
            "("
            + ",".join(f"{s}~" if o else str(s) for s, o in self.parts)
            + ")"
        )


_set_parts = Overpartition.parts.__set__  # the slot's setter bypasses frozen

EMPTY = Overpartition(())

# The fixed right-hand images of f2 and f3.
ONE = Overpartition(((1, False),))
ONE_OVER = Overpartition(((1, True),))
TWO = Overpartition(((2, False),))
TWO_OVER = Overpartition(((2, True),))
ONE_ONE = Overpartition(((1, False), (1, False)))
OVER1_ONE = Overpartition(((1, True), (1, False)))


@dataclass(frozen=True)
class Constraint:
    """Membership restriction for an overpartition set."""

    k_regular: Optional[int] = None
    forbid_ones: bool = False
    forbid_twos: bool = False

    def __post_init__(self):
        if self.k_regular is not None and self.k_regular < 2:
            raise OverpartitionError(f"k must be >= 2, got {self.k_regular}")

    def allows_size(self, size: int) -> bool:
        return self.k_regular is None or size % self.k_regular != 0

    def allows_plain(self, size: int) -> bool:
        """Whether a non-overlined copy of ``size`` is permitted."""
        if not self.allows_size(size):
            return False
        if self.forbid_ones and size == 1:
            return False
        if self.forbid_twos and size == 2:
            return False
        return True

    def allowed_parts(self, max_size: int) -> frozenset[Part]:
        """The (size, overline) parts of sizes 1..``max_size`` the constraint
        allows.  A part tuple of weight w has only positive sizes and
        satisfies the constraint iff each of its parts is in
        ``allowed_parts(w)``."""
        return frozenset(
            [(s, True) for s in range(1, max_size + 1) if self.allows_size(s)]
            + [(s, False) for s in range(1, max_size + 1) if self.allows_plain(s)]
        )

    def satisfied_by(self, op: Overpartition) -> bool:
        k, no1, no2 = self.k_regular, self.forbid_ones, self.forbid_twos
        for s, o in op.parts:
            if k is not None and s % k == 0:
                return False
            if not o and ((s == 1 and no1) or (s == 2 and no2)):
                return False
        return True


@dataclass(frozen=True, slots=True)
class SplitPair:
    left: Overpartition
    right: Overpartition


# Bounded, yet enough for one k's working set in verify_lemma: the domain at
# a+1 or a+2 and the witness domain at a, and every total of a `lemmas --id
# 2.1` grid at the default --total-max.
@lru_cache(maxsize=32)
def enumerate_overpartitions(
    n: int, constraint: Constraint = Constraint()
) -> tuple[Overpartition, ...]:
    """All overpartitions of n satisfying the constraint, ordered by parts."""
    if n < 0:
        raise OverpartitionError(f"n must be >= 0, got {n}")
    # level[w]: canonical part tuples of weight w using the sizes seen so far,
    # in increasing order.  Adding size s appends, after every tuple of
    # smaller sizes, one block of s's prepended to each tuple of smaller
    # sizes.  The blocks go in the order of their tuples, s^m by m and then
    # s~ s^(m-1) by m, so each level stays sorted without a sort.  After size
    # s only level[n] and the weights w <= n-s-1 are kept up to date: a
    # later, larger part leaves at most n-s-1 for the rest.
    level: list[list[tuple[Part, ...]]] = [[] for _ in range(n + 1)]
    level[0].append(())
    for s in range(1, n + 1):
        if not constraint.allows_size(s):
            continue
        # (weight, block) pairs, blocks in tuple order
        over, plain = ((s, True),), ((s, False),)
        heads = [(s, over)]
        if constraint.allows_plain(s):
            mults = range(1, n // s + 1)
            heads = [(s * m, plain * m) for m in mults] + heads
            heads += [(s * (m + 1), over + plain * m) for m in mults]
        for w in (n, *range(n - s - 1, s - 1, -1)):
            grown = level[w]
            for hw, head in heads:
                if hw <= w:
                    grown.extend([head + rest for rest in level[w - hw]])
    return tuple(map(Overpartition._trusted, level[n]))


def count_overpartitions(n: int, constraint: Constraint = Constraint()) -> int:
    """Count by brute-force partition enumeration, independent of the q-series.

    Walks all restricted partitions (no overlines) and multiplies the number
    of admissible overline choices per distinct size: 2 normally; if the
    non-overlined copies of a size are forbidden, only the single-overlined
    configuration survives.  The walk's memo, keyed by (weight left, largest
    size allowed), is independent of n, so each constraint keeps one memo
    for all calls, and the counts of a lemma grid reuse each other's
    subtotals.
    """
    if n < 0:
        raise OverpartitionError(f"n must be >= 0, got {n}")
    return _count_walk(constraint)(n, n)


# Unbounded: the lemma grids use at most 4 constraints per k, and a memo
# filled up to weight n holds at most n^2 entries.
@lru_cache(maxsize=None)
def _count_walk(constraint: Constraint) -> Callable[[int, int], int]:
    memo: dict[tuple[int, int], int] = {}

    def walk(remaining: int, max_size: int) -> int:
        if remaining == 0:
            return 1
        key = (remaining, max_size)
        if key in memo:
            return memo[key]
        total = 0
        for s in range(min(remaining, max_size), 0, -1):
            if not constraint.allows_size(s):
                continue
            plain_ok = constraint.allows_plain(s)
            for mult in range(1, remaining // s + 1):
                if plain_ok:
                    choices = 2
                elif mult == 1:
                    choices = 1  # single overlined copy only
                else:
                    break
                total += choices * walk(remaining - s * mult, s - 1)
        memo[key] = total
        return total

    return walk


_PLAIN_ONE = ((1, False),)
_OVER_ONE = ((1, True),)


def _split_trailing_ones(parts: tuple[Part, ...]):
    """Decompose canonical parts as (parts of size >= 2, overlined-1 flag r,
    plain-1 count s); the size-1 parts form the tail, overlined one first."""
    i = len(parts)
    while i and parts[i - 1][0] == 1:
        i -= 1
    r = 1 if i < len(parts) and parts[i][1] else 0
    return parts[:i], r, len(parts) - i - r


def _as_ones(over: bool, weight: int) -> tuple[Part, ...]:
    """Canonical 1's of total ``weight``, the first one overlined if ``over``."""
    if over:
        return _OVER_ONE + _PLAIN_ONE * (weight - 1)
    return _PLAIN_ONE * weight


def _f2_parts(parts: tuple[Part, ...]) -> tuple[tuple[Part, ...], tuple[Part, ...]]:
    """f2 on the parts of an overpartition of positive weight, k-regular
    with no plain 2; returns the (left, right) image parts."""
    rest, r, s = _split_trailing_ones(parts)
    if s >= 1:
        return parts[:-1], ONE.parts
    if r == 1:  # s == 0: drop the overlined 1
        return rest, ONE_OVER.parts
    size, over = rest[-1]
    return rest[:-1] + _as_ones(over, size - 1), ONE_OVER.parts


def _f3_parts(parts: tuple[Part, ...]) -> tuple[tuple[Part, ...], tuple[Part, ...]]:
    """f3 on the parts of an overpartition of weight >= 2, k-regular with
    no plain 2; returns the (left, right) image parts."""
    rest, r, s = _split_trailing_ones(parts)
    if s >= 2:
        return parts[:-2], TWO.parts
    if s == 1 and r == 1:
        return rest, TWO_OVER.parts

    size, over = rest[-1]
    head = rest[:-1]
    if s == 1:  # r == 0; the lone plain 1 is also consumed
        return head + _as_ones(over, size - 1), ONE_ONE.parts
    if r == 0:  # s == 0
        if (size, over) == (2, True):
            return head, ONE_ONE.parts
        return head + _as_ones(over, size - 2), OVER1_ONE.parts
    # s == 0, r == 1
    return head + _as_ones(over, size - 1), TWO_OVER.parts


def _split_pair(split, op: Overpartition) -> SplitPair:
    left, right = split(op.parts)
    return SplitPair(Overpartition._trusted(left), Overpartition._trusted(right))


def _check_no_plain_two(op: Overpartition, k: int, min_weight: int) -> None:
    """Reject ``op`` unless it is k-regular, has no plain 2 and weight >= min_weight."""
    if not Constraint(k_regular=k, forbid_twos=True).satisfied_by(op):
        raise OverpartitionError(f"{op} is not {k}-regular with no 2's")
    if op.weight < min_weight:
        raise OverpartitionError(f"domain requires weight >= {min_weight}")


def f2_map(op: Overpartition, k: int) -> SplitPair:
    """Split an overpartition of a+1 with no plain 2's into (weight a, weight 1)."""
    _check_no_plain_two(op, k, 1)
    return _split_pair(_f2_parts, op)


def f3_map(op: Overpartition, k: int) -> SplitPair:
    """Split an overpartition of a+2 with no plain 2's into (weight a, weight 2)."""
    _check_no_plain_two(op, k, 2)
    return _split_pair(_f3_parts, op)


class _SingleSided(NamedTuple):
    """A lemma that splits off a fixed right weight ``b`` with ``split``,
    which maps a domain element's parts to its (left, right) image parts.

    Its stated witness is the first codomain element (mu; right) whose mu,
    as ``_split_trailing_ones`` gives (rest, r, s), has ``shape``.
    """

    b: int
    split: Callable[[tuple[Part, ...]], tuple[tuple[Part, ...], tuple[Part, ...]]]
    right: Overpartition
    shape: Callable[[tuple[Part, ...], int, int], bool]


_SINGLE_SIDED = {
    # (mu; 1~), mu with one plain 1 below a larger part and no overlined 1
    "2.2": _SingleSided(
        1, _f2_parts, ONE_OVER, lambda rest, r, s: r == 0 and s == 1 and bool(rest)
    ),
    # (mu; 1~,1), mu free of size-1 parts
    "2.3": _SingleSided(2, _f3_parts, OVER1_ONE, lambda rest, r, s: r == s == 0),
}
_TWO_SIDED = ("2.1", "2.4")


def _in_lemma24_range(k: int, a: int, b: int) -> bool:
    return b >= 3 and a + b >= k + 1


def lemma_grid(
    lemma_id: str, k: int, a_max: int, total_max: int
) -> Iterator[tuple[int, int]]:
    """Yield the (a, b) points of one k's lemma sweep, in sweep order.

    Lemmas 2.2/2.3 run a = 1..a_max at their fixed b.  Lemmas 2.1/2.4 run
    every a, b >= 1 with a + b <= total_max, lemma 2.4 only inside its range.
    """
    single = _SINGLE_SIDED.get(lemma_id)
    if single is not None:
        for a in range(1, a_max + 1):
            yield a, single.b
        return
    if lemma_id not in _TWO_SIDED:
        raise OverpartitionError(f"unknown lemma id {lemma_id!r}")
    for a in range(1, total_max):
        for b in range(1, total_max + 1 - a):
            if lemma_id == "2.1" or _in_lemma24_range(k, a, b):
                yield a, b


def f1_map(op: Overpartition, k: int, a: int, b: int) -> SplitPair:
    """Split an overpartition of a+b with no plain 1's or 2's into
    (weight a, no plain 1's) x (weight b, no plain 2's).

    Implemented for k >= 5; the construction is case analysis on the
    residue of the slack y at the split index.  For k in {2,3,4} the rules
    are not spelled out and verification falls back to cardinality
    comparison (see :func:`verify_lemma`).
    """
    if k in (2, 3, 4):
        raise UnsupportedCaseError(f"split rules unavailable for k={k}")
    if a < 1 or b < 1:
        raise OverpartitionError("need a, b >= 1")
    c = Constraint(k_regular=k, forbid_ones=True, forbid_twos=True)
    if not c.satisfied_by(op):
        raise OverpartitionError(f"{op} is not {k}-regular with no 1's and no 2's")
    if op.weight != a + b:
        raise OverpartitionError(f"weight {op.weight} != a+b = {a + b}")

    ps = list(op.parts)
    t = len(ps)
    # i = max{j : lambda_j + ... + lambda_t >= b}  (1-based)
    tail = 0
    i = 1
    for j in range(t, 0, -1):
        tail += ps[j - 1][0]
        if tail >= b:
            i = j
            break
    tail_after = sum(s for s, _ in ps[i:])
    x = b - tail_after
    size_i, over_i = ps[i - 1]
    y = size_i - x
    assert x >= 1 and 0 <= y < size_i

    even = k % 2 == 0
    m = k // 2  # k = 2m (even) or 2m+1 (odd)

    prefix = tuple(ps[: i - 1])
    suffix = tuple(ps[i:])
    right_x = Overpartition(suffix + _PLAIN_ONE * x)

    def left(*extra: Part) -> Overpartition:
        return Overpartition(prefix + tuple(extra))

    def left_repl(*extra: Part) -> Overpartition:
        # drop lambda_{i-1} as well; used by the y=1 plain-lambda_i cases
        return Overpartition(tuple(ps[: i - 2]) + tuple(extra))

    # even-k overrides
    if even and y == k:
        if over_i:
            return SplitPair(left((m, True), (m, False)), right_x)
        return SplitPair(left((m, False), (m, False)), right_x)
    if (
        even
        and y == 1
        and not over_i
        and i >= 2
        and ps[i - 2][0] >= k + 2
    ):
        s1, o1 = ps[i - 2]
        extra = ((s1 - k, o1),) + tuple([(2, False)] * m) + ((1, True),)
        return SplitPair(left_repl(*extra), right_x)

    if y == 0:
        return SplitPair(
            Overpartition(prefix), Overpartition(((size_i, over_i),) + suffix)
        )

    if y == 1:
        if over_i:
            return SplitPair(left((1, True)), right_x)
        if i < 2:
            raise UnsupportedCaseError(
                "y=1 with a plain leading part has no stated rule"
            )
        s1, o1 = ps[i - 2]
        if s1 >= k + 2:
            extra = ((s1 - k, o1),) + tuple([(2, False)] * (m + 1))
        elif s1 % 2 == 1:  # s1 = 2c+1 in [3, k+1]
            cc = (s1 - 1) // 2
            if o1:
                extra = ((2, True),) + tuple([(2, False)] * cc)
            else:
                extra = tuple([(2, False)] * (cc + 1))
        else:  # s1 = 2c in [4, k+1]
            cc = s1 // 2
            if o1:
                extra = ((2, True),) + tuple([(2, False)] * (cc - 1)) + ((1, True),)
            else:
                extra = tuple([(2, False)] * cc) + ((1, True),)
        return SplitPair(left_repl(*extra), right_x)

    if y == k:  # odd k here; even k handled above
        if size_i >= k + 2:
            return SplitPair(left((m + 1, over_i), (m, False)), right_x)
        # size_i == k+1 forces x == 1
        assert x == 1, "split slack must be 1 when the split part is k+1"
        right_one = Overpartition(suffix + ((1, False),))
        if over_i:
            extra = ((2, True),) + tuple([(2, False)] * (m - 1)) + ((1, True),)
        else:
            extra = tuple([(2, False)] * m) + ((1, True),)
        return SplitPair(left(*extra), right_one)

    if y % k == 0:  # y >= 2k
        j = size_i % k
        if j <= k - 2:
            return SplitPair(left((y - (k - j), over_i), (k - j, False)), right_x)
        return SplitPair(left((y - 1, over_i), (1, True)), right_x)

    # y ≡ 1 (mod k) with y >= k+1, or residue in 2..k-1 with y >= 2:
    # move the slack into the left as a single part, keeping the overline
    return SplitPair(left((y, over_i)), right_x)


@dataclass
class VerificationReport:
    """Outcome of an exhaustive lemma check at one (k, a, b) grid point."""

    lemma: str
    k: int
    a: int
    b: int
    lhs: int
    rhs: int
    strict: bool
    holds: bool
    injective: Optional[bool] = None
    codomain_ok: Optional[bool] = None
    unattained_witness: Optional[str] = None
    mode: str = "map"
    unsupported: int = 0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        row = dict(vars(self))
        row["notes"] = list(self.notes)
        return row


def _check_images(
    report: VerificationReport,
    images: Iterable[tuple[Overpartition, tuple[Part, ...], tuple[Part, ...]]],
    left_constraint: Constraint,
    right_constraint: Constraint,
    a: int,
    b: int,
) -> dict:
    """Record weight, codomain and collision violations of ``images``, given
    as (source, left parts, right parts), on ``report``; return the images,
    keyed by (left parts, right parts)."""
    left_ok = left_constraint.allowed_parts(a).issuperset
    right_ok = right_constraint.allowed_parts(b).issuperset
    size = itemgetter(0)
    seen = {}
    injective = True
    codomain_ok = True
    for src, left, right in images:
        if sum(map(size, left)) != a or sum(map(size, right)) != b:
            report.notes.append(f"weight violation at {src}")
            codomain_ok = False
        elif not (left_ok(left) and right_ok(right)):
            # distinctness of images is still meaningful even when an image
            # falls outside the stated codomain (happens for k=2, where the
            # split-off part 2 is itself divisible by k)
            report.notes.append(f"codomain violation at {src}")
            codomain_ok = False
        key = (left, right)
        if key in seen:
            report.notes.append(f"collision: {seen[key]} and {src}")
            injective = False
        seen[key] = src
    report.injective = injective
    report.codomain_ok = codomain_ok
    return seen


def _witness(
    single: _SingleSided, a: int, no2: Constraint, images: dict, notes: list[str]
) -> Optional[str]:
    """The first element (mu; right) of the stated shape: never attained by
    the map.  None if no element has that shape, or if the map attains one
    (which contradicts the construction; noted)."""
    right = single.right
    for mu in enumerate_overpartitions(a, no2):
        if single.shape(*_split_trailing_ones(mu.parts)):
            if (mu.parts, right.parts) in images:
                notes.append(f"stated witness attained: ({mu}; {right})")
                return None
            return f"({mu}; {right})"
    return None


def verify_lemma(
    lemma_id: str, k: int, a: int, b: Optional[int] = None
) -> VerificationReport:
    """Exhaustively verify one splitting lemma instance.

    lemma_id is one of "2.1", "2.2", "2.3", "2.4".  For "2.2"/"2.3" the
    right weight is fixed (1 resp. 2) and ``b`` may be omitted.

    Lemma 2.1 compares no-plain-1 x no-plain-2 pairs with no-plain-1-or-2
    overpartitions of a+b (weakly), every other lemma no-plain-2 x free pairs
    with no-plain-2 overpartitions of a+b (strictly).  Lemma 2.1 is checked
    through ``f1_map`` for k >= 5, lemmas 2.2/2.3 through their map and
    witness, and the rest by cardinality.
    """
    if k < 2:
        raise OverpartitionError(f"k must be >= 2, got {k}")
    if a < 1:
        raise OverpartitionError(f"a must be >= 1, got {a}")
    single = _SINGLE_SIDED.get(lemma_id)
    if single is not None:
        b = single.b if b is None else b
        if b != single.b:
            raise OverpartitionError(f"lemma {lemma_id} fixes b = {single.b}")
    elif lemma_id not in _TWO_SIDED:
        raise OverpartitionError(f"unknown lemma id {lemma_id!r}")
    elif b is None:
        raise OverpartitionError(f"lemma {lemma_id} needs explicit b")
    elif b < 1:
        raise OverpartitionError(f"b must be >= 1, got {b}")
    elif lemma_id == "2.4" and not _in_lemma24_range(k, a, b):
        raise OverpartitionError("lemma 2.4 needs b >= 3 and a+b >= k+1")

    no2 = Constraint(k_regular=k, forbid_twos=True)
    if lemma_id == "2.1":
        left = Constraint(k_regular=k, forbid_ones=True)
        right = no2
        whole = Constraint(k_regular=k, forbid_ones=True, forbid_twos=True)
        strict = False
    else:
        left, right, whole, strict = no2, Constraint(k_regular=k), no2, True
    lhs = count_overpartitions(a, left) * count_overpartitions(b, right)
    rhs = count_overpartitions(a + b, whole)
    holds = lhs > rhs if strict else lhs >= rhs
    report = VerificationReport(lemma_id, k, a, b, lhs, rhs, strict, holds)

    if single is not None:
        split = single.split
        domain = enumerate_overpartitions(a + b, whole)
        images = _check_images(
            report, ((op, *split(op.parts)) for op in domain), left, right, a, b
        )
        report.unattained_witness = _witness(single, a, no2, images, report.notes)
    elif lemma_id == "2.1" and k >= 5:
        images = []
        for op in enumerate_overpartitions(a + b, whole):
            try:
                pair = f1_map(op, k, a, b)
            except UnsupportedCaseError:
                report.unsupported += 1
                continue
            images.append((op, pair.left.parts, pair.right.parts))
        _check_images(report, images, left, right, a, b)
        if report.unsupported:
            report.mode = "map+cardinality"
    else:
        report.mode = "cardinality"
    return report
