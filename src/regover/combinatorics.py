"""Overpartitions as canonical part tuples, constrained enumeration, and the
splitting injections.

An overpartition is a partition in which the first occurrence of each
distinct part size may be overlined (Corteel and Lovejoy, *Overpartitions*,
Trans. AMS 2004).  Inside this module an overpartition is its canonical part
tuple: (size, overlined) pairs in non-increasing size order, with the
overlined copy (if any) ahead of the non-overlined copies of the same size.

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

:func:`enumerate_overpartitions` builds each canonical tuple directly (a
dynamic programme over part sizes in increasing order, each new largest size
prepended as one block; cf. Knuth, TAOCP 4A, §7.2.1.4), and the map bodies
``_f1_parts``, ``_f2_parts`` and ``_f3_parts`` take a canonical tuple to its
(left, right) image tuples, which are canonical by construction (each body
gives the argument).  The bodies do not check their input: their one caller,
:func:`verify_lemma`, hands them the elements of the domain it enumerates.
f1's rules are stated for k >= 5 only; below that, lemma 2.1 is checked by
cardinality.

:func:`verify_lemma` trusts none of that construction: it checks every image
of every mapped lemma for its weight (the sum of its part sizes), codomain
membership and distinctness.  A part tuple of weight w lies in a constraint's
set iff each of its parts is one of the (size, overline) pairs that
:meth:`Constraint.allowed_parts` gives for w, a set built once per grid
point.  :func:`count_overpartitions` recounts every domain from the
generating function, a product of one factor per allowed size, expanded
coefficient by coefficient; it shares nothing with the enumeration or the
q-series, and its expansions are cached per constraint across calls.

Each lemma is declared once, in ``_LEMMAS``: its fixed b, map body and
witness shape, and one predicate gives lemma 2.4's range to both
:func:`verify_lemma` and :func:`lemma_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, itemgetter
from typing import Callable, Iterator, NamedTuple, Optional


class OverpartitionError(ValueError):
    """Raised on an argument outside a function's domain."""


class UnsupportedCaseError(OverpartitionError):
    """Raised for inputs whose handling the splitting rules leave open."""


Part = tuple[int, bool]  # (size, overlined)
Parts = tuple[Part, ...]


def _format(parts: Parts) -> str:
    """The parts in order, an overlined size marked ``~``: ``(3~,3,1)``."""
    return "(" + ",".join(f"{s}~" if o else str(s) for s, o in parts) + ")"


# The single parts the maps split off or add.
ONE = ((1, False),)
ONE_OVER = ((1, True),)
TWO = ((2, False),)
TWO_OVER = ((2, True),)
ONE_ONE = ONE + ONE
OVER1_ONE = ONE_OVER + ONE


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


# Bounded, yet enough for one k's working set in verify_lemma: the domain at
# a+1 or a+2 and the witness domain at a, and every total of a `lemmas --id
# 2.1` grid at the default --total-max.
@lru_cache(maxsize=32)
def enumerate_overpartitions(
    n: int, constraint: Constraint = Constraint()
) -> tuple[Parts, ...]:
    """The canonical part tuples of all overpartitions of n satisfying the
    constraint, in increasing order."""
    if n < 0:
        raise OverpartitionError(f"n must be >= 0, got {n}")
    # level[w]: canonical part tuples of weight w using the sizes seen so far,
    # in increasing order.  Adding size s appends, after every tuple of
    # smaller sizes, one block of s's prepended to each tuple of smaller
    # sizes.  The blocks go in the order of their tuples, s^m by m and then
    # s~ s^(m-1) by m, so each level stays sorted without a sort.  After size
    # s only level[n] and the weights w <= n-s-1 are kept up to date: a
    # later, larger part leaves at most n-s-1 for the rest.
    level: list[list[Parts]] = [[] for _ in range(n + 1)]
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
    return tuple(level[n])


def count_overpartitions(n: int, constraint: Constraint = Constraint()) -> int:
    """Count by the product formula, independent of the q-series and of the
    enumeration.

    The overpartitions a constraint allows have the generating function
    prod (1 + q^s) / (1 - q^s) over the sizes s it allows: a size with plain
    copies occurs m >= 1 times in 2 ways, its first copy overlined or not.
    Where the plain copies of s are forbidden, a single overlined s is the
    only choice, and the factor is 1 + q^s.  Coefficient n is read from the
    expansion to the next power of two above n, cached per constraint and
    length, so the counts of a lemma grid share a few short expansions.
    """
    if n < 0:
        raise OverpartitionError(f"n must be >= 0, got {n}")
    return _coefficients(constraint, 1 << n.bit_length())[n]


# Unbounded: the lemma grids use at most 4 constraints per k, and the
# expansions of one constraint, of lengths 1, 2, 4, ..., add up to less
# than twice its longest.
@lru_cache(maxsize=None)
def _coefficients(constraint: Constraint, length: int) -> tuple[int, ...]:
    """The first ``length`` coefficients of the constraint's product."""
    c = [1] + [0] * (length - 1)
    for s in range(1, length):
        if not constraint.allows_size(s):
            continue
        c[s:] = map(add, c[s:], c[:-s])  # times 1 + q^s
        if constraint.allows_plain(s):
            # divided by 1 - q^s: each block of s coefficients adds the
            # block before it, already divided
            for j in range(s, length, s):
                c[j : j + s] = map(add, c[j : j + s], c[j - s : j])
    return tuple(c)


def _split_trailing_ones(parts: Parts):
    """Decompose canonical parts as (parts of size >= 2, overlined-1 flag r,
    plain-1 count s); the size-1 parts form the tail, overlined one first."""
    i = len(parts)
    while i and parts[i - 1][0] == 1:
        i -= 1
    r = 1 if i < len(parts) and parts[i][1] else 0
    return parts[:i], r, len(parts) - i - r


def _as_ones(over: bool, weight: int) -> Parts:
    """Canonical 1's of total ``weight``, the first one overlined if ``over``."""
    if over:
        return ONE_OVER + ONE * (weight - 1)
    return ONE * weight


def _f1_parts(parts: Parts, k: int, b: int) -> tuple[Parts, Parts]:
    """f1 on the parts of an overpartition of weight a + b, a, b >= 1, for
    k >= 5, k-regular with no plain 1's or 2's; returns the (left, right)
    image parts.

    The split part lambda_i is the last one whose tail lambda_i..lambda_t
    reaches b.  Its slack y = tail - b stays left, and x = lambda_i - y >= 1
    plain 1's go right after lambda_(i+1)..lambda_t, which holds no plain 1,
    so the right image is canonical.  The left image is lambda_1..lambda_(i-1)
    followed by parts in canonical order, each smaller than every part
    before them, so it is canonical too:

      * y = 0: both images are slices of the input.
      * y = 1, lambda_i overlined: 1~ < lambda_i.
      * y = 1, lambda_i plain: lambda_(i-1) = s1 >= lambda_i >= 3 is replaced
        as well (the rule is open when i = 1), by s1 - k >= 2 (if s1 >= k+2),
        2's and possibly a 1~, all below s1.
      * y = k: m, m for k = 2m; m+1, m for k = 2m+1, or 2's and a 1~ if
        lambda_i = k + 1; all below k < lambda_i.
      * y a multiple of k, y >= 2k, j = lambda_i mod k: y - (k - j) and
        k - j, where k - j <= k <= y - (k - j) < lambda_i; or y - 1 and 1~
        if j = k - 1.
      * otherwise: y < lambda_i.
    """
    i = len(parts)
    tail = 0
    while tail < b:
        i -= 1
        tail += parts[i][0]
    size, over = parts[i]
    y = tail - b
    head = parts[:i]
    right = parts[i + 1 :] + ONE * (size - y)
    m = k // 2  # k = 2m (even) or 2m+1 (odd)

    if y == 0:
        return head, parts[i:]
    if y == 1:
        if over:
            return head + ONE_OVER, right
        if i == 0:
            raise UnsupportedCaseError(
                "y=1 with a plain leading part has no stated rule"
            )
        s1, o1 = parts[i - 1]
        head = parts[: i - 1]
        if s1 >= k + 2:
            extra = ((s1 - k, o1),) + (TWO * (m + 1) if k % 2 else TWO * m + ONE_OVER)
        elif s1 % 2 == 1:  # s1 = 2c+1 in [3, k+1]
            c = (s1 - 1) // 2
            extra = TWO_OVER + TWO * c if o1 else TWO * (c + 1)
        else:  # s1 = 2c in [4, k+1]
            c = s1 // 2
            extra = (TWO_OVER + TWO * (c - 1) if o1 else TWO * c) + ONE_OVER
        return head + extra, right
    if y == k:
        if k % 2 == 0:
            return head + ((m, over), (m, False)), right
        if size >= k + 2:
            return head + ((m + 1, over), (m, False)), right
        # size == k + 1 forces x == 1
        extra = TWO_OVER + TWO * (m - 1) if over else TWO * m
        return head + extra + ONE_OVER, right
    if y % k == 0:  # y >= 2k
        j = size % k
        if j <= k - 2:
            return head + ((y - (k - j), over), (k - j, False)), right
        return head + ((y - 1, over), (1, True)), right
    # y = 1 (mod k) with y >= k+1, or residue in 2..k-1 with y >= 2: move the
    # slack into the left as a single part, keeping the overline
    return head + ((y, over),), right


def _f2_parts(parts: Parts) -> tuple[Parts, Parts]:
    """f2 on the parts of an overpartition of positive weight, k-regular
    with no plain 2; returns the (left, right) image parts.  Dropping
    trailing parts of a canonical tuple, or replacing its last part of size
    >= 2 by 1's, keeps it canonical."""
    rest, r, s = _split_trailing_ones(parts)
    if s >= 1:
        return parts[:-1], ONE
    if r == 1:  # s == 0: drop the overlined 1
        return rest, ONE_OVER
    size, over = rest[-1]
    return rest[:-1] + _as_ones(over, size - 1), ONE_OVER


def _f3_parts(parts: Parts) -> tuple[Parts, Parts]:
    """f3 on the parts of an overpartition of weight >= 2, k-regular with
    no plain 2; returns the (left, right) image parts, canonical as in
    ``_f2_parts``."""
    rest, r, s = _split_trailing_ones(parts)
    if s >= 2:
        return parts[:-2], TWO
    if s == 1 and r == 1:
        return rest, TWO_OVER

    size, over = rest[-1]
    head = rest[:-1]
    if s == 1:  # r == 0; the lone plain 1 is also consumed
        return head + _as_ones(over, size - 1), ONE_ONE
    if r == 0:  # s == 0
        if (size, over) == (2, True):
            return head, ONE_ONE
        return head + _as_ones(over, size - 2), OVER1_ONE
    # s == 0, r == 1
    return head + _as_ones(over, size - 1), TWO_OVER


class _Lemma(NamedTuple):
    """One splitting lemma.  ``b`` is its fixed right weight, or None if it
    runs over every b.  For k >= ``k_min``, ``split`` maps a domain element's
    parts, given k and b, to its (left, right) image parts; without a split
    the lemma is checked by cardinality only.

    A lemma with a ``right`` part states a witness: the first codomain
    element (mu; right) whose mu, as ``_split_trailing_ones`` gives
    (rest, r, s), has ``shape``.
    """

    b: Optional[int]
    split: Optional[Callable[[Parts, int, int], tuple[Parts, Parts]]]
    right: Optional[Parts] = None
    shape: Optional[Callable[[Parts, int, int], bool]] = None
    k_min: int = 2


_LEMMAS = {
    "2.1": _Lemma(None, _f1_parts, k_min=5),
    # (mu; 1~), mu with one plain 1 below a larger part and no overlined 1
    "2.2": _Lemma(
        1,
        lambda parts, k, b: _f2_parts(parts),
        ONE_OVER,
        lambda rest, r, s: r == 0 and s == 1 and bool(rest),
    ),
    # (mu; 1~,1), mu free of size-1 parts
    "2.3": _Lemma(
        2,
        lambda parts, k, b: _f3_parts(parts),
        OVER1_ONE,
        lambda rest, r, s: r == s == 0,
    ),
    "2.4": _Lemma(None, None),
}


def _in_lemma24_range(k: int, a: int, b: int) -> bool:
    return b >= 3 and a + b >= k + 1


def lemma_grid(
    lemma_id: str, k: int, a_max: int, total_max: int
) -> Iterator[tuple[int, int]]:
    """Yield the (a, b) points of one k's lemma sweep, in sweep order.

    Lemmas 2.2/2.3 run a = 1..a_max at their fixed b.  Lemmas 2.1/2.4 run
    every a, b >= 1 with a + b <= total_max, lemma 2.4 only inside its range.
    """
    lemma = _LEMMAS.get(lemma_id)
    if lemma is None:
        raise OverpartitionError(f"unknown lemma id {lemma_id!r}")
    if lemma.b is not None:
        for a in range(1, a_max + 1):
            yield a, lemma.b
        return
    for a in range(1, total_max):
        for b in range(1, total_max + 1 - a):
            if lemma_id == "2.1" or _in_lemma24_range(k, a, b):
                yield a, b


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
    split: Callable[[Parts, int, int], tuple[Parts, Parts]],
    domain: tuple[Parts, ...],
    left_constraint: Constraint,
    right_constraint: Constraint,
) -> dict:
    """Map each element of ``domain`` by ``split`` at the report's k and b,
    and record on ``report`` the elements the map leaves open and its weight,
    codomain and collision violations; return the images, keyed by
    (left, right) and giving their source."""
    k, a, b = report.k, report.a, report.b
    left_ok = left_constraint.allowed_parts(a).issuperset
    right_ok = right_constraint.allowed_parts(b).issuperset
    size = itemgetter(0)
    seen = {}
    injective = True
    codomain_ok = True
    for src in domain:
        try:
            left, right = split(src, k, b)
        except UnsupportedCaseError:
            report.unsupported += 1
            continue
        if sum(map(size, left)) != a or sum(map(size, right)) != b:
            report.notes.append(f"weight violation at {_format(src)}")
            codomain_ok = False
        elif not (left_ok(left) and right_ok(right)):
            # distinctness of images is still meaningful even when an image
            # falls outside the stated codomain (happens for k=2, where the
            # split-off part 2 is itself divisible by k)
            report.notes.append(f"codomain violation at {_format(src)}")
            codomain_ok = False
        key = (left, right)
        if key in seen:
            report.notes.append(f"collision: {_format(seen[key])} and {_format(src)}")
            injective = False
        seen[key] = src
    report.injective = injective
    report.codomain_ok = codomain_ok
    return seen


def _witness(
    lemma: _Lemma, a: int, no2: Constraint, images: dict, notes: list[str]
) -> Optional[str]:
    """The first element (mu; right) of the stated shape: never attained by
    the map.  None if no element has that shape, or if the map attains one
    (which contradicts the construction; noted)."""
    right = lemma.right
    for mu in enumerate_overpartitions(a, no2):
        if lemma.shape(*_split_trailing_ones(mu)):
            witness = f"({_format(mu)}; {_format(right)})"
            if (mu, right) in images:
                notes.append(f"stated witness attained: {witness}")
                return None
            return witness
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
    through f1 for k >= 5 (elements f1 leaves open by cardinality), lemmas
    2.2/2.3 through f2/f3 and their witness, and the rest by cardinality.
    """
    if k < 2:
        raise OverpartitionError(f"k must be >= 2, got {k}")
    if a < 1:
        raise OverpartitionError(f"a must be >= 1, got {a}")
    lemma = _LEMMAS.get(lemma_id)
    if lemma is None:
        raise OverpartitionError(f"unknown lemma id {lemma_id!r}")
    if lemma.b is not None:
        b = lemma.b if b is None else b
        if b != lemma.b:
            raise OverpartitionError(f"lemma {lemma_id} fixes b = {lemma.b}")
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

    if lemma.split is None or k < lemma.k_min:
        report.mode = "cardinality"
        return report
    domain = enumerate_overpartitions(a + b, whole)
    images = _check_images(report, lemma.split, domain, left, right)
    if report.unsupported:
        report.mode = "map+cardinality"
    if lemma.right is not None:
        report.unattained_witness = _witness(lemma, a, no2, images, report.notes)
    return report
