"""Enumeration oracle and injection checks for the splitting maps."""

import itertools
import json
import random

import pytest

from regover import combinatorics
from regover.combinatorics import (
    Constraint,
    Overpartition,
    OverpartitionError,
    UnsupportedCaseError,
    _count_walk,
    _f1_parts,
    _f2_parts,
    _f3_parts,
    count_overpartitions,
    enumerate_overpartitions,
    f1_map,
    f2_map,
    f3_map,
    lemma_grid,
    verify_lemma,
)
from regover.qseries import pk

from combinatorics_oracle import enumerate_overpartitions_oracle
from conftest import lemma_holds, no_witness

KS = list(range(2, 10))


def op(*parts):
    return Overpartition(tuple(parts))


class TestOverpartition:
    def test_canonical_order(self):
        o = op((1, False), (3, False), (3, True), (1, True))
        assert o.parts == ((3, True), (3, False), (1, True), (1, False))

    def test_weight(self):
        assert op((4, True), (1, False)).weight == 5
        assert op().weight == 0

    def test_duplicate_overline_rejected(self):
        with pytest.raises(OverpartitionError):
            op((2, True), (2, True))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(OverpartitionError):
            op((0, False))

    def test_str_marks_overlines(self):
        assert str(op((1, False), (3, False), (3, True))) == "(3~,3,1)"
        assert str(op()) == "()"

    def test_witness_rendered_from_parts(self):
        # the witness string names (mu; right) in the notation of __str__
        assert verify_lemma("2.2", 4, 6).unattained_witness == "((3,2~,1); (1~))"


class TestEnumeration:
    def test_weight_zero(self):
        assert enumerate_overpartitions(0) == ((),)

    def test_weight_one(self):
        assert enumerate_overpartitions(1) == (((1, False),), ((1, True),))

    def test_no_duplicates_and_constraint(self):
        c = Constraint(k_regular=3, forbid_twos=True)
        ops = enumerate_overpartitions(9, c)
        assert len(set(ops)) == len(ops)
        for o in ops:
            assert c.allowed_parts(9).issuperset(o)
            assert Overpartition(o).weight == 9

    def test_forbid_allows_overlined_copy(self):
        c = Constraint(forbid_twos=True)
        ops = enumerate_overpartitions(2, c)
        assert ((2, True),) in ops
        assert ((2, False),) not in ops

    @pytest.mark.parametrize("no1,no2", itertools.product((False, True), repeat=2))
    @pytest.mark.parametrize("k", [None, *KS])
    def test_matches_oracle(self, k, no1, no2):
        # element for element and in order, every constraint shape
        constraint = Constraint(k, no1, no2)
        for n in range(17):
            ops = enumerate_overpartitions(n, constraint)
            expected = enumerate_overpartitions_oracle(n, constraint)
            assert list(ops) == [o.parts for o in expected], n

    @pytest.mark.parametrize("n", range(0, 13))
    def test_count_matches_enumeration(self, n):
        for c in (
            Constraint(),
            Constraint(k_regular=2),
            Constraint(k_regular=4, forbid_ones=True),
            Constraint(forbid_twos=True),
            Constraint(k_regular=3, forbid_ones=True, forbid_twos=True),
        ):
            assert count_overpartitions(n, c) == len(enumerate_overpartitions(n, c))

    @pytest.mark.parametrize("k", KS)
    def test_counts_agree_with_series(self, k):
        c = Constraint(k_regular=k)
        for n in range(26):
            assert count_overpartitions(n, c) == pk(k, n)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_removal_identities(self, k):
        # these two decompositions drive the inductive arguments and pin
        # down the "no j's = no plain j's" convention
        free = Constraint(k_regular=k)
        no2 = Constraint(k_regular=k, forbid_twos=True)
        no12 = Constraint(k_regular=k, forbid_ones=True, forbid_twos=True)
        for n in range(2, 20):
            if k > 2:  # for k=2 no part equals 2 at all, so nothing to remove
                assert count_overpartitions(n, free) == count_overpartitions(
                    n, no2
                ) + count_overpartitions(n - 2, free)
            assert count_overpartitions(n, no2) == count_overpartitions(
                n, no12
            ) + count_overpartitions(n - 1, no2)


class TestF2:
    def test_single_one(self):
        pair = f2_map(op((1, False)), 2)
        assert pair.left == op()
        assert pair.right == op((1, False))

    def test_overlined_three(self):
        pair = f2_map(op((3, True)), 2)
        assert pair.left == op((1, True), (1, False))
        assert pair.right == op((1, True))

    def test_precondition_rejects_plain_two(self):
        with pytest.raises(OverpartitionError):
            f2_map(op((2, False), (1, False)), 3)

    def test_precondition_rejects_divisible_part(self):
        with pytest.raises(OverpartitionError):
            f2_map(op((3, False)), 3)

    @pytest.mark.parametrize("k", KS)
    def test_exhaustive_injective(self, k):
        for a in range(1, 21):
            rep = verify_lemma("2.2", k, a)
            assert rep.injective, rep.to_dict()
            assert rep.codomain_ok, rep.to_dict()
            # strict inequality is an equality at a=2 for every k except 3:
            # the codomain then has exactly two extra slots and both are hit
            assert rep.holds == lemma_holds("2.2", k, a, 1), rep.to_dict()

    # small weights where no codomain element of the witness shape exists
    # (parity/regularity obstructions), verified by exhaustive enumeration
    @pytest.mark.parametrize("k", KS)
    def test_witness_unattained(self, k):
        missing = no_witness("2.2", k)
        for a in range(1, 21):
            rep = verify_lemma("2.2", k, a)
            assert (rep.unattained_witness is not None) == (
                a not in missing
            ), rep.to_dict()


class TestF3:
    def test_two_trailing_ones(self):
        pair = f3_map(op((5, False), (1, False), (1, False)), 2)
        assert pair.left == op((5, False))
        assert pair.right == op((2, False))

    def test_s1_r1(self):
        pair = f3_map(op((1, True), (1, False), (3, False)), 2)
        assert pair.left == op((3, False))
        assert pair.right == op((2, True))

    def test_trailing_overlined_two(self):
        pair = f3_map(op((5, False), (2, True)), 3)
        assert pair.left == op((5, False))
        assert pair.right == op((1, False), (1, False))

    @pytest.mark.parametrize("k", KS)
    def test_exhaustive_injective(self, k):
        for a in range(1, 21):
            rep = verify_lemma("2.3", k, a)
            assert rep.injective, rep.to_dict()
            # for k=2 the split-off part 2 is itself divisible by k, so the
            # stated codomain cannot receive it; images stay distinct though
            assert rep.codomain_ok == (k != 2), rep.to_dict()
            assert rep.holds == lemma_holds("2.3", k, a, 2), rep.to_dict()

    @pytest.mark.parametrize("k", KS)
    def test_witness_unattained(self, k):
        missing = no_witness("2.3", k)
        for a in range(1, 21):
            rep = verify_lemma("2.3", k, a)
            assert (rep.unattained_witness is not None) == (
                a not in missing
            ), rep.to_dict()


class TestTrustedImages:
    # the map bodies build their image parts without sorting or validating;
    # the validating constructor must leave every such image exactly as it is
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize(
        "weight_shift,internal,public",
        [(1, _f2_parts, f2_map), (2, _f3_parts, f3_map)],
        ids=["f2", "f3"],
    )
    def test_images_canonical(self, k, weight_shift, internal, public):
        no2 = Constraint(k_regular=k, forbid_twos=True)
        for a in range(1, 15):
            for o in enumerate_overpartitions(a + weight_shift, no2):
                images = internal(o)
                for img in images:
                    assert Overpartition(img).parts == img, (o, img)
                pair = public(Overpartition(o), k)
                assert (pair.left.parts, pair.right.parts) == images

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_f1_images_canonical(self, k):
        no12 = Constraint(k_regular=k, forbid_ones=True, forbid_twos=True)
        for total in range(2, 19):
            for o in enumerate_overpartitions(total, no12):
                for b in range(1, total):
                    try:
                        images = _f1_parts(o, k, b)
                    except UnsupportedCaseError:
                        with pytest.raises(UnsupportedCaseError):
                            f1_map(Overpartition(o), k, total - b, b)
                        continue
                    for img in images:
                        assert Overpartition(img).parts == img, (o, b, img)
                    pair = f1_map(Overpartition(o), k, total - b, b)
                    assert (pair.left.parts, pair.right.parts) == images


class TestImageChecks:
    # verify_lemma must report each class of faulty map: a lemma's map is
    # replaced, in its row of the lemma table, by one that is wrong on
    # exactly one source.  (k, a, b) per lemma; lemma 2.1 is mapped from k = 5
    POINTS = {"2.1": (5, 6, 2), "2.2": (3, 6, 1), "2.3": (3, 6, 2)}
    LEMMAS = list(POINTS)

    def _verify_with(self, monkeypatch, lemma_id, fault):
        row = combinatorics._LEMMAS[lemma_id]
        k, a, b = self.POINTS[lemma_id]
        whole = Constraint(k_regular=k, forbid_ones=lemma_id == "2.1", forbid_twos=True)
        domain = enumerate_overpartitions(a + b, whole)
        first, second = domain[0], domain[1]

        def faulty(parts, k, b):
            left, right = row.split(parts, k, b)
            if parts == second:
                return fault(row.split(first, k, b), left, right)
            return left, right

        monkeypatch.setitem(combinatorics._LEMMAS, lemma_id, row._replace(split=faulty))
        rep = verify_lemma(lemma_id, k, a, b)
        return rep, Overpartition(first), Overpartition(second)

    @pytest.mark.parametrize("lemma_id", LEMMAS)
    def test_faithful_map_is_clean(self, lemma_id):
        rep = verify_lemma(lemma_id, *self.POINTS[lemma_id])
        assert rep.mode == "map"
        assert rep.injective and rep.codomain_ok and rep.notes == []

    @pytest.mark.parametrize("lemma_id", LEMMAS)
    def test_collision_reported(self, monkeypatch, lemma_id):
        # the second source is sent to the first source's image
        rep, first, second = self._verify_with(
            monkeypatch, lemma_id, lambda first_image, left, right: first_image
        )
        assert rep.injective is False
        assert rep.codomain_ok is True
        assert rep.notes == [f"collision: {first} and {second}"]

    @pytest.mark.parametrize("lemma_id", LEMMAS)
    def test_weight_violation_reported(self, monkeypatch, lemma_id):
        # one plain 1 too many on the left
        rep, _, second = self._verify_with(
            monkeypatch,
            lemma_id,
            lambda first_image, left, right: (left + ((1, False),), right),
        )
        assert rep.codomain_ok is False
        assert rep.injective is True
        assert rep.notes == [f"weight violation at {second}"]

    @pytest.mark.parametrize("overlined", [False, True])
    @pytest.mark.parametrize("lemma_id", LEMMAS)
    def test_codomain_violation_reported(self, monkeypatch, lemma_id, overlined):
        # a left image of the right weight a with the part k, in every other
        # respect inside each lemma's left codomain
        k, a, _ = self.POINTS[lemma_id]
        bad = ((k, overlined), (1, True)) + ((1, False),) * (a - k - 1)
        rep, _, second = self._verify_with(
            monkeypatch, lemma_id, lambda first_image, left, right: (bad, right)
        )
        assert rep.codomain_ok is False
        assert rep.injective is True
        assert rep.notes == [f"codomain violation at {second}"]


class TestCountMemo:
    # count_overpartitions keeps one memo per constraint across calls; its
    # answers must not depend on the order of the calls that filled it
    N_MAX = 18
    CONSTRAINTS = [
        Constraint(k, no1, no2)
        for k in KS
        for no1, no2 in [(False, False), (True, False), (False, True), (True, True)]
    ]

    @pytest.fixture(scope="class")
    def expected(self):
        return {
            (c, n): len(enumerate_overpartitions_oracle(n, c))
            for c in self.CONSTRAINTS
            for n in range(self.N_MAX + 1)
        }

    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_matches_oracle_in_any_order(self, expected, order):
        ns = list(range(self.N_MAX + 1))
        if order == "ascending":
            calls = [(c, n) for c in self.CONSTRAINTS for n in ns]
        elif order == "descending":
            calls = [(c, n) for c in self.CONSTRAINTS for n in reversed(ns)]
        else:
            calls = list(expected)
            random.Random(12).shuffle(calls)
        _count_walk.cache_clear()
        for c, n in calls:
            assert count_overpartitions(n, c) == expected[c, n], (c, n)


class TestF1:
    def test_y_zero_plain_split(self):
        # (5,3) with k=7, a=5, b=3: i=2, x=3, y=0
        pair = f1_map(op((5, False), (3, False)), 7, 5, 3)
        assert pair.left == op((5, False))
        assert pair.right == op((3, False))

    def test_case5_overlined_example(self):
        # k=7, y=7, part >= k+2 and overlined -> left tail (4 overlined, 3)
        lam = op((9, True), (8, False))
        # b such that x = 2, y = 7 at i = 1: tail after = 8, x = b - 8
        pair = f1_map(lam, 7, 7, 10)
        assert (4, True) in pair.left.parts and (3, False) in pair.left.parts

    def test_small_k_unsupported(self):
        with pytest.raises(UnsupportedCaseError):
            f1_map(op((5, False)), 3, 2, 3)

    @pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
    def test_exhaustive_injective(self, k):
        for total in range(2, 19):
            for b in range(1, total):
                a = total - b
                rep = verify_lemma("2.1", k, a, b)
                assert rep.holds == lemma_holds("2.1", k, a, b), rep.to_dict()
                assert rep.injective, rep.to_dict()
                assert rep.codomain_ok, rep.to_dict()
                # the open y=1 corner arises only when the whole first part
                # must move, i.e. at a = 1
                if a >= 2:
                    assert rep.unsupported == 0 and rep.mode == "map"
                else:
                    assert rep.mode in ("map", "map+cardinality")

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cardinality_fallback(self, k):
        for total in range(2, 19):
            for b in range(1, total):
                a = total - b
                rep = verify_lemma("2.1", k, a, b)
                assert rep.mode == "cardinality"
                # k=2, a=2: no 2-regular overpartition of 2 avoids plain 1's,
                # so the left factor is 0 and the product bound fails
                assert rep.holds == lemma_holds("2.1", k, a, b), rep.to_dict()


class TestLemma24:
    @pytest.mark.parametrize("k", KS)
    def test_range(self, k):
        for total in range(k + 1, 25):
            for b in range(3, total):
                a = total - b
                if a < 1:
                    continue
                rep = verify_lemma("2.4", k, a, b)
                # k=2 equalities at a=2, b in {3,4,5}; strict everywhere else
                assert rep.holds == lemma_holds("2.4", k, a, b), rep.to_dict()

    def test_out_of_range_rejected(self):
        with pytest.raises(OverpartitionError):
            verify_lemma("2.4", 5, 1, 2)



class TestTheorem11Boundary:
    def test_weak_at_a_b_one(self):
        rep = verify_lemma("2.1", 2, 1, 1)
        assert rep.lhs >= rep.rhs

    def test_subadditivity_at_k3_boundary(self):
        assert pk(3, 2) * pk(3, 1) > pk(3, 3)


class TestLemmaInputs:
    @pytest.mark.parametrize(
        "lemma_id, k, a, b, message",
        [
            ("2.2", 3, 4, 2, "lemma 2.2 fixes b = 1"),
            ("2.3", 3, 4, 1, "lemma 2.3 fixes b = 2"),
            ("2.1", 5, 4, None, "lemma 2.1 needs explicit b"),
            ("2.1", 5, 4, 0, "b must be >= 1, got 0"),
            ("2.4", 5, 2, 2, "lemma 2.4 needs b >= 3 and a+b >= k+1"),
            ("2.4", 5, 2, 3, "lemma 2.4 needs b >= 3 and a+b >= k+1"),
            ("2.5", 5, 4, 3, "unknown lemma id '2.5'"),
            ("2.5", 5, 4, None, "unknown lemma id '2.5'"),
            ("2.2", 1, 4, None, "k must be >= 2, got 1"),
            ("2.2", 3, 0, None, "a must be >= 1, got 0"),
        ],
    )
    def test_invalid_input_rejected(self, lemma_id, k, a, b, message):
        with pytest.raises(OverpartitionError) as info:
            verify_lemma(lemma_id, k, a, b)
        assert type(info.value) is OverpartitionError
        assert str(info.value) == message

    @pytest.mark.parametrize("lemma_id, b", [("2.2", 1), ("2.3", 2)])
    def test_fixed_b_may_be_given(self, lemma_id, b):
        assert verify_lemma(lemma_id, 4, 6, b) == verify_lemma(lemma_id, 4, 6)


def reference_grid(lemma_id, k, a_max, total_max):
    """The CLI's lemma grid as literally written before lemma_grid existed;
    b = None stands for the fixed b of lemmas 2.2/2.3."""
    if lemma_id in ("2.2", "2.3"):
        return [(a, None) for a in range(1, a_max + 1)]
    if lemma_id == "2.1":
        return [
            (a, b)
            for a in range(1, total_max)
            for b in range(1, total_max + 1 - a)
        ]
    return [
        (a, b)
        for a in range(1, total_max - 2)
        for b in range(3, total_max + 1 - a)
        if a + b >= k + 1
    ]


class TestLemmaGrid:
    @pytest.mark.parametrize("lemma_id", ["2.1", "2.2", "2.3", "2.4"])
    @pytest.mark.parametrize("k", KS)
    def test_matches_reference(self, lemma_id, k):
        fixed_b = {"2.2": 1, "2.3": 2}.get(lemma_id)
        for a_max, total_max in [(1, 2), (3, 4), (8, 10), (16, 14), (20, 18), (26, 22)]:
            expected = [
                (a, fixed_b if b is None else b)
                for a, b in reference_grid(lemma_id, k, a_max, total_max)
            ]
            assert list(lemma_grid(lemma_id, k, a_max, total_max)) == expected

    @pytest.mark.parametrize("k", KS)
    def test_every_point_verifies(self, k):
        # every grid point lies inside its lemma's domain
        for lemma_id in ("2.1", "2.4"):
            for a, b in lemma_grid(lemma_id, k, 1, 10):
                verify_lemma(lemma_id, k, a, b)

    def test_unknown_id_rejected(self):
        with pytest.raises(OverpartitionError, match="unknown lemma id"):
            list(lemma_grid("2.5", 3, 4, 6))


def test_report_serialization():
    rep = verify_lemma("2.2", 2, 5)
    data = rep.to_dict()
    assert data["lemma"] == "2.2"
    assert data["k"] == 2 and data["a"] == 5 and data["b"] == 1
    assert list(data) == [
        "lemma", "k", "a", "b", "lhs", "rhs", "strict", "holds", "injective",
        "codomain_ok", "unattained_witness", "mode", "unsupported", "notes",
    ]
    assert json.loads(json.dumps(data)) == data
    assert data["notes"] == rep.notes and data["notes"] is not rep.notes
