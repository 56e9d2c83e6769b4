from __future__ import annotations

import math
import random
import re
from collections import Counter
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from neutrochoice import (
    CompensationPlan,
    IndexOutOfRangeError,
    InvalidChoiceError,
    MissingAssignmentError,
    PreconditionViolatedError,
    ProductStatusKind,
    SetFamily,
    TieViolationError,
    allocate_compensators,
    build_choice,
    check_compensation,
    embed_classical,
    make_triplet,
    partition_set,
    product_status,
    verify_plan,
)
from oracles import (
    HALF,
    HALF_RESPELT,
    HALF_UP,
    HALF_UP_RESPELT,
    TENTH,
    TENTH_UP,
    compensation_holds_matching,
    near_tie_pool,
    reference_allocate,
    reference_verify_plan,
    sample_choice,
    sample_family,
    sample_needy_family,
    split_pool,
    triplet_pool,
)

CHOSEN = ("6/10", "3/10", "1/10")
NOT_CHOSEN = ("1/10", "7/10", "2/10")
INDETERMINATE = ("2/10", "3/10", "5/10")


def paper_example_choice():
    """The worked three-set family: nothing chosen from the first set, one
    element chosen from the second, and two chosen from the third with
    p_chosen(y) > p_chosen(z)."""
    family = SetFamily(sets=(("1", "2"), ("a", "b"), ("x", "y", "z")))
    triplets = {
        (0, "1"): ("3/10", "6/10", "1/10"),
        (0, "2"): ("2/10", "7/10", "1/10"),
        (1, "a"): CHOSEN,
        (1, "b"): NOT_CHOSEN,
        (2, "x"): ("2/10", "7/10", "1/10"),
        (2, "y"): ("5/10", "3/10", "2/10"),
        (2, "z"): ("8/20", "7/20", "5/20"),
    }
    return build_choice(family, triplets)


def test_set_family_rejects_empty_sets():
    with pytest.raises(ValueError):
        SetFamily(sets=((),))


def test_set_family_rejects_duplicates():
    with pytest.raises(ValueError):
        SetFamily(sets=(("a", "a"),))


def test_same_identifier_in_different_sets_is_distinct():
    family = SetFamily(sets=(("a",), ("a",)))
    choice = build_choice(family, {(0, "a"): CHOSEN, (1, "a"): NOT_CHOSEN})
    assert partition_set(choice, 0).chosen == ("a",)
    assert partition_set(choice, 1).chosen == ()


def test_build_choice_single_element():
    family = SetFamily(sets=(("a",),))
    choice = build_choice(family, {(0, "a"): CHOSEN})
    assert choice.triplet(0, "a").serialize() == ["3/5", "3/10", "1/10"]


def test_build_choice_requires_totality():
    family = SetFamily(sets=(("a", "b"),))
    with pytest.raises(MissingAssignmentError) as info:
        build_choice(family, {(0, "a"): CHOSEN})
    assert "'b'" in str(info.value)


def test_build_choice_tags_invalid_triplets():
    family = SetFamily(sets=(("a",),))
    with pytest.raises(TieViolationError) as info:
        build_choice(family, {(0, "a"): ("1/3", "1/3", "1/3")})
    assert "'a'" in str(info.value)


def test_partition_set_examples():
    family = SetFamily(sets=(("a", "b"),))
    choice = build_choice(family, {(0, "a"): CHOSEN, (0, "b"): NOT_CHOSEN})
    part = partition_set(choice, 0)
    assert part.chosen == ("a",)
    assert part.not_chosen == ("b",)
    assert part.indeterminate == ()

    lone = build_choice(SetFamily(sets=(("a",),)), {(0, "a"): INDETERMINATE})
    part = partition_set(lone, 0)
    assert part.indeterminate == ("a",)
    assert part.chosen == () and part.not_chosen == ()


def test_partition_set_rejects_bad_index():
    choice = build_choice(SetFamily(sets=(("a",),)), {(0, "a"): CHOSEN})
    with pytest.raises(IndexOutOfRangeError):
        partition_set(choice, 1)
    with pytest.raises(IndexOutOfRangeError):
        partition_set(choice, -1)


def test_partition_parts_cover_set():
    rng = random.Random(5)
    for _ in range(50):
        choice = sample_choice(rng, sample_family(rng, 4, 5), bound=10)
        for i, members in enumerate(choice.family.sets):
            part = partition_set(choice, i)
            pieces = part.chosen + part.not_chosen + part.indeterminate
            assert sorted(pieces) == sorted(members)
            assert len(pieces) == len(members)


def test_embed_classical_two_elements():
    family = SetFamily(sets=((1, 2),))
    choice = embed_classical(family, {0: 1})
    assert choice.triplet(0, 1).serialize() == ["7/10", "1/5", "1/10"]
    assert choice.triplet(0, 2).serialize() == ["1/5", "7/10", "1/10"]
    assert partition_set(choice, 0).chosen == (1,)


def test_embed_classical_singleton():
    family = SetFamily(sets=(("a",),))
    assert partition_set(embed_classical(family, {0: "a"}), 0).chosen == ("a",)


def test_embed_classical_rejects_foreign_choice():
    family = SetFamily(sets=((1, 2),))
    with pytest.raises(InvalidChoiceError):
        embed_classical(family, {0: 3})
    with pytest.raises(InvalidChoiceError):
        embed_classical(family, {})


def test_embed_classical_roundtrip_fuzz():
    rng = random.Random(99)
    for _ in range(100):
        family = sample_family(rng, 8, 8)
        choice_map = {i: rng.choice(members) for i, members in enumerate(family.sets)}
        embedded = embed_classical(family, choice_map)
        for i in range(len(family)):
            assert partition_set(embedded, i).chosen == (choice_map[i],)


def test_check_compensation_paper_example():
    report = check_compensation(paper_example_choice())
    assert report.holds
    assert report.uncompensatable == ()


def test_check_compensation_vacuous():
    family = SetFamily(sets=(("a",), ("b",)))
    choice = build_choice(family, {(0, "a"): CHOSEN, (1, "b"): CHOSEN})
    assert check_compensation(choice).holds


def test_check_compensation_single_set_fails():
    choice = build_choice(SetFamily(sets=(("a",),)), {(0, "a"): NOT_CHOSEN})
    report = check_compensation(choice)
    assert not report.holds
    assert report.uncompensatable == (0,)


def test_allocate_paper_example():
    # the donor's top element y is kept, so z compensates; within the empty
    # set, element 1 has the greater choice probability
    plan = allocate_compensators(paper_example_choice())
    assert len(plan.pairs) == 1
    pair = plan.pairs[0]
    assert pair.recipient_index == 0
    assert pair.compensated == "1"
    assert pair.donor_index == 2
    assert pair.compensator == "z"
    assert (2, "y") in plan.marks and (2, "z") in plan.marks


def test_allocate_empty_plan_when_nothing_missing():
    family = SetFamily(sets=(("a",), ("b",)))
    choice = build_choice(family, {(0, "a"): CHOSEN, (1, "b"): CHOSEN})
    plan = allocate_compensators(choice)
    assert plan.pairs == ()


def test_allocate_rejects_capacity_shortfall():
    # two empty sets, one donor with exactly two chosen elements: capacity
    # is one (the top element is reserved), so allocation must refuse
    family = SetFamily(sets=(("p",), ("q",), ("u", "v")))
    choice = build_choice(
        family,
        {
            (0, "p"): NOT_CHOSEN,
            (1, "q"): NOT_CHOSEN,
            (2, "u"): ("6/10", "3/10", "1/10"),
            (2, "v"): ("5/10", "3/10", "2/10"),
        },
    )
    assert partition_set(choice, 2).chosen == ("u", "v")  # one compensator slot
    assert not check_compensation(choice).holds
    with pytest.raises(PreconditionViolatedError):
        allocate_compensators(choice)


def test_plan_revalidates_and_marks_are_exclusive():
    rng = random.Random(17)
    produced = 0
    for _ in range(300):
        choice = sample_choice(rng, sample_family(rng, 4, 4), bound=8)
        report = check_compensation(choice)
        if not report.holds:
            continue
        plan = allocate_compensators(choice)
        produced += 1
        assert verify_plan(choice, plan)
        compensators = [(p.donor_index, p.compensator) for p in plan.pairs]
        assert len(compensators) == len(set(compensators))
        for pair in plan.pairs:
            donor_part = partition_set(choice, pair.donor_index)
            assert len(donor_part.chosen) >= 2
            assert pair.compensator in donor_part.chosen
            assert pair.donor_index != pair.recipient_index
    assert produced > 50


def test_verify_plan_rejects_tampering():
    choice = paper_example_choice()
    plan = allocate_compensators(choice)
    bad = plan.pairs[0].__class__(
        recipient_index=0, compensated="1", donor_index=2, compensator="y"
    )
    tampered = plan.__class__(pairs=(bad,), marks=plan.marks)
    assert not verify_plan(choice, tampered)  # y is the donor's reserved top


@pytest.mark.parametrize(
    "forge",
    [
        lambda marks: (),
        lambda marks: marks[:-1],
        lambda marks: marks + ((1, "a"),),
        lambda marks: marks + marks[:1],
        lambda marks: marks[:1] * len(marks),
        lambda marks: ((9, "q"),) * len(marks),
    ],
    ids=["no-marks", "missing", "extra", "duplicated", "duplicated-same-length", "junk"],
)
def test_verify_plan_checks_the_marks(forge):
    # marks: the donor's reserved top y and the compensator z, each once
    choice = paper_example_choice()
    plan = allocate_compensators(choice)
    assert plan.marks == ((2, "y"), (2, "z"))
    assert verify_plan(choice, replace(plan, marks=plan.marks[::-1]))  # any order
    assert not verify_plan(choice, replace(plan, marks=forge(plan.marks)))


def forged_plans(choice, plan):
    """``(field, forged plan)`` for every plan that differs from ``plan`` in
    one field of one pair, or in one mark dropped, duplicated or replaced."""
    sets = choice.family.sets
    indices = range(-1, len(sets) + 1)
    elements = sorted({element for members in sets for element in members}) + ["absent"]
    keys = [(index, element) for index, members in enumerate(sets) for element in members]
    for n, pair in enumerate(plan.pairs):
        for field, values in (
            ("recipient_index", indices),
            ("donor_index", indices),
            ("compensator", elements),
            ("compensated", elements),
        ):
            for value in values:
                if value != getattr(pair, field):
                    pairs = list(plan.pairs)
                    pairs[n] = replace(pair, **{field: value})
                    yield field, replace(plan, pairs=tuple(pairs))
    marks = plan.marks
    for n, mark in enumerate(marks):
        yield "mark dropped", replace(plan, marks=marks[:n] + marks[n + 1 :])
        yield "mark duplicated", replace(plan, marks=marks + (mark,))
        for key in keys:
            if key != mark:
                yield "mark replaced", replace(plan, marks=marks[:n] + (key,) + marks[n + 1 :])


def test_verify_plan_matches_the_reference_on_forged_plans():
    rng = random.Random(4343)
    groups = split_pool(triplet_pool(6))
    verdicts: Counter = Counter()
    for _ in range(10):
        choice = sample_needy_family(rng, groups, rng.randint(3, 8))
        plan = allocate_compensators(choice)
        assert verify_plan(choice, plan) and reference_verify_plan(choice, plan)
        for field, forged in forged_plans(choice, plan):
            valid = verify_plan(choice, forged)
            assert valid == reference_verify_plan(choice, forged), (choice, forged)
            verdicts[field, valid] += 1
    # every kind of forgery is met and rejected; another element of the recipient's set is a valid plan
    fields = ["recipient_index", "donor_index", "compensator", "compensated", "mark dropped", "mark duplicated", "mark replaced"]
    assert all(verdicts[field, False] for field in fields), verdicts
    assert verdicts["compensated", True], verdicts


def test_allocate_matches_reference_fuzz():
    rng = random.Random(2024)
    planned = refused = 0
    for _ in range(400):
        family = sample_family(rng, rng.choice((4, 8, 16)), 6)
        choice = sample_choice(rng, family, bound=rng.choice((6, 12)))
        try:
            expected = reference_allocate(choice)
        except PreconditionViolatedError:
            with pytest.raises(PreconditionViolatedError):
                allocate_compensators(choice)
            refused += 1
            continue
        assert allocate_compensators(choice) == expected
        planned += 1
    assert planned >= 100 and refused >= 50, (planned, refused)


def test_allocate_matches_reference_on_needy_families():
    # half needy sets, half rich ones: up to 200 sets, the benchmark's sizes
    rng = random.Random(77)
    groups = split_pool(triplet_pool(12))
    for n_sets in (20, 100, 200, 200, 200):
        choice = sample_needy_family(rng, groups, n_sets)
        plan = allocate_compensators(choice)
        assert plan == reference_allocate(choice)
        assert len(plan.pairs) >= n_sets // 4


def near_tie_choice(reverse: bool = False):
    """Set 0's chosen p_chosen values are 1/2 (a, c) and 1/2 + 1/(2*10**20)
    (b, d), each spelled two ways, set 1's likewise; floats would tie them
    all.  Sets 2-5 choose nothing and hold 1/10 and 1/10 + 1/10**20."""
    sets = (("a", "b", "c", "d"), ("e", "f"), ("p", "q"), ("r",), ("s",), ("t",))
    if reverse:
        sets = tuple(xs[::-1] for xs in sets)
    triplets = {
        (0, "a"): HALF, (0, "b"): HALF_UP, (0, "c"): HALF_RESPELT, (0, "d"): HALF_UP_RESPELT,
        (1, "e"): HALF_RESPELT, (1, "f"): HALF_UP,
        (2, "p"): TENTH, (2, "q"): TENTH_UP,
        (3, "r"): TENTH, (4, "s"): TENTH_UP, (5, "t"): TENTH,
    }
    return build_choice(SetFamily(sets=sets), triplets)


@pytest.mark.parametrize(
    ("reverse", "pairs", "marks", "witness"),
    [
        (
            False,
            [(2, "q", 0, "d"), (3, "r", 0, "a"), (4, "s", 0, "c"), (5, "t", 1, "e")],
            [(0, "b"), (1, "f"), (0, "d"), (0, "a"), (0, "c"), (1, "e")],
            ("b", "f"),
        ),
        (
            True,
            [(2, "q", 0, "b"), (3, "r", 0, "c"), (4, "s", 0, "a"), (5, "t", 1, "e")],
            [(0, "d"), (1, "f"), (0, "b"), (0, "c"), (0, "a"), (1, "e")],
            ("d", "f"),
        ),
    ],
    ids=["listed", "reversed"],
)
def test_engines_order_probabilities_exactly(reverse, pairs, marks, witness):
    # greater by less than float resolution wins; equal values, however
    # spelled, fall to canonical order
    assert float(make_triplet(*HALF).p_chosen) == float(make_triplet(*HALF_UP).p_chosen)
    choice = near_tie_choice(reverse)
    plan = allocate_compensators(choice)
    assert plan == reference_allocate(choice)
    assert [(p.recipient_index, p.compensated, p.donor_index, p.compensator) for p in plan.pairs] == pairs
    assert list(plan.marks) == marks
    assert verify_plan(choice, plan)
    rich = build_choice(SetFamily(sets=choice.family.sets[:2]), choice.assignment)
    status = product_status(rich)
    assert status.kind is ProductStatusKind.NON_EMPTY_WITNESS
    assert status.witness == witness


def test_allocate_matches_reference_on_near_ties():
    rng = random.Random(78)
    groups = split_pool(near_tie_pool())
    for n_sets in (5, 20, 100):
        for _ in range(10):
            choice = sample_needy_family(rng, groups, n_sets)
            assert allocate_compensators(choice) == reference_allocate(choice)


def test_allocate_compares_each_distinct_probability_a_few_times(monkeypatch):
    # Fraction comparisons run in Python: the engine sorts the D distinct
    # p_chosen values once and compares integer ranks from then on
    choice = sample_needy_family(random.Random(77), split_pool(triplet_pool(12)), 200)
    distinct = len({t.p_chosen for t in choice.assignment.values()})
    calls = 0
    richcmp = Fraction._richcmp

    def counting(self, other, op):
        nonlocal calls
        calls += 1
        return richcmp(self, other, op)

    monkeypatch.setattr(Fraction, "_richcmp", counting)
    allocate_compensators(choice)
    assert distinct == 46
    assert calls <= distinct * math.ceil(math.log2(distinct)) + distinct


def test_verify_plan_reads_no_rank_table():
    choice = paper_example_choice()
    plan = allocate_compensators(choice)
    # a rank table upside down: it would make z, not y, set 2's top
    choice.__dict__["rank"] = {key: -rank for key, rank in choice.rank.items()}
    assert verify_plan(choice, plan)
    (pair,) = plan.pairs
    swapped = CompensationPlan(
        pairs=(replace(pair, compensator="y"),), marks=((2, "z"), (2, "y"))
    )
    assert not verify_plan(choice, swapped)


def test_allocate_5000_sets_in_one_pass():
    rng = random.Random(5)
    choice = sample_needy_family(rng, split_pool(triplet_pool(12)), 5000)
    started = time.perf_counter()
    plan = allocate_compensators(choice)
    elapsed = time.perf_counter() - started
    assert len(plan.pairs) > 2000
    assert verify_plan(choice, plan)
    assert elapsed < 5


def test_check_compensation_agrees_with_matcher_smoke():
    rng = random.Random(23)
    for _ in range(200):
        choice = sample_choice(rng, sample_family(rng, 4, 4), bound=6)
        assert check_compensation(choice).holds == compensation_holds_matching(choice)


def test_product_status_all_indeterminate():
    family = SetFamily(sets=(("a", "b"), ("c",)))
    choice = build_choice(
        family,
        {
            (0, "a"): INDETERMINATE,
            (0, "b"): ("1/10", "2/10", "7/10"),
            (1, "c"): INDETERMINATE,
        },
    )
    status = product_status(choice)
    assert status.kind is ProductStatusKind.INDETERMINATE
    assert status.witness is None


def test_product_status_witness_matches_classical_choice():
    family = SetFamily(sets=(("a", "b"), ("c", "d")))
    choice_map = {0: "b", 1: "c"}
    status = product_status(embed_classical(family, choice_map))
    assert status.kind is ProductStatusKind.NON_EMPTY_WITNESS
    assert status.witness == ("b", "c")


def test_product_status_no_witness():
    family = SetFamily(sets=(("a",), ("b",)))
    choice = build_choice(family, {(0, "a"): NOT_CHOSEN, (1, "b"): CHOSEN})
    status = product_status(choice)
    assert status.kind is ProductStatusKind.NO_WITNESS
    assert status.witness is None


def test_product_status_never_claims_witness_with_empty_part():
    rng = random.Random(31)
    for _ in range(200):
        choice = sample_choice(rng, sample_family(rng, 4, 4), bound=8)
        status = product_status(choice)
        empty_parts = [
            i
            for i in range(len(choice.family))
            if not partition_set(choice, i).chosen
        ]
        if status.kind is ProductStatusKind.NON_EMPTY_WITNESS:
            assert not empty_parts
            assert len(status.witness) == len(choice.family)
            for i, element in enumerate(status.witness):
                assert element in partition_set(choice, i).chosen
        else:
            assert empty_parts


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})  # its asserts are the checks
