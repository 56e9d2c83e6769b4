from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from neutrochoice import (
    CompensationExhaustedError,
    MaximalReport,
    MissingAssignmentError,
    NotAMemberError,
    Provenance,
    SetFamily,
    SuccessorEntry,
    Verdict,
    ZornFamily,
    allocate_compensators,
    build_choice,
    check_chain_closed,
    find_maximal,
    make_triplet,
    partition_set,
    superset_fan,
    verify_report,
)
from neutrochoice.zorn import fan_pairs
from oracles import (
    HALF,
    HALF_RESPELT,
    HALF_UP,
    HALF_UP_RESPELT,
    TENTH,
    TENTH_RESPELT,
    TENTH_UP,
    brute_maximal_indices,
    near_tie_pool,
    reference_fans,
    reference_find_maximal,
    reference_verify_report,
    sample_starved_zorn,
    sample_zorn_instance,
    split_pool,
    triplet_pool,
    zorn_compensation_feasible,
)

CHOSEN_HI = ("6/10", "3/10", "1/10")
CHOSEN_LO = ("5/10", "3/10", "2/10")
NOT_CHOSEN = ("1/10", "7/10", "2/10")


def diamond_family() -> ZornFamily:
    return ZornFamily(
        members=(frozenset(), frozenset("1"), frozenset("2"), frozenset("12"))
    )


def all_chosen_table(family: ZornFamily) -> dict:
    table = {}
    for i, base in enumerate(family.members):
        for j, other in enumerate(family.members):
            if base < other:
                table[(i, j)] = CHOSEN_HI if (i + j) % 2 else CHOSEN_LO
    return table


def test_family_rejects_duplicate_members():
    with pytest.raises(ValueError):
        ZornFamily(members=(frozenset("a"), frozenset("a")))


def test_check_chain_closed():
    assert check_chain_closed(diamond_family())
    assert check_chain_closed(ZornFamily(members=(frozenset(),)))
    assert not check_chain_closed(
        ZornFamily(members=(frozenset("1"), frozenset("12")))
    )


def test_superset_fan():
    family = ZornFamily(members=(frozenset(), frozenset("1"), frozenset("12")))
    fan = superset_fan(family, frozenset("1"))
    assert fan.entries(family) == (frozenset("12"),)
    assert superset_fan(family, frozenset("12")).entry_indices == ()
    assert superset_fan(family, frozenset()).entry_indices == (1, 2)
    with pytest.raises(NotAMemberError):
        superset_fan(family, frozenset("9"))


def test_find_maximal_all_chosen():
    family = diamond_family()
    report = find_maximal(family, all_chosen_table(family))
    assert report.maximal_members(family) == (frozenset("12"),)
    assert set(report.successors) == {0, 1, 2}
    assert all(
        entry.provenance is Provenance.DIRECT for entry in report.successors.values()
    )
    for base_index, entry in report.successors.items():
        assert family.members[base_index] < family.members[entry.successor_index]
    assert verify_report(family, report)


def test_find_maximal_singleton():
    family = ZornFamily(members=(frozenset("1"),))
    report = find_maximal(family, {})
    assert report.maximal_indices == (0,)
    assert report.successors == {}
    assert verify_report(family, report)


def test_find_maximal_requires_total_table():
    family = diamond_family()
    table = all_chosen_table(family)
    table.pop((0, 1))
    with pytest.raises(MissingAssignmentError):
        find_maximal(family, table)


def test_find_maximal_compensates_starved_fan():
    # the fan of {1} contains only {1,2} and rejects it, so the successor
    # must be borrowed: the unmarked chosen entry {1,2} seen from the fan
    # of the empty set still strictly contains {1}
    family = diamond_family()
    table = {
        (0, 1): CHOSEN_LO,
        (0, 2): ("8/20", "7/20", "5/20"),
        (0, 3): CHOSEN_HI,
        (1, 3): NOT_CHOSEN,
        (2, 3): NOT_CHOSEN,
    }
    # the empty set's fan marks its top ({1,2}, probability 6/10); entries
    # {1} and {2} stay unmarked, but neither contains {1}, so the pending
    # member must wait for... no other donor exists: expect exhaustion
    with pytest.raises(CompensationExhaustedError):
        find_maximal(family, table)


def test_find_maximal_compensated_provenance():
    # give the empty set's fan two chosen supersets of {1}: the top one is
    # reserved as the empty set's own successor, the other compensates {1}
    family = ZornFamily(
        members=(frozenset(), frozenset("1"), frozenset("12"), frozenset("13"))
    )
    table = {
        (0, 1): ("3/10", "5/10", "2/10"),
        (0, 2): CHOSEN_HI,
        (0, 3): CHOSEN_LO,
        (1, 2): NOT_CHOSEN,
        (1, 3): NOT_CHOSEN,
    }
    report = find_maximal(family, table)
    entry = report.successors[1]
    assert entry.provenance is Provenance.COMPENSATED
    assert entry.successor_index == 3  # index 2 is marked as the fan top
    assert family.members[1] < family.members[entry.successor_index]
    assert verify_report(family, report)


def test_find_maximal_exhaustion_names_the_starved_member():
    family = ZornFamily(members=(frozenset(), frozenset("1")))
    table = {(0, 1): NOT_CHOSEN}
    with pytest.raises(CompensationExhaustedError) as info:
        find_maximal(family, table)
    assert "0" in str(info.value)


def test_exhaustion_names_a_member_that_cannot_be_served():
    # the empty set's fan chooses {z} (its top, reserved), {b,c,x} and
    # {a,y}; every other fan entry is unchosen.  {a} can take {a,y}, but
    # {b} and {c} both fit only inside {b,c,x}: the Hall violator is
    # members 2 and 3, and member 3 is the one left without a compensator
    family = ZornFamily(
        members=tuple(frozenset(m) for m in ((), "a", "b", "c", "bcx", "ay", "z"))
    )
    table = {pair: NOT_CHOSEN for pair in fan_pairs(family)}
    table[(0, 6)] = ("7/10", "2/10", "1/10")
    table[(0, 4)] = CHOSEN_HI
    table[(0, 5)] = CHOSEN_LO
    with pytest.raises(CompensationExhaustedError) as info:
        find_maximal(family, table)
    assert info.value.address == "member 3"
    assert "members [2, 3]" in str(info.value)
    assert "[4]" in str(info.value)


def _assert_same_as_reference(family, table) -> str:
    """Run both engines; return "exhausted", "compensated" or "direct"."""
    try:
        expected = reference_find_maximal(family, table)
    except CompensationExhaustedError:
        with pytest.raises(CompensationExhaustedError):
            find_maximal(family, table)
        return "exhausted"
    report = find_maximal(family, table)
    assert report == expected
    assert list(report.successors.items()) == list(expected.successors.items())
    if any(e.provenance is Provenance.COMPENSATED for e in report.successors.values()):
        return "compensated"
    return "direct"


def test_find_maximal_matches_reference_fuzz():
    rng = random.Random(9090)
    groups = split_pool(triplet_pool(6))
    counts = {"exhausted": 0, "compensated": 0, "direct": 0}
    for _ in range(600):
        family, table = sample_zorn_instance(
            rng, groups, max_members=rng.choice((6, 10, 16)), universe=rng.choice(("abcde", "abcdefg"))
        )
        counts[_assert_same_as_reference(family, table)] += 1
    assert min(counts.values()) >= 50, counts


def test_find_maximal_matches_reference_on_starved_families():
    # 50-100 members with starved large fans, the shape of the benchmark's
    # zorn workload; starving every large fan unchecked exhausts most
    # 50-member families (the reference engine is too slow to exhaust
    # larger ones in a unit test)
    rng = random.Random(31)
    groups = split_pool(triplet_pool(12))
    counts = {"exhausted": 0, "compensated": 0, "direct": 0}
    for n in (50, 80, 100):
        for _ in range(6):
            family, table = sample_starved_zorn(rng, groups, n)
            counts[_assert_same_as_reference(family, table)] += 1
    for _ in range(8):
        family, table = sample_starved_zorn(rng, groups, 50, starve=1.0, feasible=False)
        counts[_assert_same_as_reference(family, table)] += 1
    assert counts["compensated"] >= 18 and counts["exhausted"] >= 4, counts


@pytest.mark.parametrize(("entry_4", "compensator"), [(HALF_UP_RESPELT, 4), (HALF_RESPELT, 3)])
def test_find_maximal_orders_probabilities_exactly(entry_4, compensator):
    # p_chosen 1/2 and 1/2 + 1/(2*10**20) are one float; equal values,
    # however spelled, fall to member order.  The empty set's top is entry
    # 2, the first of its greatest; starved {a} takes the best-ranked
    # unmarked entry containing it: 4 above 3, or 3 when they tie
    family = ZornFamily(
        members=tuple(map(frozenset, ("", "a", "b", "ab", "ac", "abc")))
    )
    table = {
        (0, 1): HALF, (0, 2): HALF_UP, (0, 3): HALF_RESPELT, (0, 4): entry_4, (0, 5): TENTH,
        (1, 3): TENTH, (1, 4): TENTH_UP, (1, 5): TENTH_RESPELT,
        (2, 3): TENTH_UP, (2, 5): HALF,
        (3, 5): HALF_UP,
        (4, 5): HALF_RESPELT,
    }
    assert _assert_same_as_reference(family, table) == "compensated"
    report = find_maximal(family, table)
    assert report.maximal_indices == (5,)
    assert {base: (e.successor_index, e.provenance) for base, e in report.successors.items()} == {
        0: (2, Provenance.DIRECT),
        1: (compensator, Provenance.COMPENSATED),
        2: (5, Provenance.DIRECT),
        3: (5, Provenance.DIRECT),
        4: (5, Provenance.DIRECT),
    }


def test_find_maximal_matches_reference_on_near_ties():
    rng = random.Random(9191)
    groups = split_pool(near_tie_pool())
    counts = {"exhausted": 0, "compensated": 0, "direct": 0}
    for _ in range(600):
        family, table = sample_zorn_instance(rng, groups, max_members=rng.choice((6, 10, 16)))
        counts[_assert_same_as_reference(family, table)] += 1
    assert min(counts.values()) >= 50, counts


def test_find_maximal_serves_over_a_thousand_pending_members():
    # pending members {x_i} fit inside the universal member Q and the links
    # {x_(i-1), x_i, y_i}, {x_i, x_(i+1), y_(i+1)}; Q ranks first, so every
    # new member displaces the previous holder of Q down a chain as long as
    # the family, and fixing member 0 on Q re-routes the whole chain again
    k = 1050
    xs = [f"x{i}" for i in range(k)]
    members = [frozenset(), frozenset({"w"}), frozenset(xs)]
    members += [frozenset({x}) for x in xs]
    members += [frozenset({xs[i - 1], xs[i], f"y{i}"}) for i in range(1, k)]
    members.append(frozenset({xs[-1], "z"}))
    family = ZornFamily(members=tuple(members))
    top, high, low, no = (
        make_triplet(*t) for t in (("9/10", "3/40", "1/40"), CHOSEN_HI, CHOSEN_LO, NOT_CHOSEN)
    )
    table = {
        (base, entry): (top if entry == 1 else high if entry == 2 else low) if base == 0 else no
        for base, entry in fan_pairs(family)
    }
    started = time.perf_counter()
    report = find_maximal(family, table)
    elapsed = time.perf_counter() - started
    compensated = {
        base: entry.successor_index
        for base, entry in report.successors.items()
        if entry.provenance is Provenance.COMPENSATED
    }
    assert len(compensated) == k
    assert compensated[3] == 2  # member 0 of the chain takes Q, ranked first
    assert verify_report(family, report)
    assert elapsed < 10


def test_verify_report_rejects_false_maximal_claim():
    family = ZornFamily(members=(frozenset("1"), frozenset("12")))
    bad = find_maximal(
        family, {(0, 1): CHOSEN_HI}
    ).__class__(maximal_indices=(0, 1), successors={})
    assert not verify_report(family, bad)


def test_verify_report_rejects_duplicate_compensator():
    family = ZornFamily(
        members=(frozenset(), frozenset("1"), frozenset("2"), frozenset("12"))
    )
    report = find_maximal(family, all_chosen_table(family))
    forged = report.__class__(
        maximal_indices=report.maximal_indices,
        successors={
            0: SuccessorEntry(successor_index=3, provenance=Provenance.COMPENSATED),
            1: SuccessorEntry(successor_index=3, provenance=Provenance.COMPENSATED),
            2: SuccessorEntry(successor_index=3, provenance=Provenance.DIRECT),
        },
    )
    assert not verify_report(family, forged)


def test_verify_report_rejects_non_superset_successor():
    family = ZornFamily(members=(frozenset("1"), frozenset("2"), frozenset("12")))
    forged = find_maximal(
        family, {(0, 2): CHOSEN_HI, (1, 2): CHOSEN_LO}
    ).__class__(
        maximal_indices=(2,),
        successors={
            0: SuccessorEntry(successor_index=1, provenance=Provenance.DIRECT),
            1: SuccessorEntry(successor_index=2, provenance=Provenance.DIRECT),
        },
    )
    assert not verify_report(family, forged)


def _direct(index: int) -> SuccessorEntry:
    return SuccessorEntry(successor_index=index, provenance=Provenance.DIRECT)


@pytest.mark.parametrize(
    "maximal, successors",
    [
        ((), {}),
        ((2, 2), {}),
        ((2, 2), {0: _direct(1), 1: _direct(2)}),
        ((2,), {0: _direct(1)}),
        ((2, 3), {0: _direct(1), 1: _direct(2)}),
        ((2,), {-1: _direct(2), 0: _direct(1), 1: _direct(2)}),
    ],
    ids=["empty", "duplicated-maximal", "duplicated-maximal-with-successors",
         "member-in-neither-list", "maximal-out-of-range", "base-out-of-range"],
)
def test_verify_report_requires_every_member_exactly_once(maximal, successors):
    family = ZornFamily(members=(frozenset(), frozenset("a"), frozenset("ab")))
    complete = MaximalReport(maximal_indices=(2,), successors={0: _direct(1), 1: _direct(2)})
    assert verify_report(family, complete)
    assert not verify_report(family, MaximalReport(maximal_indices=maximal, successors=successors))


def forged_reports(family, report):
    """``(field, forged report)`` for every report that differs from ``report``
    in one successor's index or provenance, one successor dropped or moved
    into the maximal members, or one maximal index dropped or repeated."""
    successors, maximal = report.successors, report.maximal_indices
    flipped = {Provenance.DIRECT: Provenance.COMPENSATED, Provenance.COMPENSATED: Provenance.DIRECT}
    for base, entry in successors.items():
        for index in range(-1, len(family) + 1):
            if index != entry.successor_index:
                forged = dataclasses.replace(entry, successor_index=index)
                yield "successor index", dataclasses.replace(report, successors={**successors, base: forged})
        forged = dataclasses.replace(entry, provenance=flipped[entry.provenance])
        yield "provenance", dataclasses.replace(report, successors={**successors, base: forged})
        rest = {other: e for other, e in successors.items() if other != base}
        yield "successor dropped", dataclasses.replace(report, successors=rest)
        yield "successor made maximal", MaximalReport(maximal_indices=(*maximal, base), successors=rest)
    for n in range(len(maximal)):
        yield "maximal dropped", dataclasses.replace(report, maximal_indices=maximal[:n] + maximal[n + 1 :])
        yield "maximal repeated", dataclasses.replace(report, maximal_indices=(*maximal, maximal[n]))


def test_verify_report_matches_the_reference_on_forged_reports():
    rng = random.Random(5151)
    groups = split_pool(triplet_pool(12))
    verdicts: Counter = Counter()
    compensated = 0
    for _ in range(40):
        family, table = sample_starved_zorn(rng, groups, rng.randint(8, 24))
        report = find_maximal(family, table)
        assert verify_report(family, report) and reference_verify_report(family, report)
        compensated += any(e.provenance is Provenance.COMPENSATED for e in report.successors.values())
        for field, forged in forged_reports(family, report):
            valid = verify_report(family, forged)
            assert valid == reference_verify_report(family, forged), (family, forged)
            verdicts[field, valid] += 1
    # every kind of forgery is met and rejected; the rules read no triplets, so a
    # swap to another strict superset, or a flip that double-books nothing, passes
    fields = ["successor index", "provenance", "successor dropped", "successor made maximal",
              "maximal dropped", "maximal repeated"]
    assert all(verdicts[field, False] for field in fields), verdicts
    assert verdicts["successor index", True] and verdicts["provenance", True], verdicts
    assert compensated >= 10, compensated  # the compensator rules are exercised


FAMILIES = st.lists(st.frozensets(st.sampled_from("abcde")), unique=True, max_size=12).map(
    lambda members: ZornFamily(members=tuple(members))
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(FAMILIES)
@example(ZornFamily(members=()))
@example(ZornFamily(members=(frozenset(),)))
@example(ZornFamily(members=(frozenset("a"),)))
@example(ZornFamily(members=(frozenset("ab"), frozenset(), frozenset("a"), frozenset("b"))))
def test_fans_table_matches_the_reference(family):
    expected = reference_fans(family)
    twin = ZornFamily(members=family.members)
    table = family.fans
    assert [list(fan) for fan in table] == expected
    assert fan_pairs(family) == [(base, entry) for base, fan in enumerate(expected) for entry in fan]
    assert [list(superset_fan(family, m).entry_indices) for m in family.members] == expected
    # the table is no field: the twin has not read it and still compares, hashes and prints equal
    assert "fans" in vars(family) and "fans" not in vars(twin)
    assert twin == family and hash(twin) == hash(family) and repr(twin) == repr(family)
    assert [field.name for field in dataclasses.fields(ZornFamily)] == ["members"]
    find_maximal(family, all_chosen_table(family))
    assert family.fans is table
    with pytest.raises(dataclasses.FrozenInstanceError):
        family.fans = ()


def test_find_maximal_matches_brute_force_fuzz():
    rng = random.Random(4242)
    groups = split_pool(triplet_pool(6))
    checked = 0
    compensated = 0
    while checked < 60:
        family, table = sample_zorn_instance(rng, groups)
        if not zorn_compensation_feasible(family, table):
            with pytest.raises(CompensationExhaustedError):
                find_maximal(family, table)
            continue
        report = find_maximal(family, table)
        checked += 1
        assert report.maximal_indices == brute_maximal_indices(family)
        assert verify_report(family, report)
        for base_index, entry in report.successors.items():
            assert family.members[base_index] < family.members[entry.successor_index]
        if any(
            entry.provenance is Provenance.COMPENSATED
            for entry in report.successors.values()
        ):
            compensated += 1
    assert compensated > 0


def test_find_maximal_terminates_on_inclusion_chain():
    # chain of ten nested members with every fan rejecting everything except
    # the fan of the empty set, which must feed compensators to all of them
    elements = "abcdefghij"
    members = tuple(frozenset(elements[:size]) for size in range(10))
    family = ZornFamily(members=members)
    table = {}
    for i, base in enumerate(family.members):
        for j, other in enumerate(family.members):
            if base < other:
                table[(i, j)] = CHOSEN_HI if i == 0 else NOT_CHOSEN
    # fan of the empty set has nine chosen entries; its top is reserved, so
    # eight compensators remain for eight pending members: just enough
    report = find_maximal(family, table)
    assert report.maximal_indices == (9,)
    assert verify_report(family, report)
    compensated = [
        entry
        for entry in report.successors.values()
        if entry.provenance is Provenance.COMPENSATED
    ]
    assert len(compensated) == 8


def test_compensator_selection_avoids_starving_later_members():
    # {x} prefers the higher-probability compensator {x,y}, but {x,y} is the
    # only candidate that contains {y}; the allocator must leave it alone
    # and hand {x} the lower-probability {x,z} instead
    family = ZornFamily(
        members=(
            frozenset(),
            frozenset("x"),
            frozenset("y"),
            frozenset({"x", "z"}),
            frozenset({"x", "y"}),
        )
    )
    table = {
        (0, 1): CHOSEN_HI,
        (0, 2): NOT_CHOSEN,
        (0, 3): ("8/20", "7/20", "5/20"),
        (0, 4): CHOSEN_LO,
        (1, 3): NOT_CHOSEN,
        (1, 4): NOT_CHOSEN,
        (2, 4): NOT_CHOSEN,
    }
    report = find_maximal(family, table)
    assert report.successors[1].successor_index == 3
    assert report.successors[1].provenance is Provenance.COMPENSATED
    assert report.successors[2].successor_index == 4
    assert report.successors[2].provenance is Provenance.COMPENSATED
    assert verify_report(family, report)


def test_fan_selection_agrees_with_family_discipline():
    # one fan viewed as a one-set family: the fan's top chosen entry (the
    # direct successor, marked) must coincide with the donor top that the
    # family allocator reserves, and the leftover chosen entries coincide
    # with the allocator's compensator pool
    family = ZornFamily(
        members=(frozenset(), frozenset("1"), frozenset("12"), frozenset("13"))
    )
    table = {
        (0, 1): CHOSEN_LO,
        (0, 2): CHOSEN_HI,
        (0, 3): ("8/20", "7/20", "5/20"),
        (1, 2): NOT_CHOSEN,
        (1, 3): NOT_CHOSEN,
    }
    fan = superset_fan(family, frozenset())
    labels = [str(i) for i in fan.entry_indices]
    mirror = build_choice(
        SetFamily(sets=(tuple(labels),)),
        {(0, str(i)): table[(0, i)] for i in fan.entry_indices},
    )
    part = partition_set(mirror, 0)
    assert part.chosen == ("1", "2", "3")

    report = find_maximal(family, table)
    direct = report.successors[0]
    assert direct.provenance is Provenance.DIRECT
    assert direct.successor_index == 2  # top choice probability in the fan

    # the family allocator reserves the same top element of the mirrored set
    two_set = SetFamily(sets=(tuple(labels), ("w",)))
    mirrored_choice = build_choice(
        two_set,
        {
            (0, str(i)): table[(0, i)] for i in fan.entry_indices
        }
        | {(1, "w"): NOT_CHOSEN},
    )
    plan = allocate_compensators(mirrored_choice)
    assert (0, "2") in plan.marks  # reserved top, never a compensator
    assert plan.pairs[0].compensator in {"1", "3"}


#: unchosen triplets whose p_chosen, 9/20 and 47/100, lies above that of every
#: chosen triplet in ``LOW_CHOSEN``
HIGH_UNCHOSEN = [make_triplet("9/20", "1/20", "1/2"), make_triplet("47/100", "3/100", "1/2")]
LOW_CHOSEN = [t for t in split_pool(triplet_pool(20))["chosen"] if t.p_chosen < HIGH_UNCHOSEN[0].p_chosen]


def _maximal_outcome(family, table):
    """find_maximal's report with its successor order, or its exhaustion text and address."""
    try:
        report = find_maximal(family, table)
    except CompensationExhaustedError as exc:
        return str(exc), exc.address
    return report, list(report.successors.items())


def test_unchosen_fan_triplets_do_not_move_find_maximal():
    # only chosen entries are ranked and compared, so swapping every unchosen
    # triplet for another, even one whose p_chosen tops every chosen entry's,
    # leaves the report or the exhaustion diagnostic as it was
    rng = random.Random(2929)
    wide = split_pool(triplet_pool(6))
    low = {**wide, "chosen": LOW_CHOSEN}
    unchosen = wide["not_chosen"] + wide["indeterminate"] + HIGH_UNCHOSEN
    counts = Counter()
    for trial in range(240):
        groups = low if trial % 2 else wide
        if trial % 3:
            family, table = sample_zorn_instance(rng, groups, max_members=rng.choice((6, 10, 16)))
        else:
            family, table = sample_starved_zorn(rng, groups, rng.choice((20, 40)), feasible=trial % 4 == 0)
        expected = _maximal_outcome(family, table)
        counts["exhausted" if isinstance(expected[0], str) else "served"] += 1
        top_chosen = max((t.p_chosen for t in table.values() if t.verdict is Verdict.CHOSEN), default=1)
        for swap in (lambda: rng.choice(unchosen), lambda: HIGH_UNCHOSEN[1]):
            swapped = {pair: t if t.verdict is Verdict.CHOSEN else swap() for pair, t in table.items()}
            assert _maximal_outcome(family, swapped) == expected
            counts["above"] += any(
                t.verdict is not Verdict.CHOSEN and t.p_chosen > top_chosen for t in swapped.values()
            )
    assert counts["exhausted"] >= 50 and counts["served"] >= 80 and counts["above"] >= 80, counts
