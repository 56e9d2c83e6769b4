from __future__ import annotations

import collections
import itertools
import random
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from neutrochoice import (
    DepthExceededError,
    EmptyTreeError,
    InsufficientBranchingError,
    MissingAssignmentError,
    NodeNotInTreeError,
    PathTrace,
    PreconditionViolatedError,
    Stage,
    StepKind,
    StringRelation,
    Tree,
    backward_tracking,
    build_tree,
    build_tree_choice,
    construct_path,
    dead_levels,
    enumerate_paths,
    extension_depth,
    forward_tracking,
    string_relation,
    verify_trace,
)
from oracles import (
    eager_reach,
    oracle_valid_final_paths,
    reference_construct_path,
    reference_verify_trace,
    sample_tree_choice,
    split_pool,
    triplet_pool,
)

CHOSEN_HI = ("6/10", "3/10", "1/10")
CHOSEN_LO = ("5/10", "3/10", "2/10")
NOT_CHOSEN = ("1/10", "7/10", "2/10")

bits = st.text(alphabet="01", max_size=5)


def full_binary_choice(horizon: int, assign):
    nodes = [""]
    for lvl in range(1, horizon + 1):
        nodes.extend("".join(b) for b in itertools.product("01", repeat=lvl))
    tree = Tree(nodes=frozenset(nodes), horizon=horizon)
    return build_tree_choice(tree, {n: assign(n) for n in nodes})


def test_build_tree_keeps_closed_input():
    tree = build_tree(["", "0", "01"], 3)
    assert tree.nodes == frozenset({"", "0", "01"})


def test_build_tree_adds_prefixes():
    tree = build_tree(["01"], 3)
    assert tree.nodes == frozenset({"", "0", "01"})


def test_build_tree_rejects_deep_strings():
    with pytest.raises(DepthExceededError):
        build_tree(["0110"], 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_tree(["2"], 1), ValueError, "not a binary string: '2'"),
        (lambda: string_relation("0", "2"), ValueError, "not a binary string: '2'"),
        (lambda: build_tree([], 0), ValueError, "horizon must be a positive integer, got 0"),
        (lambda: enumerate_paths(full_binary_choice(1, lambda n: CHOSEN_HI), 0), ValueError, "count must be positive, got 0"),
        (
            lambda: construct_path(build_tree_choice(Tree(nodes=frozenset({""}), horizon=0), {"": CHOSEN_HI})),
            PreconditionViolatedError,
            "horizon must be at least 1",
        ),
    ],
    ids=["build-tree-bits", "string-relation-bits", "build-tree-horizon", "enumerate-count", "construct-horizon"],
)
def test_tree_calls_reject_invalid_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _every_prefix(strings) -> frozenset:
    return frozenset(s[:cut] for s in ["", *strings] for cut in range(len(s) + 1))


@given(st.lists(bits, max_size=8))
def test_build_tree_closure_is_prefix_closed(strings):
    tree = build_tree(strings, 6)
    for node in tree.nodes:
        for cut in range(len(node)):
            assert node[:cut] in tree.nodes
    assert tree.nodes == _every_prefix(strings)
    assert build_tree(reversed(strings), 6).nodes == tree.nodes


def test_build_tree_deep_chain_is_fast():
    rng = random.Random(1500)
    leaf = "".join(rng.choice("01") for _ in range(1500))
    closure = sorted(_every_prefix([leaf]), key=lambda n: (len(n), n))
    for strings in ([leaf], closure, closure[::-1]):
        started = time.perf_counter()
        tree = build_tree(strings, 1500)
        elapsed = time.perf_counter() - started
        assert tree.nodes == frozenset(closure)
        assert elapsed < 0.1


def test_string_relation_examples():
    assert string_relation("011", "0110") is StringRelation.IMMEDIATE_SUCCESSOR_OF
    assert string_relation("01", "10") is StringRelation.INCOMPATIBLE
    assert string_relation("01", "01") is StringRelation.EQUAL
    assert string_relation("0", "011") is StringRelation.PREFIX_OF
    assert string_relation("011", "0") is StringRelation.EXTENDS


@given(bits, bits)
def test_string_relation_is_total_and_consistent(sigma, tau):
    relation = string_relation(sigma, tau)
    mirrored = string_relation(tau, sigma)
    if relation is StringRelation.EQUAL:
        assert mirrored is StringRelation.EQUAL
    elif relation is StringRelation.INCOMPATIBLE:
        assert mirrored is StringRelation.INCOMPATIBLE
    elif relation is StringRelation.EXTENDS:
        assert mirrored in (StringRelation.PREFIX_OF, StringRelation.IMMEDIATE_SUCCESSOR_OF)
    else:
        assert mirrored is StringRelation.EXTENDS


def test_backward_tracking_enumerates_prefixes():
    tree = build_tree(["011"], 3)
    assert backward_tracking(tree, "011") == {"", "0", "01"}
    assert backward_tracking(tree, "") == set()
    with pytest.raises(NodeNotInTreeError):
        backward_tracking(tree, "111")


def test_forward_tracking_enumerates_extensions():
    tree = build_tree(["00", "01"], 2)
    assert forward_tracking(tree, "0") == {"00", "01"}
    assert forward_tracking(tree, "00") == set()
    with pytest.raises(NodeNotInTreeError):
        forward_tracking(tree, "1")


@given(st.lists(bits, min_size=1, max_size=8))
def test_tracking_sets_partition_comparable_nodes(strings):
    tree = build_tree(strings, 6)
    for node in tree.nodes:
        behind = backward_tracking(tree, node)
        ahead = forward_tracking(tree, node)
        assert len(behind) == len(node)
        assert node not in behind and node not in ahead
        assert not behind & ahead


def test_dead_levels():
    tc = full_binary_choice(2, lambda n: CHOSEN_HI)
    assert dead_levels(tc) == []

    def one_dead(n):
        return NOT_CHOSEN if len(n) == 2 else CHOSEN_HI

    assert dead_levels(full_binary_choice(2, one_dead)) == [2]

    lone = build_tree_choice(build_tree([], 3), {"": CHOSEN_HI})
    assert dead_levels(lone) == []


def test_extension_depth():
    tree = build_tree(["000", "001", "010", "011", "100", "101", "110", "111"], 3)
    assert extension_depth(tree, "") == 3
    chain = build_tree(["11"], 2)
    assert extension_depth(chain, "1") == 2
    assert extension_depth(chain, "11") == 2
    with pytest.raises(NodeNotInTreeError):
        extension_depth(chain, "0")


@given(st.lists(bits, max_size=8))
def test_the_tree_index_matches_a_brute_force_build(strings):
    tree = build_tree(strings, 6)
    ordered = sorted(tree.nodes, key=lambda n: (len(n), n))
    # dict equality ignores key order, so the items are compared as a list
    assert list(tree.levels.items()) == [(level, tuple(group)) for level, group in itertools.groupby(ordered, key=len)]
    assert tree.reach.keys() == tree.nodes
    for node in tree.nodes:
        deepest = max(len(other) for other in tree.nodes if other.startswith(node))
        assert tree.reach[node] == extension_depth(tree, node) == deepest


@given(st.frozensets(st.text(alphabet="01", max_size=12), max_size=60))
@example(frozenset({"", "1", "0", "11", "01", "10", "00", "011", "1000"}))
@example(frozenset({"", "01", "011"}))
def test_levels_keep_the_length_then_lexicographic_order(nodes):
    # the node sets need not be prefix-closed: reach climbs only through nodes of the set
    tree = Tree(nodes=nodes, horizon=12)
    assert list(itertools.chain.from_iterable(tree.levels.values())) == sorted(nodes, key=lambda n: (len(n), n))
    assert list(tree.levels) == sorted({len(n) for n in nodes})
    assert tree.reach.keys() == nodes
    assert tree.reach == eager_reach(nodes)


def test_the_index_of_a_horizon_1500_chain():
    tree = build_tree(["0" * 1500], 1500)
    assert len(tree.levels) == 1501
    assert tree.reach.keys() == tree.nodes
    assert set(tree.reach.values()) == {1500}


def test_build_tree_choice_requires_totality():
    tree = build_tree(["0"], 1)
    with pytest.raises(MissingAssignmentError):
        build_tree_choice(tree, {"": CHOSEN_HI})


def test_construct_path_prefers_max_probability_then_lex():
    # every node chosen; within each sibling pair the 0-branch carries the
    # greater choice probability, so the path is all zeros
    def assign(n):
        return CHOSEN_HI if not n or n[-1] == "0" else CHOSEN_LO

    trace = construct_path(full_binary_choice(3, assign))
    assert trace.final_path == "000"
    assert [s.kind for s in trace.stages] == [StepKind.CHOSEN_MAX] * 4
    assert [s.node for s in trace.stages] == ["", "0", "00", "000"]


def test_construct_path_forward_compensation():
    tree = build_tree(["000", "010"], 3)
    tc = build_tree_choice(
        tree,
        {
            "": CHOSEN_HI,
            "0": CHOSEN_HI,
            "00": NOT_CHOSEN,
            "01": ("2/10", "7/10", "1/10"),
            "000": CHOSEN_HI,
            "010": CHOSEN_LO,
        },
    )
    assert dead_levels(tc) == [2]
    trace = construct_path(tc)
    assert trace.final_path == "000"
    kinds = [s.kind for s in trace.stages]
    assert kinds == [
        StepKind.CHOSEN_MAX,
        StepKind.CHOSEN_MAX,
        StepKind.COMP_FORWARD,
        StepKind.CHOSEN_MAX,
    ]
    # the pair is ("000", "010"); its lower-probability member is consumed
    assert trace.stages[2].compensator == "010"
    assert verify_trace(tc, trace)


def test_construct_path_backward_compensation():
    tree = build_tree(["00", "1"], 2)
    tc = build_tree_choice(
        tree,
        {
            "": CHOSEN_HI,
            "0": CHOSEN_HI,
            "1": CHOSEN_LO,  # chosen beside the on-path witness, lower probability
            "00": NOT_CHOSEN,
        },
    )
    trace = construct_path(tc)
    assert trace.final_path == "00"
    assert [s.kind for s in trace.stages] == [
        StepKind.CHOSEN_MAX,
        StepKind.CHOSEN_MAX,
        StepKind.COMP_BACKWARD,
    ]
    assert trace.stages[2].compensator == "1"
    assert verify_trace(tc, trace)


def test_construct_path_single_chain():
    tree = build_tree(["11"], 2)
    tc = build_tree_choice(tree, {"": CHOSEN_HI, "1": CHOSEN_HI, "11": CHOSEN_LO})
    trace = construct_path(tc)
    assert trace.final_path == "11"
    assert all(s.kind is StepKind.CHOSEN_MAX for s in trace.stages)
    assert verify_trace(tc, trace)


def test_construct_path_rejects_uncompensatable_dead_step():
    tree = build_tree(["00"], 2)
    tc = build_tree_choice(
        tree, {"": CHOSEN_HI, "0": NOT_CHOSEN, "00": CHOSEN_HI}
    )
    # the level-1 dead step has no sibling to borrow from and only a single
    # chosen extension, so no incompatible pair exists either
    with pytest.raises(PreconditionViolatedError):
        construct_path(tc)


def spurred_spine_choice(k: int):
    """A spine of ``k`` chosen levels, each beside a lower-ranked chosen spur,
    then ``k + 1`` dead levels: ``3k + 2`` nodes, ``k`` backward
    compensators for ``k + 1`` dead steps, so no path exists."""
    spine = ["0" * m for m in range(2 * k + 2)]
    spurs = ["0" * (m - 1) + "1" for m in range(1, k + 1)]
    assignment = {node: CHOSEN_HI if len(node) <= k else NOT_CHOSEN for node in spine}
    assignment.update((spur, CHOSEN_LO) for spur in spurs)
    tree = build_tree(spine + spurs, 2 * k + 1)
    assert len(tree.nodes) == 3 * k + 2
    return build_tree_choice(tree, assignment)


@pytest.mark.parametrize(
    "build, level",
    [
        (lambda: spurred_spine_choice(9), 19),
        (
            lambda: build_tree_choice(
                build_tree(["000"], 3), {"": CHOSEN_HI, "0": NOT_CHOSEN, "00": CHOSEN_HI, "000": CHOSEN_HI}
            ),
            1,
        ),
        # the chosen pair 01, 10 would license a forward move into slot 1, which misses the horizon
        (
            lambda: build_tree_choice(
                build_tree(["010", "011", "10"], 3),
                {
                    **dict.fromkeys(["0", "010", "011"], NOT_CHOSEN),
                    **dict.fromkeys(["", "1", "01"], CHOSEN_HI),
                    "10": ("8/10", "15/100", "5/100"),
                },
            ),
            1,
        ),
    ],
    ids=["spurs-spent-before-the-last-dead-level", "first-dead-level", "forward-slot-misses-the-horizon"],
)
def test_a_failed_path_names_the_deepest_dead_level_reached(build, level):
    with pytest.raises(PreconditionViolatedError) as info:
        construct_path(build())
    assert info.value.address == f"level {level}"
    assert str(info.value).endswith(f"the deepest dead level reached is {level}")


def test_construct_path_fails_fast_on_interchangeable_compensators():
    # every order of spending the k spurs fails the same way; a search that
    # retries each order takes about k! steps (34 s at k = 9)
    tc = spurred_spine_choice(9)
    started = time.perf_counter()
    with pytest.raises(PreconditionViolatedError):
        construct_path(tc)
    assert time.perf_counter() - started < 1


def test_construct_path_rejects_empty_tree():
    tc = build_tree_choice(Tree(nodes=frozenset(), horizon=2), {})
    with pytest.raises(EmptyTreeError):
        construct_path(tc)


@pytest.mark.parametrize(
    "tree",
    [Tree(nodes=frozenset(), horizon=2), Tree(nodes=frozenset({"0"}), horizon=1)],
    ids=["empty", "rootless"],
)
def test_both_path_builders_reject_a_tree_without_a_root(tree):
    tc = build_tree_choice(tree, {node: CHOSEN_HI for node in tree.nodes})
    with pytest.raises(EmptyTreeError, match="the tree has no root"):
        construct_path(tc)
    with pytest.raises(EmptyTreeError, match="the tree has no root"):
        enumerate_paths(tc, 1)


def test_construct_path_rejects_short_tree():
    tree = build_tree(["0"], 3)
    tc = build_tree_choice(tree, {"": CHOSEN_HI, "0": CHOSEN_HI})
    with pytest.raises(PreconditionViolatedError):
        construct_path(tc)


def test_construct_path_backtracks_over_tied_branches():
    # both level-1 branches are chosen with equal probability; the lex-least
    # branch dead-ends with no compensator, so the search must fall back to
    # the other branch rather than fail
    tree = build_tree(["00", "11"], 2)
    tc = build_tree_choice(
        tree,
        {
            "": CHOSEN_HI,
            "0": CHOSEN_LO,
            "1": CHOSEN_LO,
            "00": NOT_CHOSEN,
            "11": CHOSEN_HI,
        },
    )
    trace = construct_path(tc)
    assert trace.final_path == "11"
    assert verify_trace(tc, trace)


def multi_compensation_choice():
    """Two dead levels on one path: level 2 falls to a forward pair (marking
    its low member "010"), and level 4 must then borrow backward from "011"
    because "010" is already consumed."""
    tree = build_tree(["0000", "0100", "011", "1"], 4)
    return build_tree_choice(
        tree,
        {
            "": CHOSEN_HI,
            "0": CHOSEN_HI,
            "1": NOT_CHOSEN,
            "00": ("3/10", "6/10", "1/10"),
            "01": ("2/10", "7/10", "1/10"),
            "000": CHOSEN_HI,
            "010": CHOSEN_LO,
            "011": ("8/20", "7/20", "5/20"),
            "0000": NOT_CHOSEN,
            "0100": ("2/10", "7/10", "1/10"),
        },
    )


def test_construct_path_chains_forward_then_backward_compensation():
    tc = multi_compensation_choice()
    assert dead_levels(tc) == [2, 4]
    trace = construct_path(tc)
    assert [(s.node, s.kind, s.compensator) for s in trace.stages] == [
        ("", StepKind.CHOSEN_MAX, None),
        ("0", StepKind.CHOSEN_MAX, None),
        ("00", StepKind.COMP_FORWARD, "010"),
        ("000", StepKind.CHOSEN_MAX, None),
        ("0000", StepKind.COMP_BACKWARD, "011"),
    ]
    assert verify_trace(tc, trace)
    assert oracle_valid_final_paths(tc) == {"0000"}


def test_verify_trace_rejects_tampering():
    tc = multi_compensation_choice()
    trace = construct_path(tc)

    def rebuilt(stage_index, **changes):
        stages = list(trace.stages)
        stage = stages[stage_index]
        stages[stage_index] = Stage(
            index=stage.index,
            node=changes.get("node", stage.node),
            kind=changes.get("kind", stage.kind),
            compensator=changes.get("compensator", stage.compensator),
        )
        return PathTrace(stages=tuple(stages))

    # relabelled step kind: backward eligibility fails at the pair's level
    assert not verify_trace(tc, rebuilt(2, kind=StepKind.COMP_BACKWARD))
    # the pair's high member cannot be recorded as the consumed compensator
    assert not verify_trace(tc, rebuilt(2, compensator="000"))
    # reusing one compensator for both dead stages violates marking
    assert not verify_trace(tc, rebuilt(4, compensator="010"))
    # a chosen stage must not carry a compensator ("000" is no other stage's
    # compensator, so marking exclusivity cannot reject the trace first)
    assert not verify_trace(tc, rebuilt(1, compensator="000"))
    # a dead stage cannot masquerade as a chosen step
    assert not verify_trace(tc, rebuilt(2, kind=StepKind.CHOSEN_MAX, compensator=None))


def forgery_sample():
    """Constructed traces to forge, with their tree choices (seed 4242)."""
    rng = random.Random(4242)
    groups = split_pool(triplet_pool(6))
    for _ in range(120):
        tc = sample_tree_choice(rng, groups, max_horizon=4)
        try:
            yield tc, construct_path(tc)
        except PreconditionViolatedError:
            continue


def test_verify_trace_matches_the_reference_on_forged_stages():
    """Every single-stage forgery of a constructed trace: each step kind with
    no compensator or any node as the compensator."""
    verdicts: collections.Counter = collections.Counter()
    for tc, trace in forgery_sample():
        for stage, kind, comp in itertools.product(
            trace.stages, StepKind, [None, *sorted(tc.tree.nodes)]
        ):
            forged_stage = Stage(index=stage.index, node=stage.node, kind=kind, compensator=comp)
            if forged_stage == stage:
                continue
            stages = list(trace.stages)
            stages[stage.index] = forged_stage
            forged = PathTrace(stages=tuple(stages))
            valid = verify_trace(tc, forged)
            assert valid == reference_verify_trace(tc, forged), (tc, forged)
            verdicts[kind, valid] += 1
    # the sweep must accept and reject forgeries of both compensated kinds
    for kind in (StepKind.COMP_FORWARD, StepKind.COMP_BACKWARD):
        assert verdicts[kind, True] and verdicts[kind, False], verdicts


def structural_forgeries(tc, trace):
    """``(name, forged trace)`` for each change to a trace's shape: its last
    stage dropped, a stage appended, one stage renumbered, one stage's kind
    given as its string value, or one stage's node swapped for another
    tree node."""
    stages = trace.stages
    yield "dropped", stages[:-1]
    last = stages[-1]
    yield "appended", (*stages, replace(last, index=last.index + 1, node=last.node + "0", compensator=None))
    for s, stage in enumerate(stages):
        forged = list(stages)
        forged[s] = replace(stage, index=s + 1)
        yield "renumbered", tuple(forged)
        forged[s] = replace(stage, kind=stage.kind.value)
        yield "kind value", tuple(forged)
        for node in sorted(tc.tree.nodes - {stage.node}):
            forged[s] = replace(stage, node=node)
            yield "node swapped", tuple(forged)


def test_verify_trace_matches_the_reference_on_forged_structure():
    """Stage counts, indices, reach, lengths, prefix chains and kinds that
    are no ``StepKind``: the checks the stage forgeries above leave alone."""
    rejected: collections.Counter = collections.Counter()
    for tc, trace in forgery_sample():
        for name, stages in structural_forgeries(tc, trace):
            forged = PathTrace(stages=stages)
            valid = verify_trace(tc, forged)
            assert valid == reference_verify_trace(tc, forged), (tc, forged)
            rejected[name] += not valid
    assert all(rejected[name] for name in ("dropped", "appended", "renumbered", "kind value", "node swapped")), rejected


def test_construct_path_agrees_with_oracle_smoke():
    rng = random.Random(2718)
    groups = split_pool(triplet_pool(6))
    for _ in range(80):
        tc = sample_tree_choice(rng, groups, max_horizon=3)
        valid = oracle_valid_final_paths(tc)
        try:
            trace = construct_path(tc)
        except PreconditionViolatedError:
            assert valid == set()
        else:
            assert trace.final_path in valid
            assert verify_trace(tc, trace)
        try:
            listed = enumerate_paths(tc, 1)
        except InsufficientBranchingError:
            continue
        assert listed[0].final_path in valid
        assert verify_trace(tc, listed[0])


@pytest.mark.parametrize("max_horizon", [4, 5])
def test_construct_path_matches_the_eager_reference(max_horizon):
    rng = random.Random(6060 + max_horizon)
    groups = split_pool(triplet_pool(6))
    outcomes = {"traced": 0, "dead_level": 0, "precondition": 0}
    for _ in range(300):
        tc = sample_tree_choice(rng, groups, max_horizon=max_horizon)
        try:
            expected = reference_construct_path(tc)
        except PreconditionViolatedError:
            with pytest.raises(PreconditionViolatedError):
                construct_path(tc)
            outcomes["precondition"] += 1
            continue
        trace = construct_path(tc)
        assert trace == expected
        assert verify_trace(tc, trace)
        outcomes["traced"] += 1
        outcomes["dead_level"] += bool(dead_levels(tc))
    assert min(outcomes.values()) > 0, outcomes


def test_enumerate_paths_full_tree():
    tc = full_binary_choice(3, lambda n: CHOSEN_HI)
    leaves = ["".join(b) for b in itertools.product("01", repeat=3)]
    traces = enumerate_paths(tc, 4)
    finals = [t.final_path for t in traces]
    assert len(set(finals)) == 4
    assert set(finals) <= set(leaves)
    for first, second in itertools.combinations(finals, 2):
        assert string_relation(first, second) is StringRelation.INCOMPATIBLE
    for trace in traces:
        assert verify_trace(tc, trace)


def test_enumerate_paths_single_path_degenerates():
    tree = build_tree(["11"], 2)
    tc = build_tree_choice(tree, {"": CHOSEN_HI, "1": CHOSEN_HI, "11": CHOSEN_LO})
    traces = enumerate_paths(tc, 1)
    assert traces[0].final_path == construct_path(tc).final_path


def test_enumerate_paths_rejects_excess_count():
    tree = build_tree(["11"], 2)
    tc = build_tree_choice(tree, {"": CHOSEN_HI, "1": CHOSEN_HI, "11": CHOSEN_LO})
    with pytest.raises(InsufficientBranchingError):
        enumerate_paths(tc, 2)


def test_enumerate_paths_rejects_an_unchosen_root():
    tree = build_tree(["00", "01", "10", "11"], 2)
    tc = build_tree_choice(tree, {n: NOT_CHOSEN if n == "" else CHOSEN_HI for n in tree.nodes})
    with pytest.raises(InsufficientBranchingError):
        enumerate_paths(tc, 1)
