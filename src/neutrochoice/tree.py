"""Binary prefix trees and the staged horizon-path construction.

Nodes are binary strings; the empty string is the root and a node's level
is its length.  "Infinite" is modelled by a depth horizon: a node has a
full extension when some descendant reaches the horizon, and a path is a
root-to-horizon chain of nodes.

The path construction advances one level per stage.  A stage normally
enters the chosen candidate with the greatest choice probability; a stage
whose candidates are all unchosen (a dead step) may still advance by
consuming a compensator, either recorded behind the path (a lower-probability
chosen node beside a chosen ancestor) or ahead of it (the lower-probability
member of an incompatible chosen pair).  Compensators are marked and never
reused.  When the preferred move dead-ends deeper in the tree the
construction backtracks and tries the next move in preference order, so it
succeeds exactly when some compensated path to the horizon exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DepthExceededError,
    EmptyTreeError,
    InsufficientBranchingError,
    NodeNotInTreeError,
    PreconditionViolatedError,
)
from .triplet import Verdict, triplet_table
from .triplet import make_triplet  # noqa: F401  bench/spans.py wraps tree.make_triplet by name

ROOT = ""


def _check_bits(value: str) -> str:
    if not isinstance(value, str) or value.strip("01"):
        raise ValueError(f"not a binary string: {value!r}")
    return value


class StringRelation(Enum):
    EQUAL = "equal"
    PREFIX_OF = "prefix_of"
    IMMEDIATE_SUCCESSOR_OF = "immediate_successor_of"
    EXTENDS = "extends"
    INCOMPATIBLE = "incompatible"


class StepKind(Enum):
    CHOSEN_MAX = "chosen_max"
    COMP_BACKWARD = "comp_backward"
    COMP_FORWARD = "comp_forward"


@dataclass(frozen=True)
class Tree:
    """Prefix-closed set of binary strings bounded by a depth horizon."""

    nodes: frozenset[str]
    horizon: int

    # The index below is built on first read and is not a field, so ``==``,
    # hash and repr ignore it.

    @cached_property
    def levels(self) -> dict[int, tuple[str, ...]]:
        """``levels[m]``: the level-``m`` nodes in lexicographic order, levels
        ascending; the one canonical order of the tree's nodes."""
        grouped: dict[int, list[str]] = {}
        for node in self.nodes:
            grouped.setdefault(len(node), []).append(node)
        return {level: tuple(sorted(grouped[level])) for level in sorted(grouped)}

    @cached_property
    def reach(self) -> dict[str, int]:
        """``reach[node]``: the greatest level reachable from ``node`` through
        children in the tree.  The walk up from each node, deepest first,
        stops at a prefix already filled (by a deeper node, as are all its
        prefixes) or absent from ``nodes``, so every node is written once."""
        reach: dict[str, int] = {}
        nodes = self.nodes
        for level, group in reversed(self.levels.items()):
            for node in group:
                while node not in reach and node in nodes:
                    reach[node] = level
                    node = node[:-1]
        return reach

    def candidates(self, node: str | None) -> list[str]:
        """Full-extension successors of ``node``; of ``None``, the root."""
        if node is None:
            return [ROOT] if self.reach.get(ROOT) == self.horizon else []
        # reach holds tree nodes only, so an absent child reads as None
        return [
            child for child in (node + "0", node + "1") if self.reach.get(child) == self.horizon
        ]


@dataclass(frozen=True)
class TreeChoice:
    """A tree together with a total triplet assignment over its nodes."""

    tree: Tree
    assignment: dict

    def p_chosen(self, node: str):
        return self.assignment[node].p_chosen

    def is_chosen(self, node: str) -> bool:
        return self.assignment[node].verdict is Verdict.CHOSEN


@dataclass(frozen=True)
class Stage:
    index: int
    node: str
    kind: StepKind
    compensator: str | None


@dataclass(frozen=True)
class PathTrace:
    """Stage-by-stage record of one horizon path."""

    stages: tuple[Stage, ...]

    @property
    def final_path(self) -> str:
        return self.stages[-1].node


def build_tree(strings: Iterable[str], horizon: int) -> Tree:
    """Close the given strings under prefixes and bound them by the horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    nodes = {ROOT}
    for raw in strings:
        s = _check_bits(raw)
        if len(s) > horizon:
            raise DepthExceededError(
                f"string {s!r} is longer than the horizon {horizon}", address=s
            )
        # longest prefix first: once one is present, so are all shorter ones,
        # and ROOT is seeded, so the walk stops
        while s not in nodes:
            nodes.add(s)
            s = s[:-1]
    return Tree(nodes=frozenset(nodes), horizon=horizon)


def build_tree_choice(tree: Tree, triplets) -> TreeChoice:
    """Attach a validated, total triplet assignment to a tree."""
    keys = [node for nodes in tree.levels.values() for node in nodes]
    assignment = triplet_table(keys, triplets, lambda node: (f"node {node!r}", node))
    return TreeChoice(tree=tree, assignment=assignment)


def string_relation(sigma: str, tau: str) -> StringRelation:
    """Relate two binary strings; exactly one relation applies.

    ``IMMEDIATE_SUCCESSOR_OF`` means ``tau`` extends ``sigma`` by one bit and
    subsumes the prefix report for that case.
    """
    _check_bits(sigma)
    _check_bits(tau)
    if sigma == tau:
        return StringRelation.EQUAL
    if tau.startswith(sigma):
        if len(tau) == len(sigma) + 1:
            return StringRelation.IMMEDIATE_SUCCESSOR_OF
        return StringRelation.PREFIX_OF
    if sigma.startswith(tau):
        return StringRelation.EXTENDS
    return StringRelation.INCOMPATIBLE


def _require_node(tree: Tree, node: str) -> None:
    if node not in tree.nodes:
        raise NodeNotInTreeError(f"node {node!r} is not in the tree", address=node)


def backward_tracking(tree: Tree, node: str) -> set[str]:
    """All strict prefixes of ``node`` in the tree; one per lower level."""
    _require_node(tree, node)
    return {node[:cut] for cut in range(len(node))}


def forward_tracking(tree: Tree, node: str) -> set[str]:
    """All strict extensions of ``node`` in the tree."""
    _require_node(tree, node)
    return {other for other in tree.nodes if other != node and other.startswith(node)}


def dead_levels(tc: TreeChoice) -> list[int]:
    """Levels that contain nodes but no chosen node, ascending."""
    return [lvl for lvl, nodes in tc.tree.levels.items() if not any(map(tc.is_chosen, nodes))]


def extension_depth(tree: Tree, node: str) -> int:
    """Greatest level reachable from ``node`` (including the node itself)."""
    _require_node(tree, node)
    return tree.reach[node]


class _PathSearch:
    """The depth-first stage construction over a tree's index, with
    compensator marking; it holds search state only."""

    def __init__(self, tc: TreeChoice):
        self.tc = tc
        self.marked: set[str] = set()
        self.stages: list[Stage] = []
        # (current, marks) pairs whose extend failed; see extend
        self.failed: set[tuple] = set()
        # deepest level entered whose every candidate is unchosen, or -1
        self.deepest_dead = -1

    def backward_compensators(self, current: str | None) -> Iterator[str]:
        """Unmarked chosen nodes beside a chosen node already on the path.

        A candidate at level ``m`` qualifies when the path's own level-``m``
        node is chosen with a strictly greater choice probability; ties
        disqualify.  Yielded by level, then probability (descending), then
        lexicographically.
        """
        if current is None:
            return
        pc, chosen, levels = self.tc.p_chosen, self.tc.is_chosen, self.tc.tree.levels
        for m in range(len(current) + 1):
            witness = current[:m]
            if not chosen(witness):
                continue
            bar = pc(witness)
            beside = [
                node
                for node in levels.get(m, ())
                if node != witness
                and node not in self.marked
                and chosen(node)
                and pc(node) < bar
            ]
            beside.sort(key=pc, reverse=True)
            yield from beside

    def forward_moves(self, current: str | None, dead_level: int) -> Iterator[tuple]:
        """Moves licensed by an incompatible chosen pair past the dead level.

        The pair's lower-probability member is consumed as the compensator
        and the stage advances toward the higher one.  Pairs are scanned by
        level, then lexicographically; equal-length distinct strings are
        always incompatible.  Every scanned level lies past the dead level,
        so no scanned node is ``current`` itself; at the root the dead level
        is 0 and the slot ``high[:0]`` is ``ROOT``.  A level past the horizon
        is not scanned: every slot above it reaches past the horizon.
        """
        seen: set[tuple] = set()
        pc, chosen, tree = self.tc.p_chosen, self.tc.is_chosen, self.tc.tree
        base = current or ROOT
        for m in range(dead_level + 1, tree.horizon + 1):
            extensions = [node for node in tree.levels.get(m, ()) if node.startswith(base) and chosen(node)]
            for first, second in itertools.combinations(extensions, 2):
                # first < second, so a tie leaves first as the lower member
                low, high = (second, first) if pc(second) < pc(first) else (first, second)
                if low in self.marked:
                    continue
                slot = high[:dead_level]
                if tree.reach.get(slot) != tree.horizon:
                    continue
                key = (slot, low)
                if key in seen:
                    continue
                seen.add(key)
                yield (slot, StepKind.COMP_FORWARD, low)

    def moves(self, current: str | None) -> Iterator[tuple]:
        """The next stage's moves in preference order, generated on demand.

        ``extend`` restores ``marked`` before it pulls the next move, so a
        move generated late sees the same marks as one generated first.
        """
        # empty only at a root that misses the horizon, where every branch below yields nothing
        slots = sorted(self.tc.tree.candidates(current), key=self.tc.p_chosen, reverse=True)
        chosen_slots = [s for s in slots if self.tc.is_chosen(s)]
        if chosen_slots:
            for slot in chosen_slots:
                yield (slot, StepKind.CHOSEN_MAX, None)
            return
        dead_level = 0 if current is None else len(current) + 1
        self.deepest_dead = max(self.deepest_dead, dead_level)
        for compensator in self.backward_compensators(current):
            for slot in slots:
                yield (slot, StepKind.COMP_BACKWARD, compensator)
        yield from self.forward_moves(current, dead_level)

    def extend(self, current: str | None) -> bool:
        """Push stages from ``current`` to the horizon, depth first.

        The outcome depends only on ``current`` and ``marked``, which a
        failed call leaves as it found them, so a failed pair is recorded
        and fails at once when it recurs: without this, interchangeable
        compensators are retried in every order.  The key is built only
        once some call has failed.
        """
        if current is not None and len(current) == self.tc.tree.horizon:
            return True
        if self.failed and (current, frozenset(self.marked)) in self.failed:
            return False
        for slot, kind, compensator in self.moves(current):
            self.stages.append(
                Stage(index=len(self.stages), node=slot, kind=kind, compensator=compensator)
            )
            if compensator is not None:
                self.marked.add(compensator)
            if self.extend(slot):
                return True
            if compensator is not None:
                self.marked.discard(compensator)
            self.stages.pop()
        self.failed.add((current, frozenset(self.marked)))
        return False


def construct_path(tc: TreeChoice) -> PathTrace:
    """Build a root-to-horizon path trace, compensating every dead step.

    Raises ``PreconditionViolatedError`` when no compensated path reaches
    the horizon (some dead step has neither a backward nor a forward
    compensator on every alternative); its address is ``"level N"``, the
    deepest dead level the search entered.
    """
    tree = tc.tree
    if ROOT not in tree.nodes:
        raise EmptyTreeError("the tree has no root")
    if tree.horizon < 1:
        raise PreconditionViolatedError("horizon must be at least 1")
    if tree.reach[ROOT] < tree.horizon:
        raise PreconditionViolatedError(f"no node reaches the horizon {tree.horizon}", address="horizon")
    search = _PathSearch(tc)
    if not search.extend(None):
        # every failed branch ends at a dead step, so some dead level was entered
        level = search.deepest_dead
        raise PreconditionViolatedError(
            f"a dead step has no backward or forward compensator on any branch; "
            f"the deepest dead level reached is {level}",
            address=f"level {level}",
        )
    return PathTrace(stages=tuple(search.stages))


def enumerate_paths(tc: TreeChoice, count: int) -> list[PathTrace]:
    """Enumerate ``count`` horizon paths through chosen nodes only.

    Expands every chosen full-extension successor breadth-first, keeping
    each level in lexicographic order, so the returned paths are the
    ``count`` lexicographically least chosen paths.  Distinct horizon paths
    are pairwise incompatible past their common prefix.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    tree = tc.tree
    if ROOT not in tree.nodes:
        raise EmptyTreeError("the tree has no root")
    frontier = [node for node in tree.candidates(None) if tc.is_chosen(node)]
    level = 0
    # children of a sorted level, taken in order, are again sorted
    while frontier and level < tree.horizon:
        frontier = [child for node in frontier for child in tree.candidates(node) if tc.is_chosen(child)]
        level += 1
    if len(frontier) < count:
        raise InsufficientBranchingError(
            f"only {len(frontier)} full-depth chosen paths exist, {count} requested", address="count"
        )
    traces = []
    for leaf in frontier[:count]:
        stages = tuple(
            Stage(index=s, node=leaf[:s], kind=StepKind.CHOSEN_MAX, compensator=None)
            for s in range(tree.horizon + 1)
        )
        traces.append(PathTrace(stages=stages))
    return traces


def verify_trace(tc: TreeChoice, trace: PathTrace) -> bool:
    """Re-validate a path trace against the assignment alone.

    Checks the stage chain, horizon arrival, compensator marking
    exclusivity, and per-kind eligibility of every compensator.  A
    chosen-max stage must enter a chosen node, so every dead level of the
    tree is entered through a compensated stage.
    """
    tree = tc.tree
    horizon = tree.horizon
    stages = trace.stages
    if len(stages) != horizon + 1:
        return False
    for s, stage in enumerate(stages):
        if stage.index != s or tree.reach.get(stage.node) != horizon or len(stage.node) != s:
            return False
        if s > 0 and stage.node[:-1] != stages[s - 1].node:
            return False

    compensators = [st.compensator for st in stages if st.compensator is not None]
    if len(compensators) != len(set(compensators)):
        return False

    chosen = tc.is_chosen
    pc = tc.p_chosen
    for s, stage in enumerate(stages):
        parent = stages[s - 1].node if s > 0 else None
        if stage.kind is StepKind.CHOSEN_MAX:
            if stage.compensator is not None or not chosen(stage.node):
                return False
            continue
        # Compensated stages require a genuinely dead step.
        if any(chosen(n) for n in tree.candidates(parent)) or stage.compensator is None:
            return False
        comp = stage.compensator
        if comp not in tree.nodes or not chosen(comp):
            return False
        if stage.kind is StepKind.COMP_BACKWARD:
            # len(comp) < s is implied: from length s on, the witness is stage.node itself, unchosen here
            witness = stage.node[:len(comp)]
            if not chosen(witness) or not pc(comp) < pc(witness):
                return False
        elif stage.kind is StepKind.COMP_FORWARD:
            # len(comp) > s is implied: at levels <= s only stage.node, unchosen here, lies under stage.node
            if not comp.startswith(parent or ROOT):
                return False
            # a partner under this stage's node outranks comp; stage.node is
            # parent plus one bit, so the partner also extends parent
            rank = (pc(comp), comp)
            if not any(
                other.startswith(stage.node) and chosen(other) and (pc(other), other) > rank
                for other in tree.levels[len(comp)]
            ):
                return False
        else:
            return False
    return True
