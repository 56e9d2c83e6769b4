"""Brute-force oracles and samplers shared by the test suite.

Everything here recomputes results from first principles (enumeration,
matching, strict-argmax by hand) so the library's constructive code paths
are checked against genuinely independent machinery.  The reference
engines keep the plain loop versions of the two compensation engines,
which the one-pass engines must match exactly.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from neutrochoice import (
    CompensationExhaustedError,
    CompensationPair,
    CompensationPlan,
    MaximalReport,
    NeutroChoice,
    OutOfRangeError,
    PathTrace,
    PreconditionViolatedError,
    Provenance,
    SetFamily,
    Stage,
    StepKind,
    SuccessorEntry,
    SumNotOneError,
    TieViolationError,
    Tree,
    TreeChoice,
    Triplet,
    Verdict,
    ZornFamily,
    build_choice,
    build_tree_choice,
    check_compensation,
    classify,
    make_triplet,
    partition_set,
    random_triplet,
)

# ---------------------------------------------------------------------------
# triplet pools


def triplet_pool(max_denominator: int) -> list[Triplet]:
    """Every valid triplet whose components have denominators <= the bound."""
    values = sorted(
        {
            Fraction(num, den)
            for den in range(1, max_denominator + 1)
            for num in range(den + 1)
        }
    )
    pool = []
    for a, b in itertools.product(values, repeat=2):
        c = 1 - a - b
        if c < 0 or c > 1 or c.denominator > max_denominator:
            continue
        if a == b or b == c or a == c:
            continue
        pool.append(make_triplet(a, b, c))
    return pool


# Raw triplets whose p_chosen values float() cannot tell apart: 1/2 against
# 1/2 + 1/(2*10**20) (chosen), 1/10 against 1/10 + 1/10**20 (not chosen) and
# 1/5 against 1/5 + 1/10**20 (indeterminate); the first two values are each
# also spelled a second way.
_E = 10**20
HALF = ("1/2", "3/10", "1/5")
HALF_RESPELT = ("2/4", "6/20", "2/10")
HALF_UP = (f"{_E + 1}/{2 * _E}", "3/10", f"{4 * _E // 10 - 1}/{2 * _E}")
HALF_UP_RESPELT = (f"{2 * _E + 2}/{4 * _E}", "30/100", f"{8 * _E // 10 - 2}/{4 * _E}")
TENTH = ("1/10", "7/10", "1/5")
TENTH_RESPELT = ("10/100", "14/20", "2/10")
TENTH_UP = (f"{_E // 10 + 1}/{_E}", "7/10", f"{_E // 5 - 1}/{_E}")
TENTH_UP_RESPELT = (f"{2 * _E // 10 + 2}/{2 * _E}", "70/100", f"{2 * _E // 5 - 2}/{2 * _E}")
FIFTH = ("1/5", "3/10", "1/2")
FIFTH_UP = (f"{_E // 5 + 1}/{_E}", "3/10", f"{_E // 2 - 1}/{_E}")


def near_tie_pool() -> list[Triplet]:
    """The raw triplets above, one object each: equal values spelled two
    ways are separate objects, and unequal ones differ below float
    resolution."""
    raw = (HALF, HALF_RESPELT, HALF_UP, HALF_UP_RESPELT, TENTH, TENTH_RESPELT)
    raw += (TENTH_UP, TENTH_UP_RESPELT, FIFTH, FIFTH_UP)
    return [make_triplet(*values) for values in raw]


def reference_as_rational(value) -> Fraction:
    """``as_rational`` as it was before its ASCII fast path: every string
    goes through ``Fraction(str)`` after the exponent check."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use Fraction, int, or 'num/den' strings")
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError("exponent notation is not accepted; use a 'num/den' string")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def reference_triplet_error(i: Fraction, j: Fraction, k: Fraction):
    """The error ``Triplet(i, j, k)`` must raise, found by Fraction arithmetic.

    Returns ``(type, message, address)``, or ``None`` when the components
    form a valid triplet.  The checks run in the library's order: range,
    then sum, then ties.
    """
    for name, c in (("p_chosen", i), ("p_not_chosen", j), ("p_indeterminate", k)):
        if c < 0 or c > 1:
            return OutOfRangeError, f"{name}={c.numerator}/{c.denominator} lies outside [0, 1]", name
    total = i + j + k
    if total != 1:
        return SumNotOneError, f"components sum to {total.numerator}/{total.denominator}, not 1", None
    if i == j or j == k or i == k:
        shown = ", ".join(f"{c.numerator}/{c.denominator}" for c in (i, j, k))
        return TieViolationError, f"components must be pairwise distinct, got ({shown})", None
    return None


def _argmax_verdict(triplet: Triplet) -> str:
    """Independent verdict: sort the labelled components and read the top."""
    labelled = [
        (triplet.p_chosen, "chosen"),
        (triplet.p_not_chosen, "not_chosen"),
        (triplet.p_indeterminate, "indeterminate"),
    ]
    labelled.sort(key=lambda pair: pair[0])
    return labelled[-1][1]


def split_pool(pool: list[Triplet]) -> dict[str, list[Triplet]]:
    groups: dict[str, list[Triplet]] = {"chosen": [], "not_chosen": [], "indeterminate": []}
    for triplet in pool:
        groups[_argmax_verdict(triplet)].append(triplet)
    return groups


# ---------------------------------------------------------------------------
# family: compensation matcher


def compensation_holds_matching(choice: NeutroChoice) -> bool:
    """Bipartite matching between empty-choice sets and donor slots.

    Slots are the non-top chosen elements of sets with at least two chosen
    elements; an empty-choice set may take any slot from a different set.
    """
    family = choice.family
    chosen_elements: dict[int, list] = {}
    for i, members in enumerate(family.sets):
        chosen_elements[i] = [
            e for e in members if _argmax_verdict(choice.triplet(i, e)) == "chosen"
        ]
    empty = [i for i, found in chosen_elements.items() if not found]
    slots: list[tuple[int, object]] = []
    for j, found in chosen_elements.items():
        if len(found) < 2:
            continue
        pos = {e: p for p, e in enumerate(family.sets[j])}
        top = max(found, key=lambda e: (choice.triplet(j, e).p_chosen, -pos[e]))
        slots.extend((j, e) for e in found if e != top)

    def match(k: int, used: frozenset) -> bool:
        if k == len(empty):
            return True
        recipient = empty[k]
        for index, (donor, _element) in enumerate(slots):
            if index in used or donor == recipient:
                continue
            if match(k + 1, used | {index}):
                return True
        return False

    return match(0, frozenset())


# ---------------------------------------------------------------------------
# tree: exhaustive compensated-path oracle


def _sdr_exists(candidate_sets: dict[int, set]) -> bool:
    keys = sorted(candidate_sets)

    def assign(position: int, used: frozenset) -> bool:
        if position == len(keys):
            return True
        return any(
            assign(position + 1, used | {c})
            for c in candidate_sets[keys[position]]
            if c not in used
        )

    return assign(0, frozenset())


def oracle_valid_final_paths(tc: TreeChoice) -> set[str]:
    """Final strings of every valid compensated root-to-horizon path.

    A path is valid when it follows a chosen full-extension candidate at
    every stage that has one, and its dead stages admit an injective
    assignment of eligible compensators (beside-the-path lower-probability
    chosen nodes, or minimum members of incompatible chosen pairs ahead of
    the stage that point the path the way it actually went).
    """
    nodes = tc.tree.nodes
    horizon = tc.tree.horizon
    if "" not in nodes:
        return set()
    full = sorted(n for n in nodes if len(n) == horizon)
    reaches = {n for n in nodes if any(f.startswith(n) for f in full)}
    chosen = {n for n in nodes if _argmax_verdict(tc.assignment[n]) == "chosen"}
    pc = {n: tc.assignment[n].p_chosen for n in nodes}
    by_level: dict[int, list[str]] = {}
    for n in sorted(nodes):
        by_level.setdefault(len(n), []).append(n)
    max_level = max(by_level) if by_level else 0

    valid: set[str] = set()
    for leaf in full:
        path = [leaf[:s] for s in range(horizon + 1)]
        conforming = True
        dead_candidates: dict[int, set] = {}
        for l in range(horizon + 1):
            parent = path[l - 1] if l > 0 else None
            if parent is None:
                viable = [""] if "" in reaches else []
            else:
                viable = [
                    parent + bit
                    for bit in "01"
                    if parent + bit in nodes and parent + bit in reaches
                ]
            chosen_viable = [c for c in viable if c in chosen]
            if chosen_viable:
                if path[l] not in chosen_viable:
                    conforming = False
                    break
                continue
            if path[l] not in viable:
                conforming = False
                break
            eligible: set[str] = set()
            for m in range(l):
                witness = path[m]
                if witness not in chosen:
                    continue
                eligible.update(
                    n
                    for n in by_level.get(m, ())
                    if n != witness and n in chosen and pc[n] < pc[witness]
                )
            base = parent if parent is not None else ""
            for m in range(l + 1, max_level + 1):
                extensions = [
                    n
                    for n in by_level.get(m, ())
                    if n != base and n.startswith(base) and n in chosen
                ]
                for a, b in itertools.combinations(extensions, 2):
                    low, high = sorted((a, b), key=lambda n: (pc[n], n))
                    if parent is not None and high[:l] != path[l]:
                        continue
                    eligible.add(low)
            dead_candidates[l] = eligible
        if not conforming:
            continue
        if _sdr_exists(dead_candidates):
            valid.add(leaf)
    return valid


# ---------------------------------------------------------------------------
# zorn: brute-force maximality and compensation feasibility


def reference_fans(family: ZornFamily) -> list[list[int]]:
    """Every member's strict supersets' indices, ascending, by a plain
    quadratic scan that shares no code with ``ZornFamily.fans``."""
    members = family.members
    return [[j for j, other in enumerate(members) if base < other] for base in members]


def brute_maximal_indices(family: ZornFamily) -> tuple[int, ...]:
    return tuple(i for i, fan in enumerate(reference_fans(family)) if not fan)


def zorn_compensation_feasible(family: ZornFamily, table: dict) -> bool:
    """Matching feasibility for members whose fans have no chosen entry.

    Mirrors the marking discipline from first principles: every fan's top
    chosen entry is reserved, remaining chosen entries form the donor pool,
    and a pending member may take any pool entry strictly containing it.
    """
    n = len(family)
    fans = reference_fans(family)
    marked: set[int] = set()
    pending: list[int] = []
    for i in range(n):
        fan = fans[i]
        if not fan:
            continue
        found = [q for q in fan if _argmax_verdict(table[(i, q)]) == "chosen"]
        if found:
            marked.add(max(found, key=lambda q: (table[(i, q)].p_chosen, -q)))
        else:
            pending.append(i)
    pool: set[int] = set()
    for donor in range(n):
        for q in fans[donor]:
            if q not in marked and _argmax_verdict(table[(donor, q)]) == "chosen":
                pool.add(q)
    candidates = {a: pool.intersection(fans[a]) for a in pending}
    return _sdr_exists(candidates)


# ---------------------------------------------------------------------------
# reference engines: the original one-recipient-at-a-time loops
#
# Both compensation engines were first written as direct loops: the family
# allocator rescans the whole pool for every recipient, and the Zorn search
# tries every candidate of every pending member against a fresh matching of
# the members after it, deferring members it cannot serve to a later pass.
# They are slow (O(R*P) and worse than cubic) but plainly follow the
# documented discipline, so the one-pass engines must reproduce them exactly.
# The path search was first written with every stage's moves built as a full
# list before the first is tried; the lazy search must yield the same trace.


def _top(choice: NeutroChoice, index: int, elements):
    pos = {e: p for p, e in enumerate(choice.family.sets[index])}
    return max(elements, key=lambda e: (choice.triplet(index, e).p_chosen, -pos[e]))


def reference_allocate(choice: NeutroChoice) -> CompensationPlan:
    """The allocator as a per-recipient scan of the donor pool."""
    report = check_compensation(choice)
    if not report.holds:
        raise PreconditionViolatedError(
            f"uncompensatable sets: {list(report.uncompensatable)}"
        )
    family = choice.family
    parts = [partition_set(choice, i) for i in range(len(family))]
    marks = []
    pool = []
    for donor, part in enumerate(parts):
        if len(part.chosen) < 2:
            continue
        top = _top(choice, donor, part.chosen)
        marks.append((donor, top))
        pos = {e: p for p, e in enumerate(family.sets[donor])}
        for element in part.chosen:
            if element != top:
                pool.append(
                    (choice.triplet(donor, element).p_chosen, donor, pos[element], element)
                )
    pairs = []
    for recipient, part in enumerate(parts):
        if part.chosen:
            continue
        compensated = _top(choice, recipient, family.sets[recipient])
        best = max(pool, key=lambda entry: (entry[0], -entry[1], -entry[2]))
        pool.remove(best)
        _, donor, _, compensator = best
        marks.append((donor, compensator))
        pairs.append(
            CompensationPair(
                recipient_index=recipient,
                compensated=compensated,
                donor_index=donor,
                compensator=compensator,
            )
        )
    return CompensationPlan(pairs=tuple(pairs), marks=tuple(marks))


def reference_verify_plan(choice: NeutroChoice, plan: CompensationPlan) -> bool:
    """``verify_plan`` with each rule tested on its own, from the triplets'
    components: verdicts by hand, tops by a first-wins scan in set order,
    and the marks compared as multisets."""
    sets = choice.family.sets
    assignment = choice.assignment
    chosen = [[e for e in members if _argmax_verdict(assignment[i, e]) == "chosen"] for i, members in enumerate(sets)]
    # every set without a chosen element is served exactly once, and no other set is
    if sorted(pair.recipient_index for pair in plan.pairs) != [i for i, c in enumerate(chosen) if not c]:
        return False
    tops = {}
    for i, elements in enumerate(chosen):
        if len(elements) >= 2:
            top = elements[0]
            for element in elements[1:]:
                if assignment[i, element].p_chosen > assignment[i, top].p_chosen:
                    top = element
            tops[i] = top
    served = []
    for pair in plan.pairs:
        donor = pair.donor_index
        if donor == pair.recipient_index:
            return False
        if not 0 <= donor < len(sets):
            return False
        if len(chosen[donor]) < 2:
            return False
        if pair.compensator not in chosen[donor]:
            return False
        if pair.compensator == tops[donor]:
            return False
        if pair.compensated not in sets[pair.recipient_index]:
            return False
        served.append((donor, pair.compensator))
    if len(set(served)) != len(served):
        return False
    return Counter(plan.marks) == Counter(tops.items()) + Counter(served)


def _matching_covers(pending: list[int], candidates: dict[int, set[int]]) -> bool:
    """True when every pending member can take a distinct candidate."""
    matched: dict[int, int] = {}

    def assign(member: int, banned: set[int]) -> bool:
        for candidate in sorted(candidates.get(member, ())):
            if candidate in banned:
                continue
            banned.add(candidate)
            holder = matched.get(candidate)
            if holder is None or assign(holder, banned):
                matched[candidate] = member
                return True
        return False

    return all(assign(member, set()) for member in pending)


def reference_find_maximal(family: ZornFamily, table: dict) -> MaximalReport:
    """``find_maximal`` as a try-every-candidate search with deferred passes.

    ``table`` must be total; raw triplets are converted with ``make_triplet``.
    """
    table = {
        key: value if isinstance(value, Triplet) else make_triplet(*value)
        for key, value in table.items()
    }
    n = len(family)
    fans = reference_fans(family)
    maximal = tuple(i for i in range(n) if not fans[i])
    successors: dict[int, SuccessorEntry] = {}
    marked: set[int] = set()
    pending: list[int] = []
    for base_index in range(n):
        fan = fans[base_index]
        if not fan:
            continue
        chosen_entries = [
            entry for entry in fan
            if classify(table[(base_index, entry)]) is Verdict.CHOSEN
        ]
        if chosen_entries:
            top = max(
                chosen_entries,
                key=lambda entry: (table[(base_index, entry)].p_chosen, -entry),
            )
            marked.add(top)
            successors[base_index] = SuccessorEntry(
                successor_index=top, provenance=Provenance.DIRECT
            )
        else:
            pending.append(base_index)

    def candidate_records(base_index: int) -> list[tuple]:
        base = family.members[base_index]
        records = []
        for donor in range(n):
            for entry in fans[donor]:
                if entry in marked:
                    continue
                if classify(table[(donor, entry)]) is not Verdict.CHOSEN:
                    continue
                if not base < family.members[entry]:
                    continue
                records.append((table[(donor, entry)].p_chosen, donor, entry))
        records.sort(key=lambda rec: (-rec[0], rec[1], rec[2]))
        return records

    def candidate_sets(members) -> dict[int, set[int]]:
        return {
            member: {entry for _, _, entry in candidate_records(member)}
            for member in members
        }

    while pending:
        progressed = False
        deferred: list[int] = []
        for position, base_index in enumerate(pending):
            rest = pending[position + 1 :] + deferred
            picked = None
            tried: set[int] = set()
            for _, _donor, entry in candidate_records(base_index):
                if entry in tried:
                    continue
                tried.add(entry)
                marked.add(entry)
                if _matching_covers(rest, candidate_sets(rest)):
                    picked = entry
                    break
                marked.discard(entry)
            if picked is None:
                deferred.append(base_index)
                continue
            successors[base_index] = SuccessorEntry(
                successor_index=picked, provenance=Provenance.COMPENSATED
            )
            progressed = True
        pending = deferred
        if not progressed:
            raise CompensationExhaustedError(
                f"member {pending[0]} has no reachable compensator",
                address=f"member {pending[0]}",
            )
    return MaximalReport(maximal_indices=maximal, successors=successors)


def reference_verify_report(family: ZornFamily, report: MaximalReport) -> bool:
    """``verify_report`` with each rule of its docstring tested on its own,
    from the members alone: the listed members as a multiset, maximality
    by a scan for strict supersets, and each kind of successor counted."""
    members = family.members
    n = len(members)
    # every member is listed exactly once, as maximal or as a successor's base
    if Counter(report.maximal_indices) + Counter(report.successors.keys()) != Counter(range(n)):
        return False
    for index in report.maximal_indices:
        for other in members:
            if members[index] < other:
                return False
    direct = []
    compensators = []
    for base, entry in report.successors.items():
        successor = entry.successor_index
        if successor < 0 or successor >= n:
            return False
        if not members[base] < members[successor]:
            return False
        if entry.provenance == Provenance.COMPENSATED:
            compensators.append(successor)
        else:
            direct.append(successor)
    # a compensator is consumed once, and never one a direct successor already marked
    if any(count > 1 for count in Counter(compensators).values()):
        return False
    return all(successor not in direct for successor in compensators)


def eager_reach(nodes) -> dict[str, int]:
    """Each node's deepest reachable level, filled deepest node first
    through its ``+ "0"`` / ``+ "1"`` children inside ``nodes``."""
    reach: dict[str, int] = {}
    for node in sorted(nodes, key=len, reverse=True):
        reach[node] = max([len(node)] + [reach[node + bit] for bit in "01" if node + bit in nodes])
    return reach


class _EagerPathSearch:
    """Depth-first stage construction that lists each stage's moves in full."""

    def __init__(self, tc: TreeChoice):
        self.tc = tc
        self.nodes = tc.tree.nodes
        self.horizon = tc.tree.horizon
        self.reach = eager_reach(self.nodes)
        self.by_level: dict[int, list[str]] = {}
        for node in sorted(self.nodes):
            self.by_level.setdefault(len(node), []).append(node)
        self.max_level = max(self.by_level) if self.by_level else 0
        self.marked: set[str] = set()
        self.stages: list[Stage] = []

    def is_chosen(self, node: str) -> bool:
        return _argmax_verdict(self.tc.assignment[node]) == "chosen"

    def pc(self, node: str):
        return self.tc.assignment[node].p_chosen

    def candidates(self, current):
        if current is None:
            return [""] if self.reach.get("") == self.horizon else []
        return [
            current + bit
            for bit in "01"
            if current + bit in self.nodes and self.reach[current + bit] == self.horizon
        ]

    def backward_compensators(self, current) -> list[str]:
        if current is None:
            return []
        found: list[str] = []
        for m in range(len(current) + 1):
            witness = current[:m]
            if not self.is_chosen(witness):
                continue
            beside = [
                node
                for node in self.by_level.get(m, ())
                if node != witness
                and node not in self.marked
                and self.is_chosen(node)
                and self.pc(node) < self.pc(witness)
            ]
            beside.sort(key=lambda n: (-self.pc(n), n))
            found.extend(beside)
        return found

    def forward_moves(self, current, dead_level: int) -> list[tuple]:
        moves: list[tuple] = []
        seen: set[tuple] = set()
        base = current if current is not None else ""
        for m in range(dead_level + 1, self.max_level + 1):
            extensions = [
                node
                for node in self.by_level.get(m, ())
                if node != base and node.startswith(base) and self.is_chosen(node)
            ]
            for first, second in itertools.combinations(extensions, 2):
                low, high = sorted((first, second), key=lambda n: (self.pc(n), n))
                if low in self.marked:
                    continue
                if current is None:
                    slot = ""
                else:
                    slot = high[:dead_level]
                    if self.reach.get(slot) != self.horizon:
                        continue
                if (slot, low) not in seen:
                    seen.add((slot, low))
                    moves.append((slot, StepKind.COMP_FORWARD, low))
        return moves

    def moves(self, current) -> list[tuple]:
        slots = self.candidates(current)
        if not slots:
            return []
        chosen_slots = sorted(
            (s for s in slots if self.is_chosen(s)), key=lambda n: (-self.pc(n), n)
        )
        if chosen_slots:
            return [(s, StepKind.CHOSEN_MAX, None) for s in chosen_slots]
        ordered_slots = sorted(slots, key=lambda n: (-self.pc(n), n))
        moves = [
            (slot, StepKind.COMP_BACKWARD, compensator)
            for compensator in self.backward_compensators(current)
            for slot in ordered_slots
        ]
        moves.extend(self.forward_moves(current, 0 if current is None else len(current) + 1))
        return moves

    def extend(self, current) -> bool:
        if current is not None and len(current) == self.horizon:
            return True
        for slot, kind, compensator in self.moves(current):
            self.stages.append(Stage(index=len(self.stages), node=slot, kind=kind, compensator=compensator))
            if compensator is not None:
                self.marked.add(compensator)
            if self.extend(slot):
                return True
            if compensator is not None:
                self.marked.discard(compensator)
            self.stages.pop()
        return False


def reference_construct_path(tc: TreeChoice) -> PathTrace:
    """The path trace of a search that builds every stage's move list eagerly.

    Raises ``PreconditionViolatedError`` when no compensated path reaches the
    horizon.  Expects a tree with a root.
    """
    search = _EagerPathSearch(tc)
    if search.reach.get("", 0) < search.horizon or not search.extend(None):
        raise PreconditionViolatedError("no compensated path reaches the horizon")
    return PathTrace(stages=tuple(search.stages))


def reference_verify_trace(tc: TreeChoice, trace: PathTrace) -> bool:
    """The trace verifier with every partner condition spelled out, on the
    eager search's index: each guard is tested, none inferred from another."""
    search = _EagerPathSearch(tc)
    horizon = search.horizon
    stages = trace.stages
    if len(stages) != horizon + 1:
        return False
    for s, stage in enumerate(stages):
        if stage.index != s or search.reach.get(stage.node) != horizon or len(stage.node) != s:
            return False
        if s > 0 and stage.node[:-1] != stages[s - 1].node:
            return False

    compensators = [st.compensator for st in stages if st.compensator is not None]
    if len(compensators) != len(set(compensators)):
        return False

    chosen = search.is_chosen
    pc = search.pc
    for s, stage in enumerate(stages):
        parent = stages[s - 1].node if s > 0 else None
        if stage.kind is StepKind.CHOSEN_MAX:
            if stage.compensator is not None or not chosen(stage.node):
                return False
            continue
        # Compensated stages require a genuinely dead step.
        if any(chosen(n) for n in search.candidates(parent)) or stage.compensator is None:
            return False
        comp = stage.compensator
        if comp not in tc.tree.nodes or not chosen(comp):
            return False
        if stage.kind is StepKind.COMP_BACKWARD:
            m = len(comp)
            if m >= s or parent is None:
                return False
            witness = stage.node[:m]
            if not chosen(witness) or not pc(comp) < pc(witness):
                return False
        elif stage.kind is StepKind.COMP_FORWARD:
            if len(comp) <= s:
                return False
            base = parent if parent is not None else ""
            if comp == base or not comp.startswith(base):
                return False
            for other in search.by_level.get(len(comp), ()):
                if other == comp or other == base or not other.startswith(base):
                    continue
                if not chosen(other) or (pc(other), other) < (pc(comp), comp):
                    continue
                if parent is not None and other[: len(stage.node)] != stage.node:
                    continue
                break
            else:
                return False
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# samplers (deterministic given the rng)


def sample_family(rng: random.Random, max_sets: int = 8, max_elements: int = 8) -> SetFamily:
    count = rng.randint(1, max_sets)
    sets = []
    for i in range(count):
        size = rng.randint(1, max_elements)
        sets.append(tuple(f"s{i}e{j}" for j in range(size)))
    return SetFamily(sets=tuple(sets))


def sample_choice(
    rng: random.Random, family: SetFamily | None = None, bound: int = 12
) -> NeutroChoice:
    if family is None:
        family = sample_family(rng)
    triplets = {
        (i, element): random_triplet(rng, bound)
        for i, members in enumerate(family.sets)
        for element in members
    }
    return build_choice(family, triplets)


def sample_pool_choice(
    rng: random.Random, family: SetFamily, pool: list[Triplet]
) -> NeutroChoice:
    triplets = {
        (i, element): rng.choice(pool)
        for i, members in enumerate(family.sets)
        for element in members
    }
    return build_choice(family, triplets)


def sample_tree_choice(
    rng: random.Random, groups: dict[str, list[Triplet]], max_horizon: int = 4
) -> TreeChoice:
    """Random prefix tree with a triplet per node, biased toward chosen
    verdicts, occasionally forcing a whole level dead."""
    horizon = rng.randint(1, max_horizon)
    nodes = [""]
    frontier = [""]
    for _ in range(horizon):
        grown = []
        for node in frontier:
            for bit in "01":
                if rng.random() < 0.85:
                    grown.append(node + bit)
        nodes.extend(grown)
        frontier = grown
    tree = Tree(nodes=frozenset(nodes), horizon=horizon)
    non_chosen = groups["not_chosen"] + groups["indeterminate"]
    dead_level = rng.randint(1, horizon) if rng.random() < 0.35 else None
    triplets = {}
    for node in nodes:
        if dead_level is not None and len(node) == dead_level:
            triplets[node] = rng.choice(non_chosen)
        elif rng.random() < 0.6:
            triplets[node] = rng.choice(groups["chosen"])
        else:
            triplets[node] = rng.choice(groups["chosen"] + non_chosen)
    return build_tree_choice(tree, triplets)


def sample_zorn_instance(
    rng: random.Random,
    groups: dict[str, list[Triplet]],
    max_members: int = 10,
    universe: str = "abcde",
) -> tuple[ZornFamily, dict]:
    """Random inclusion family (empty set always included) with fan triplets
    biased toward chosen, sometimes forcing one member's fan all-unchosen."""
    members: set[frozenset] = {frozenset()}
    target = rng.randint(2, max_members)
    attempts = 0
    while len(members) < target and attempts < 50:
        attempts += 1
        size = rng.randint(1, len(universe))
        members.add(frozenset(rng.sample(universe, size)))
    ordered = tuple(sorted(members, key=lambda m: (len(m), sorted(m))))
    family = ZornFamily(members=ordered)
    n = len(family)
    fans = reference_fans(family)
    non_maximal = [i for i in range(n) if fans[i]]
    starve = (
        rng.choice(non_maximal) if non_maximal and rng.random() < 0.45 else None
    )
    non_chosen = groups["not_chosen"] + groups["indeterminate"]
    table = {}
    for i in range(n):
        for q in fans[i]:
            if i == starve:
                table[(i, q)] = rng.choice(non_chosen)
            elif rng.random() < 0.8:
                table[(i, q)] = rng.choice(groups["chosen"])
            else:
                table[(i, q)] = rng.choice(non_chosen)
    return family, table


def sample_needy_family(
    rng: random.Random, groups: dict[str, list[Triplet]], n_sets: int
) -> NeutroChoice:
    """About half needy sets (2-4 elements, none chosen) and half rich ones
    (6-10 elements, each chosen with probability 9/10): a large donor pool
    and many recipients, as in the benchmark's allocate workload.  Redraws
    until the family can be compensated."""
    non_chosen = groups["not_chosen"] + groups["indeterminate"]
    while True:
        sets, triplets = [], {}
        empty = capacity = 0
        for i in range(n_sets):
            needy = rng.random() < 0.5
            size = rng.randint(2, 4) if needy else rng.randint(6, 10)
            elements = tuple(f"x{v}" for v in rng.sample(range(64), size))
            chosen = 0
            for element in elements:
                pick = not needy and rng.random() < 0.9
                chosen += pick
                triplets[(i, element)] = rng.choice(groups["chosen"] if pick else non_chosen)
            empty += chosen == 0
            capacity += max(chosen - 1, 0)
            sets.append(elements)
        if empty <= capacity:
            return build_choice(SetFamily(sets=tuple(sets)), triplets)


def _starved_members_servable(family: ZornFamily, fans, table) -> bool:
    """Kuhn's matching of starved members to unmarked chosen entries."""
    marked, offered = set(), set()
    starved = []
    for base, fan in enumerate(fans):
        picks = [q for q in fan if _argmax_verdict(table[(base, q)]) == "chosen"]
        offered.update(picks)
        if picks:
            marked.add(max(picks, key=lambda q: (table[(base, q)].p_chosen, -q)))
        elif fan:
            starved.append(base)
    options = {
        a: [q for q in offered - marked if family.members[a] < family.members[q]]
        for a in starved
    }
    holder: dict[int, int] = {}

    def assign(a: int, seen: set) -> bool:
        for q in options[a]:
            if q not in seen:
                seen.add(q)
                if q not in holder or assign(holder[q], seen):
                    holder[q] = a
                    return True
        return False

    return all(assign(a, set()) for a in starved)


def sample_starved_zorn(
    rng: random.Random,
    groups: dict[str, list[Triplet]],
    n: int,
    atoms: int = 12,
    starve: float = 0.3,
    feasible: bool = True,
) -> tuple[ZornFamily, dict]:
    """``n`` random members over ``atoms`` atoms; every fan gets one chosen
    entry and more with probability 0.3, then up to a share ``starve`` of
    the members whose fans hold a fifth of the family are starved (every
    entry unchosen).  With ``feasible`` a starved member is kept only while
    every starved member stays servable, as in the benchmark's workload;
    without it the starving is unchecked and often exhausts the pool."""
    members: list[frozenset] = []
    while len(members) < n:
        member = frozenset(rng.sample(range(atoms), rng.randint(1, atoms - 1)))
        if member not in members:
            members.append(member)
    family = ZornFamily(members=tuple(members))
    fans = reference_fans(family)
    non_chosen = groups["not_chosen"] + groups["indeterminate"]
    table = {}
    for base, fan in enumerate(fans):
        forced = rng.choice(fan) if fan else None
        for entry in fan:
            pick = entry == forced or rng.random() < 0.3
            table[(base, entry)] = rng.choice(groups["chosen"] if pick else non_chosen)
    large = [i for i, fan in enumerate(fans) if len(fan) * 5 >= n]
    quota = round(starve * len(large))
    kept = 0
    for base in rng.sample(large, len(large)):
        if kept == quota:
            break
        saved = {(base, entry): table[(base, entry)] for entry in fans[base]}
        table.update(((base, entry), rng.choice(non_chosen)) for entry in fans[base])
        if not feasible or _starved_members_servable(family, fans, table):
            kept += 1
        else:
            table.update(saved)
    return family, table
