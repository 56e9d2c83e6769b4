"""Maximal elements of finite inclusion families via triplet choice.

Every member's strict supersets form its fan, tabled once per family in
``ZornFamily.fans``; members with empty fans are maximal.  Each non-maximal
member receives a successor drawn from its fan: directly, when some fan
entry is chosen (the top entry is taken and marked), or by compensation,
when no entry is chosen (an unmarked chosen entry of another member's fan
that still strictly contains the base is consumed).  Marks are global: once
a member serves as a fan top or as a compensator it never compensates again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping

from .errors import CompensationExhaustedError, NotAMemberError
from .triplet import Verdict, rank_table, triplet_table
from .triplet import make_triplet  # noqa: F401  bench/spans.py wraps zorn.make_triplet by name


@dataclass(frozen=True)
class ZornFamily:
    """Finite collection of finite sets, distinct as sets, in listed order."""

    members: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        normalized = tuple(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", normalized)
        if len(set(normalized)) != len(normalized):
            raise ValueError("family members must be distinct as sets")

    def __len__(self) -> int:
        return len(self.members)

    def index_of(self, member) -> int:
        target = frozenset(member)
        for index, candidate in enumerate(self.members):
            if candidate == target:
                return index
        raise NotAMemberError(f"{set(target)!r} is not a member of the family")

    @cached_property
    def fans(self) -> tuple[tuple[int, ...], ...]:
        """``fans[i]``: ascending indices of member ``i``'s strict supersets,
        built on first read; not a field, so ``==``, hash and repr ignore it."""
        members = self.members
        return tuple([
            tuple([index for index, other in enumerate(members) if base < other])
            for base in members
        ])


@dataclass(frozen=True)
class SupersetFan:
    """A member together with its strict supersets, in canonical order."""

    base_index: int
    base: frozenset
    entry_indices: tuple[int, ...]

    def entries(self, family: ZornFamily) -> tuple[frozenset, ...]:
        return tuple(family.members[i] for i in self.entry_indices)


class Provenance(Enum):
    DIRECT = "direct"
    COMPENSATED = "compensated"


@dataclass(frozen=True)
class SuccessorEntry:
    """Successor of a non-maximal member; the compensator, when one was
    consumed, is the successor itself."""

    successor_index: int
    provenance: Provenance


@dataclass(frozen=True)
class MaximalReport:
    maximal_indices: tuple[int, ...]
    successors: dict

    def maximal_members(self, family: ZornFamily) -> tuple[frozenset, ...]:
        return tuple(family.members[i] for i in self.maximal_indices)


def check_chain_closed(family: ZornFamily) -> bool:
    """Closure under chain unions; for finite families this is exactly
    containing the empty set (the empty chain's union), since a non-empty
    finite chain's union is its own largest member."""
    return frozenset() in family.members


def superset_fan(family: ZornFamily, member) -> SupersetFan:
    """Strict supersets of ``member`` within the family, in member order."""
    base_index = family.index_of(member)
    fan = family.fans[base_index]
    return SupersetFan(base_index=base_index, base=family.members[base_index], entry_indices=fan)


def fan_pairs(family: ZornFamily) -> list[tuple[int, int]]:
    """Every (base index, fan entry index) pair, in canonical order."""
    return [(base, entry) for base, fan in enumerate(family.fans) for entry in fan]


def _fan_where(key: tuple[int, int]) -> tuple[str, str]:
    base_index, entry_index = key
    return (
        f"fan entry {entry_index} of member {base_index}",
        f"member {base_index}, entry {entry_index}",
    )


def _augment(start: int, options: Mapping, owner: dict, held: dict, blocked: set) -> bool:
    """Search for an alternating path from member ``start`` to a free entry
    and flip it, so ``start`` and every member along it hold a new entry.

    ``options[m]`` lists the entries member ``m`` may hold; ``owner`` maps a
    held entry to its member and ``held`` the reverse.  Entries in
    ``blocked`` are never entered, and every entry the search enters is
    added to it.  A failed search therefore leaves in ``blocked`` a set of
    held entries whose holders can reach no other entry: together with
    ``start`` they violate Hall's condition.  The search keeps an explicit
    stack, so a path as long as the family needs no recursion.
    """
    stack = [(start, iter(options[start]))]
    path: list[int] = []  # path[d]: the entry stack[d]'s member moves to
    while stack:
        for entry in stack[-1][1]:
            if entry in blocked:
                continue
            blocked.add(entry)
            path.append(entry)
            holder = owner.get(entry)
            if holder is None:
                for (member, _), moved in zip(stack, path):
                    owner[moved] = member
                    held[member] = moved
                return True
            stack.append((holder, iter(options[holder])))
            break
        else:
            stack.pop()
            if path:
                path.pop()
    return False


def _compensate(pending: list[int], options: dict[int, list[int]]) -> dict[int, int]:
    """Give every pending member a distinct entry from its options, each
    member in turn taking its earliest option that still leaves the members
    after it servable.

    One maximum matching is built by augmenting paths, one member at a time
    in pending order; a member it cannot cover raises
    ``CompensationExhaustedError`` with the Hall-violating set of members
    its failed search reached.  Then each member in turn is fixed to its
    earliest option that is free or whose holder can be re-routed along an
    alternating path.  Entries a failed re-routing entered stay dead for
    the member's later options.  A fixed member's options are emptied, so
    later searches end at its entry.
    """
    owner: dict[int, int] = {}
    held: dict[int, int] = {}
    for member in pending:
        blocked: set[int] = set()
        if not _augment(member, options, owner, held, blocked):
            stuck = sorted({member, *(owner[entry] for entry in blocked)})
            raise CompensationExhaustedError(
                f"member {member} has no reachable compensator: members {stuck} "
                f"fit only inside unmarked chosen entries {sorted(blocked)}",
                address=f"member {member}",
            )
    for member in pending:
        # the member's own entry is free now, so some option always succeeds
        del owner[held[member]]
        dead: set[int] = set()
        for entry in options[member]:
            holder = owner.get(entry)
            if holder is None:
                break
            dead.add(entry)
            if _augment(holder, options, owner, held, dead):
                break
        owner[entry] = member
        held[member] = entry
        options[member] = []
    return held


def find_maximal(family: ZornFamily, fan_triplets: Mapping) -> MaximalReport:
    """Report maximal members and a successor for every other member.

    Fans are examined in member order.  A fan with chosen entries yields a
    direct successor: its top entry by choice probability (ties by member
    order), which is marked.  Members whose fans have no chosen entry are
    compensated: each takes an unmarked chosen entry of another fan that
    strictly contains it.  Every such entry is ranked once, by its best
    record (highest probability, then lowest donor) and then its index, and
    the members in member order each take the best-ranked entry that still
    leaves the members after them servable, which one bipartite matching
    decides (see ``_compensate``).  When no such assignment exists,
    ``CompensationExhaustedError`` names a member that cannot be served.
    """
    fans = family.fans
    pairs = ((base, entry) for base, fan in enumerate(fans) for entry in fan)
    cells = iter(triplet_table(pairs, fan_triplets, _fan_where).values())
    # each fan's chosen (triplet, entry) records in fan order; zip reads the fan
    # first, so each row takes exactly its fan's cells
    chosen = [
        [(triplet, entry) for entry, triplet in zip(fan, cells) if triplet.verdict is Verdict.CHOSEN]
        for fan in fans
    ]
    # p_chosen is compared through its dense rank, an int, read per chosen triplet object
    rank = rank_table({id(triplet): triplet for records in chosen for triplet, _ in records})
    maximal = tuple(index for index, fan in enumerate(fans) if not fan)
    successors: dict[int, SuccessorEntry] = {}
    marked: set[int] = set()
    pending: list[int] = []
    # best record (-rank, donor) of every chosen fan entry
    best: dict[int, tuple] = {}

    for base_index, records in enumerate(chosen):
        if records:
            top_rank = -1
            for triplet, entry in records:
                entry_rank = rank[id(triplet)]
                record = (-entry_rank, base_index)
                if entry not in best or record < best[entry]:
                    best[entry] = record
                # fan entries ascend, and only a strictly higher rank moves the top: the first of equals stays
                if entry_rank > top_rank:
                    top, top_rank = entry, entry_rank
            marked.add(top)
            successors[base_index] = SuccessorEntry(
                successor_index=top, provenance=Provenance.DIRECT
            )
        elif fans[base_index]:
            pending.append(base_index)

    if pending:
        ranked = sorted((e for e in best if e not in marked), key=lambda e: (best[e], e))
        position = {entry: place for place, entry in enumerate(ranked)}
        # a pending member's options: its fan entries in the ranked pool, in pool order
        options = {
            base_index: sorted((e for e in fans[base_index] if e in position), key=position.get)
            for base_index in pending
        }
        held = _compensate(pending, options)
        for base_index in pending:
            successors[base_index] = SuccessorEntry(
                successor_index=held[base_index], provenance=Provenance.COMPENSATED
            )
    return MaximalReport(maximal_indices=maximal, successors=successors)


def verify_report(family: ZornFamily, report: MaximalReport) -> bool:
    """Re-check a report against the family alone: the claimed maximal
    members and the successors' bases list every member exactly once,
    claimed maximal members have no strict supersets, successors strictly
    contain their bases, and no member is consumed as a compensator twice
    (or after serving as a direct successor)."""
    n = len(family)
    if sorted([*report.maximal_indices, *report.successors]) != list(range(n)):
        return False
    for index in report.maximal_indices:
        if any(family.members[index] < other for other in family.members):
            return False
    direct: set[int] = set()
    compensated: list[int] = []
    for base_index, entry in report.successors.items():
        if not 0 <= entry.successor_index < n:
            return False
        if not family.members[base_index] < family.members[entry.successor_index]:
            return False
        if entry.provenance is Provenance.DIRECT:
            direct.add(entry.successor_index)
        else:
            compensated.append(entry.successor_index)
    if len(compensated) != len(set(compensated)):
        return False
    return not (set(compensated) & direct)
