"""Maximal elements of finite inclusion families via triplet choice.

Every member's strict supersets form its fan; members with empty fans are
maximal.  Each non-maximal member receives a successor drawn from its fan:
directly, when some fan entry is chosen (the top entry is taken and
marked), or by compensation, when no entry is chosen (an unmarked chosen
entry of another member's fan that still strictly contains the base is
consumed).  Marks are global: once a member serves as a fan top or as a
compensator it never compensates again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .errors import CompensationExhaustedError, NotAMemberError
from .triplet import Verdict, classify, triplet_table
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
    base = family.members[base_index]
    entry_indices = tuple(
        index
        for index, candidate in enumerate(family.members)
        if base < candidate
    )
    return SupersetFan(base_index=base_index, base=base, entry_indices=entry_indices)


def fan_pairs(family: ZornFamily) -> list[tuple[int, int]]:
    """Every (base index, fan entry index) pair, in canonical order."""
    pairs = []
    for base_index in range(len(family)):
        fan = superset_fan(family, family.members[base_index])
        pairs.extend((base_index, entry) for entry in fan.entry_indices)
    return pairs


def _fan_where(key: tuple[int, int]) -> tuple[str, str]:
    base_index, entry_index = key
    return (
        f"fan entry {entry_index} of member {base_index}",
        f"member {base_index}, entry {entry_index}",
    )


def _matching_covers(pending: list[int], candidates: Mapping[int, set[int]]) -> bool:
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


def find_maximal(family: ZornFamily, fan_triplets: Mapping) -> MaximalReport:
    """Report maximal members and a successor for every other member.

    Fans are examined in member order.  A fan with chosen entries yields a
    direct successor: its top entry by choice probability (ties by member
    order), which is marked.  Members whose fans have no chosen entry are
    deferred to compensation passes: each takes the best unmarked chosen
    entry of any other fan that strictly contains it (probability order,
    ties by donor then entry), preferring candidates that leave the
    remaining deferred members satisfiable; an entry that can never be
    satisfied raises ``CompensationExhaustedError``.
    """
    table = triplet_table(fan_pairs(family), fan_triplets, _fan_where)
    fans = {
        index: superset_fan(family, family.members[index]).entry_indices
        for index in range(len(family))
    }
    maximal = tuple(index for index, fan in sorted(fans.items()) if not fan)
    successors: dict[int, SuccessorEntry] = {}
    marked: set[int] = set()
    pending: list[int] = []

    for base_index in range(len(family)):
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
        for donor in range(len(family)):
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

    def candidate_sets(members: Iterable[int]) -> dict[int, set[int]]:
        return {
            member: {entry for _, _, entry in candidate_records(member)}
            for member in members
        }

    while pending:
        progressed = False
        deferred: list[int] = []
        for position, base_index in enumerate(pending):
            rest = pending[position + 1 :] + deferred
            picked: int | None = None
            tried: set[int] = set()
            for _, _donor, entry in candidate_records(base_index):
                if entry in tried:
                    continue
                tried.add(entry)
                marked.add(entry)
                feasible = _matching_covers(rest, candidate_sets(rest))
                if feasible:
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


def verify_report(family: ZornFamily, report: MaximalReport) -> bool:
    """Re-check a report against the family alone: claimed maximal members
    have no strict supersets, successors strictly contain their bases, and
    no member is consumed as a compensator twice (or after serving as a
    direct successor)."""
    n = len(family)
    for index in report.maximal_indices:
        if not 0 <= index < n:
            return False
        if any(family.members[index] < other for other in family.members):
            return False
    direct: set[int] = set()
    compensated: list[int] = []
    for base_index, entry in report.successors.items():
        if not 0 <= base_index < n or not 0 <= entry.successor_index < n:
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
