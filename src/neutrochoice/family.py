"""Triplet-valued choice over finite families of sets.

Covers per-set verdict partitions, the embedding of classical choice maps,
the compensation check and allocation discipline, and the product-status
verdict.  Elements are opaque identifiers addressed by ``(set index,
element)``; the order elements were listed in is the canonical order used
by every deterministic tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Hashable, Mapping

from .errors import IndexOutOfRangeError, InvalidChoiceError, PreconditionViolatedError
from .triplet import Triplet, Verdict, make_triplet, rank_table, triplet_table

Element = Hashable

# Canonical embedding triplets for classical choice maps: the picked element
# gets a choice-dominant triplet, every other element a rejection-dominant one.
_EMBED_CHOSEN = ("7/10", "2/10", "1/10")
_EMBED_OTHER = ("2/10", "7/10", "1/10")


@dataclass(frozen=True)
class SetFamily:
    """Ordered family of non-empty finite sets of opaque identifiers.

    The same identifier may appear in different sets; each occurrence is a
    distinct element addressed by its ``(set index, identifier)`` pair.
    """

    sets: tuple[tuple[Element, ...], ...]

    def __post_init__(self) -> None:
        normalized = tuple(tuple(xs) for xs in self.sets)
        object.__setattr__(self, "sets", normalized)
        for index, xs in enumerate(normalized):
            if not xs:
                raise ValueError(f"set {index} is empty")
            if len(set(xs)) != len(xs):
                raise ValueError(f"set {index} lists a duplicate element")

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class NeutroChoice:
    """A set family together with a total triplet assignment."""

    family: SetFamily
    assignment: dict

    def triplet(self, index: int, element: Element) -> Triplet:
        return self.assignment[(index, element)]

    @cached_property
    def rank(self) -> dict:
        """``rank[(index, element)]``: the dense rank of the element's
        ``p_chosen`` (see :func:`rank_table`), built on first read; not a
        field, so ``==``, hash and repr ignore it."""
        return rank_table(self.assignment)


@dataclass(frozen=True)
class Partition:
    """Verdict partition of one set: parts are disjoint and cover the set."""

    chosen: tuple[Element, ...]
    not_chosen: tuple[Element, ...]
    indeterminate: tuple[Element, ...]


@dataclass(frozen=True)
class CompensationReport:
    holds: bool
    uncompensatable: tuple[int, ...]


@dataclass(frozen=True)
class CompensationPair:
    """One empty-choice set served by one donor element."""

    recipient_index: int
    compensated: Element
    donor_index: int
    compensator: Element


@dataclass(frozen=True)
class CompensationPlan:
    pairs: tuple[CompensationPair, ...]
    marks: tuple[tuple[int, Element], ...]


class ProductStatusKind(Enum):
    NON_EMPTY_WITNESS = "non_empty_witness"
    INDETERMINATE = "indeterminate"
    NO_WITNESS = "no_witness"


@dataclass(frozen=True)
class ProductStatus:
    """Status of the family's product under the assignment's verdicts."""

    kind: ProductStatusKind
    witness: tuple[Element, ...] | None = None


def build_choice(family: SetFamily, triplets: Mapping) -> NeutroChoice:
    """Build a choice assignment, validating totality and every triplet.

    ``triplets`` maps ``(set index, element)`` to a Triplet or to a raw
    three-component sequence; see :func:`triplet_table`, whose errors name
    the offending element's address.
    """
    keys = ((index, element) for index, xs in enumerate(family.sets) for element in xs)
    return NeutroChoice(family=family, assignment=triplet_table(keys, triplets, _element_where))


def _element_where(key: tuple[int, Element]) -> tuple[str, str]:
    index, element = key
    return f"element {element!r} in set {index}", f"set {index}, element {element!r}"


def partition_set(choice: NeutroChoice, index: int) -> Partition:
    """Split set ``index`` into chosen / not chosen / indeterminate parts."""
    if not 0 <= index < len(choice.family):
        raise IndexOutOfRangeError(f"set index {index} out of range")
    chosen: list[Element] = []
    not_chosen: list[Element] = []
    indeterminate: list[Element] = []
    # verdicts are compared by identity: hashing an Enum member runs Python code
    for element in choice.family.sets[index]:
        verdict = choice.triplet(index, element).verdict
        if verdict is Verdict.CHOSEN:
            chosen.append(element)
        elif verdict is Verdict.NOT_CHOSEN:
            not_chosen.append(element)
        else:
            indeterminate.append(element)
    return Partition(
        chosen=tuple(chosen), not_chosen=tuple(not_chosen), indeterminate=tuple(indeterminate)
    )


def embed_classical(family: SetFamily, choice_map: Mapping[int, Element]) -> NeutroChoice:
    """Embed a classical choice map as a triplet assignment.

    The picked element of each set becomes its unique chosen element; every
    other element is rejection-dominant, so partitioning recovers the map.
    """
    triplets: dict = {}
    for index, xs in enumerate(family.sets):
        if index not in choice_map:
            raise InvalidChoiceError(f"choice map picks nothing from set {index}")
        picked = choice_map[index]
        if picked not in xs:
            raise InvalidChoiceError(
                f"choice map picks {picked!r}, which is not in set {index}"
            )
        for element in xs:
            values = _EMBED_CHOSEN if element == picked else _EMBED_OTHER
            triplets[(index, element)] = make_triplet(*values)
    return build_choice(family, triplets)


def _chosen_parts(choice: NeutroChoice) -> list[Partition]:
    return [partition_set(choice, i) for i in range(len(choice.family))]


def _top(choice: NeutroChoice, index: int, elements) -> Element:
    """The element of set ``index`` among ``elements`` with the greatest
    choice probability, compared by rank.  ``elements`` must be in canonical
    order: ``max`` keeps the first of equals, so ties fall to canonical
    order."""
    rank = choice.rank
    return max(elements, key=lambda e: rank[(index, e)])


def _capacity(parts: list[Partition]) -> CompensationReport:
    empty = [i for i, part in enumerate(parts) if not part.chosen]
    capacity = sum(len(part.chosen) - 1 for part in parts if len(part.chosen) >= 2)
    if len(empty) <= capacity:
        return CompensationReport(holds=True, uncompensatable=())
    return CompensationReport(holds=False, uncompensatable=tuple(empty[capacity:]))


def check_compensation(choice: NeutroChoice) -> CompensationReport:
    """Decide whether every empty-choice set can be served one-for-one.

    Donors are sets with at least two chosen elements; each donor keeps its
    top chosen element and offers the rest.  The property holds when the
    pool covers all empty-choice sets under that discipline; recipients a
    depleted pool cannot reach are reported in processing order.
    """
    return _capacity(_chosen_parts(choice))


def allocate_compensators(choice: NeutroChoice) -> CompensationPlan:
    """Pair every empty-choice set with a donor element, marking as it goes.

    Within each donor the top chosen element (by choice probability, ties by
    canonical order) is marked first and never compensates.  Empty-choice
    sets are processed in index order; each receives its most-nearly-chosen
    element paired with the best unmarked donor element (highest choice
    probability, ties by donor index then canonical order), which is then
    marked against reuse.  That best element never depends on the
    recipient, so the pool is sorted once and dealt out in order: one sort,
    no per-recipient scan.
    """
    parts = _chosen_parts(choice)
    report = _capacity(parts)
    if not report.holds:
        raise PreconditionViolatedError(
            f"compensation property fails; uncompensatable sets: "
            f"{list(report.uncompensatable)}",
            address=f"set {report.uncompensatable[0]}",
        )
    family = choice.family
    marks: list[tuple[int, Element]] = []
    # (donor index, element), built in donor order and then canonical order
    pool: list[tuple[int, Element]] = []
    for donor, part in enumerate(parts):
        if len(part.chosen) < 2:
            continue
        top = _top(choice, donor, part.chosen)
        marks.append((donor, top))
        pool.extend((donor, element) for element in part.chosen if element != top)
    # a stable sort keeps donor and canonical order among equal ranks
    pool.sort(key=choice.rank.__getitem__, reverse=True)
    recipients = [index for index, part in enumerate(parts) if not part.chosen]
    pairs: list[CompensationPair] = []
    for recipient, (donor, compensator) in zip(recipients, pool):
        marks.append((donor, compensator))
        pairs.append(
            CompensationPair(
                recipient_index=recipient,
                compensated=_top(choice, recipient, family.sets[recipient]),
                donor_index=donor,
                compensator=compensator,
            )
        )
    return CompensationPlan(pairs=tuple(pairs), marks=tuple(marks))


def verify_plan(choice: NeutroChoice, plan: CompensationPlan) -> bool:
    """Re-validate a compensation plan against the assignment from scratch.

    Every empty-choice set is served once, each by a distinct chosen element
    of another set with at least two, never that donor's reserved top; each
    pair's compensated element lies in its recipient's set; and ``marks``
    holds every donor's reserved top and every pair's compensator, each
    exactly once and in any order, and nothing else.  Tops are found by
    comparing ``p_chosen`` itself, not ``choice.rank``, so a fault in the
    rank table cannot pass the check unseen.
    """
    family = choice.family
    parts = _chosen_parts(choice)
    empty = [i for i, part in enumerate(parts) if not part.chosen]
    if sorted(pair.recipient_index for pair in plan.pairs) != empty:
        return False
    tops = {
        (donor, max(part.chosen, key=lambda e: choice.triplet(donor, e).p_chosen))
        for donor, part in enumerate(parts)
        if len(part.chosen) >= 2
    }
    used: set[tuple[int, Element]] = set()
    for pair in plan.pairs:
        if pair.donor_index == pair.recipient_index:
            return False
        if not 0 <= pair.donor_index < len(family):
            return False
        donor_part = parts[pair.donor_index]
        if len(donor_part.chosen) < 2:
            return False
        if pair.compensator not in donor_part.chosen:
            return False
        if pair.compensated not in family.sets[pair.recipient_index]:
            return False
        key = (pair.donor_index, pair.compensator)
        if key in tops or key in used:
            return False
        used.add(key)
    # tops and used are disjoint, so equal lengths rule out a repeated mark
    marks = tops | used
    return len(plan.marks) == len(marks) and set(plan.marks) == marks


def product_status(choice: NeutroChoice) -> ProductStatus:
    """Report whether a one-element-per-set witness tuple exists.

    A witness exists when every set has a chosen element (the component with
    the greatest choice probability, ties by canonical order).  With no
    witness, a set whose elements are all indeterminate makes the whole
    product indeterminate; otherwise there is simply no witness.
    """
    parts = _chosen_parts(choice)
    if all(part.chosen for part in parts):
        witness = tuple(_top(choice, index, part.chosen) for index, part in enumerate(parts))
        return ProductStatus(kind=ProductStatusKind.NON_EMPTY_WITNESS, witness=witness)
    for index, part in enumerate(parts):
        if len(part.indeterminate) == len(choice.family.sets[index]):
            return ProductStatus(kind=ProductStatusKind.INDETERMINATE)
    return ProductStatus(kind=ProductStatusKind.NO_WITNESS)
