"""Exact probability triplets and their verdicts.

A triplet holds the probabilities of an element being chosen, not chosen,
and left indeterminate.  All arithmetic is exact: components are
``fractions.Fraction`` values, comparisons are strict, and floats are
rejected everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    BoundTooSmallError,
    MissingAssignmentError,
    NeutroChoiceError,
    OutOfRangeError,
    RetryLimitError,
    SumNotOneError,
    ThresholdOutOfRangeError,
    TieViolationError,
)

#: Smallest denominator bound the sampler accepts.
MIN_DENOMINATOR_BOUND = 4

_RETRY_CAP = 1000

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Fractions of ASCII ``"num/den"`` strings already read, keyed by the exact
#: ``str``.  Only strings of at most ``_MEMO_CHARS`` characters enter, far
#: below any int-string digit limit (at least 640), and a full memo takes no
#: new entries.
_MEMO: dict[str, Fraction] = {}
_MEMO_CHARS = 32
_MEMO_ENTRIES = 1024


def as_rational(value) -> Fraction:
    """Coerce an int, a ``"num/den"`` string, or a Fraction to a Fraction.

    Floats are rejected: the core is exact end to end.  A ``str`` of ASCII
    digits, optionally followed by ``/`` and ASCII digits, is read with two
    ``int`` calls, and a short one is remembered in ``_MEMO``; a failure is
    never stored, so a bad string raises on every call.  Every other string
    (signs, spaces, ``_``, decimal points, exponents, non-ASCII digits, an
    empty side of ``/``) falls through to ``Fraction(str)``, so values and
    errors are the same either way.
    """
    if type(value) is str:
        known = _MEMO.get(value)
        if known is not None:
            return known
        # int() also takes signs, spaces and "_" (isdigit rejects them) and "١" (isascii does)
        num, slash, den = value.partition("/")
        if num.isascii() and num.isdigit() and (not slash or (den.isascii() and den.isdigit())):
            known = Fraction(int(num), int(den) if slash else 1)
            if len(value) <= _MEMO_CHARS and len(_MEMO) < _MEMO_ENTRIES:
                _MEMO[value] = known
            return known
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use Fraction, int, or 'num/den' strings")
    if isinstance(value, str):
        if "e" in value or "E" in value:  # Fraction("1e-999999") computes 10**999999
            raise ValueError("exponent notation is not accepted; use a 'num/den' string")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Render a Fraction as a ``"num/den"`` string in lowest terms."""
    return f"{value.numerator}/{value.denominator}"


class Verdict(Enum):
    """Outcome of a triplet: the component holding the unique strict maximum."""

    CHOSEN = "chosen"
    NOT_CHOSEN = "not_chosen"
    INDETERMINATE = "indeterminate"


class ThresholdVerdict(Enum):
    """Outcome of comparing the choice probability against a threshold."""

    CHOSEN_AT_THRESHOLD = "chosen_at_threshold"
    NOT_CHOSEN_AT_THRESHOLD = "not_chosen_at_threshold"


@dataclass(frozen=True)
class Triplet:
    """Probabilities of choosing, not choosing, and leaving open.

    Construction coerces each component with :func:`as_rational` and
    checks, in this order: every component lies in [0, 1], the components
    sum to exactly 1, and no two components are equal (so the strict
    maximum is unique).  Every instance therefore satisfies all three, and
    ``verdict`` holds the component with that unique strict maximum.
    """

    p_chosen: Fraction
    p_not_chosen: Fraction
    p_indeterminate: Fraction
    verdict: Verdict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        i = as_rational(self.p_chosen)
        j = as_rational(self.p_not_chosen)
        k = as_rational(self.p_indeterminate)
        object.__setattr__(self, "p_chosen", i)
        object.__setattr__(self, "p_not_chosen", j)
        object.__setattr__(self, "p_indeterminate", k)
        # The checks run on numerators and denominators: a Fraction keeps its
        # denominator positive and its terms lowest, so equal values have
        # equal parts, and Fraction arithmetic is left to the error messages.
        a, b, c = i.numerator, j.numerator, k.numerator
        x, y, z = i.denominator, j.denominator, k.denominator
        for name, num, den in (("p_chosen", a, x), ("p_not_chosen", b, y), ("p_indeterminate", c, z)):
            if num < 0 or num > den:
                raise OutOfRangeError(f"{name}={num}/{den} lies outside [0, 1]", address=name)
        if a * y * z + b * x * z + c * x * y != x * y * z:
            raise SumNotOneError(f"components sum to {format_rational(i + j + k)}, not 1")
        if (a == b and x == y) or (b == c and y == z) or (a == c and x == z):
            raise TieViolationError(
                f"components must be pairwise distinct, got "
                f"({format_rational(i)}, {format_rational(j)}, {format_rational(k)})"
            )
        # a/x > b/y iff a*y > b*x, and with no ties j > i wherever i > j fails
        i_over_j = a * y > b * x
        if i_over_j and a * z > c * x:
            verdict = Verdict.CHOSEN
        elif not i_over_j and b * z > c * y:
            verdict = Verdict.NOT_CHOSEN
        else:
            verdict = Verdict.INDETERMINATE
        object.__setattr__(self, "verdict", verdict)

    def components(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.p_chosen, self.p_not_chosen, self.p_indeterminate)

    def serialize(self) -> list[str]:
        """The components as ``"num/den"`` strings, in a new list on each call."""
        return list(map(format_rational, self.components()))


def make_triplet(p_chosen, p_not_chosen, p_indeterminate) -> Triplet:
    """Validate components and build a :class:`Triplet`."""
    return Triplet(p_chosen, p_not_chosen, p_indeterminate)


def triplet_table(keys: Iterable, triplets: Mapping, where: Callable) -> dict:
    """Validated triplets for ``keys``, in key order.

    ``triplets`` maps each key to a Triplet, which passes through unchanged,
    or to a raw entry, which :func:`parse_triplet` validates.  ``where(key)``
    returns ``(label, address)`` naming the key: an absent key raises
    ``MissingAssignmentError``, and a validation error is re-raised as the
    same type tagged with both (a ``TypeError``, ``ValueError`` or
    ``ZeroDivisionError``, which carries no address, with the label only).
    """
    table: dict = {}
    for key in keys:
        if key not in triplets:
            label, address = where(key)
            raise MissingAssignmentError(f"no triplet assigned to {label}", address=address)
        raw = triplets[key]
        try:
            table[key] = raw if isinstance(raw, Triplet) else parse_triplet(raw)
        except NeutroChoiceError as exc:
            label, address = where(key)
            raise type(exc)(f"{label}: {exc}", address=address) from exc
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise type(exc)(f"{where(key)[0]}: {exc}") from exc
    return table


def rank_table(table: Mapping) -> dict:
    """Each key of a triplet table mapped to the dense rank of its
    triplet's ``p_chosen``: 0 for the smallest value, equal values equal
    ranks, so comparing ranks orders keys exactly as comparing ``p_chosen``.

    A table repeats a few triplet objects over many keys, so each distinct
    object is read once (by ``id``) and only the distinct values are
    sorted; equal triplets held as separate objects still share a rank.
    """
    distinct = {id(triplet): triplet for triplet in table.values()}
    values = sorted({triplet.p_chosen for triplet in distinct.values()})
    dense = {value: rank for rank, value in enumerate(values)}
    by_id = {ident: dense[triplet.p_chosen] for ident, triplet in distinct.items()}
    return {key: by_id[id(triplet)] for key, triplet in table.items()}


def parse_triplet(values) -> Triplet:
    """Build a triplet from a list or tuple of three rational-like values
    (chosen, not chosen, indeterminate).  Anything else has no such order
    and raises ``TypeError``; another length raises ``ValueError``."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"a triplet is a list or tuple of 3 components, not a {type(values).__name__}")
    if len(values) != 3:
        raise ValueError(f"a triplet needs exactly 3 components, got {len(values)}")
    return Triplet(*values)


def classify(triplet: Triplet) -> Verdict:
    """Return the verdict of a valid triplet: its unique strict maximum."""
    return triplet.verdict


def classify_threshold(triplet: Triplet, threshold) -> ThresholdVerdict:
    """Compare the choice probability against a threshold (``>=`` convention)."""
    p = as_rational(threshold)
    if p < _ZERO or p > _ONE:
        raise ThresholdOutOfRangeError(f"threshold {format_rational(p)} lies outside [0, 1]", address="threshold")
    if triplet.p_chosen >= p:
        return ThresholdVerdict.CHOSEN_AT_THRESHOLD
    return ThresholdVerdict.NOT_CHOSEN_AT_THRESHOLD


def random_triplet(rng: random.Random, denominator_bound: int) -> Triplet:
    """Sample a uniform tie-free triplet with denominators dividing the bound.

    The sampler draws uniform compositions of ``denominator_bound`` into
    three non-negative parts (stars and bars) and rejects draws with tied
    parts.  The ``rng`` argument is the explicit generator state: two
    generators seeded identically produce identical triplet sequences, and
    no hidden global state is touched.
    """
    if denominator_bound < MIN_DENOMINATOR_BOUND:
        raise BoundTooSmallError(
            f"denominator bound must be at least {MIN_DENOMINATOR_BOUND}, "
            f"got {denominator_bound}"
        )
    n = denominator_bound
    for _ in range(_RETRY_CAP):
        first, second = sorted(rng.sample(range(n + 2), 2))
        a = first
        b = second - first - 1
        c = n + 1 - second
        if a != b and b != c and a != c:
            return make_triplet(Fraction(a, n), Fraction(b, n), Fraction(c, n))
    raise RetryLimitError(
        f"no tie-free composition of {n} found after {_RETRY_CAP} draws"
    )
