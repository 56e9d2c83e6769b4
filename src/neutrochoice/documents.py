"""JSON documents for the CLI: parsing, schema validation, canonical
serialization, and seeded assignment generation.

Three document kinds share one shape: ``family`` (sets plus a per-element
triplet table), ``tree`` (strings, a horizon, and a per-node table), and
``zorn`` (members plus a per-fan-pair table).  A document carries exactly
one of an explicit table or an ``rng`` block; generation replaces the
``rng`` block with an explicit table filled in canonical order, so the
result is self-contained and replayable.
"""

from __future__ import annotations

import json
import random
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from typing import Any, Callable

from .errors import BoundTooSmallError, NeutroChoiceError, ParseError, SchemaError
from . import tree as tree_mod
from . import zorn as zorn_mod
from .family import NeutroChoice, SetFamily, build_choice
from .triplet import MIN_DENOMINATOR_BOUND, parse_triplet, random_triplet, triplet_table
from .zorn import MaximalReport, Provenance, SuccessorEntry, ZornFamily

KINDS = ("family", "tree", "zorn")


#: a JSON string, skipped whole, or a JSON number split into its parts
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?')


def _over_long_integer(text: str) -> str | None:
    """``"line L, column C"`` of the first integer literal with more digits
    than Python's int-string limit, or None.  A literal with a fraction or
    an exponent is read as a float, which has no limit."""
    limit = sys.get_int_max_str_digits()
    for match in _TOKEN.finditer(text):
        digits, fraction, exponent = match.groups()
        if digits and not fraction and not exponent and 0 < limit < len(digits):
            pos = match.start()
            line = text.count("\n", 0, pos) + 1
            column = pos - text.rfind("\n", 0, pos)
            return f"line {line}, column {column}"
    return None


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        doc = json.loads(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: {exc.reason}", address=f"byte {exc.start}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests arrays or objects too deeply to parse") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path} is not valid JSON: {exc.msg}",
            address=f"line {exc.lineno}, column {exc.colno}",
        ) from exc
    except ValueError as exc:  # an integer literal past Python's int-string digit limit
        raise ParseError(f"cannot parse {path}: {exc}", address=_over_long_integer(text)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    return doc


def _known(raw: Any, canonical: dict[tuple, tuple[str, ...]]) -> list[str] | None:
    """Canonical strings of an entry ``_canonical_triplet`` has accepted in
    this call, or None.

    Only a list can hit: ``tuple()`` of an object with the same three
    string keys would equal a stored key.  An unhashable item is a miss,
    which ``_canonical_triplet`` then rejects.
    """
    if isinstance(raw, list):
        try:
            strings = canonical.get(tuple(raw))
        except TypeError:
            return None
        if strings is not None:
            return list(strings)
    return None


def _canonical_triplet(raw: Any, where: Callable[[], str], canonical: dict[tuple, tuple[str, ...]]) -> list[str]:
    """Canonical strings of one triplet entry, stored in ``canonical`` under
    its raw strings once valid; ``where()`` names it, on failure only."""
    if not (isinstance(raw, list) and len(raw) == 3):
        raise SchemaError("triplet must be a 3-item list", address=where())
    if not all(isinstance(v, str) for v in raw):
        raise SchemaError("triplet components must be 'num/den' strings", address=where())
    try:
        strings = parse_triplet(raw).serialize()
    except (NeutroChoiceError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid triplet at {where()}: {exc}", address=where()) from exc
    canonical[tuple(raw)] = tuple(strings)
    return strings


class _Canonical(dict):
    """A canonical document, carrying the structure its validation built as
    the attribute ``built`` (a tree document's ``Tree``, a zorn document's
    ``ZornFamily``), not as a key: it serializes and compares as the plain
    dict.  ``tree_choice`` and ``zorn_family`` take ``built`` off the
    document and use it only if it equals what they would build from the
    document's keys, so an edited document never yields a stale structure."""

    def __init__(self, items: dict, built: tree_mod.Tree | ZornFamily | None = None) -> None:
        super().__init__(items)
        self.built = built


def _take_built(doc: dict) -> tree_mod.Tree | ZornFamily | None:
    """Take the structure validation built off ``doc`` (None from a plain
    dict): it then lives as long as the command that runs on it, not while
    the result, which echoes the document, is written."""
    built = getattr(doc, "built", None)
    if built is not None:
        doc.built = None
    return built


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``bool`` subclasses ``int`` but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_rng(raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise SchemaError("rng must be an object", address="rng")
    if not _is_int(raw.get("seed")):
        raise SchemaError("rng.seed must be an integer", address="rng.seed")
    bound = raw.get("denominator_bound")
    if not _is_int(bound):
        raise SchemaError("rng.denominator_bound must be an integer", address="rng.denominator_bound")
    # the sampler draws from range(bound + 2), whose length must fit a C ssize_t
    if bound + 2 > sys.maxsize:
        raise SchemaError(f"rng.denominator_bound must be at most {sys.maxsize - 2}", address="rng.denominator_bound")
    return {"seed": raw["seed"], "denominator_bound": bound}


def _validate_family(doc: dict) -> dict:
    sets = doc.get("sets")
    if not (isinstance(sets, list) and sets):
        raise SchemaError("family document needs a non-empty 'sets' list", address="sets")
    out_sets = []
    for i, raw_set in enumerate(sets):
        if not (isinstance(raw_set, list) and raw_set):
            raise SchemaError(f"set {i} must be a non-empty list", address=f"sets[{i}]")
        if not all(isinstance(e, str) for e in raw_set):
            raise SchemaError(f"set {i} elements must be strings", address=f"sets[{i}]")
        if len(set(raw_set)) != len(raw_set):
            raise SchemaError(f"set {i} lists a duplicate element", address=f"sets[{i}]")
        out_sets.append(list(raw_set))
    out = _Canonical({"kind": "family", "sets": out_sets})
    if "assignment" in doc:
        assignment = doc["assignment"]
        if not (isinstance(assignment, list) and len(assignment) == len(out_sets)):
            raise SchemaError("assignment must list one object per set", address="assignment")
        out_assignment = []
        canonical: dict = {}
        for i, (raw_set, table) in enumerate(zip(out_sets, assignment)):
            if not isinstance(table, dict):
                raise SchemaError(f"assignment[{i}] must be an object", address=f"assignment[{i}]")
            for element in raw_set:
                if element not in table:
                    raise SchemaError(
                        f"assignment[{i}] is missing element {element!r}", address=f"assignment[{i}][{element!r}]"
                    )
            # every element is in the table and the elements are distinct, so only extras add length
            if len(table) != len(raw_set):
                raise SchemaError(f"assignment[{i}] names elements outside set {i}", address=f"assignment[{i}]")
            out_assignment.append(
                {
                    element: _known(table[element], canonical)
                    or _canonical_triplet(table[element], lambda: f"assignment[{i}][{element!r}]", canonical)
                    for element in raw_set
                }
            )
        out["assignment"] = out_assignment
    return out


def _validate_tree(doc: dict) -> dict:
    strings = doc.get("strings")
    horizon = doc.get("horizon")
    if not isinstance(strings, list):
        raise SchemaError("tree document needs a 'strings' list", address="strings")
    if not (_is_int(horizon) and horizon >= 1):
        raise SchemaError("horizon must be a positive integer", address="horizon")
    for i, s in enumerate(strings):
        if not isinstance(s, str) or s.strip("01"):
            raise SchemaError(f"strings[{i}] must be a binary string", address=f"strings[{i}]")
        if len(s) > horizon:
            raise SchemaError(f"strings[{i}] is longer than the horizon", address=f"strings[{i}]")
    tree = tree_mod.build_tree(strings, horizon)
    closure = list(chain.from_iterable(tree.levels.values()))
    out = _Canonical({"kind": "tree", "strings": closure, "horizon": horizon}, tree)
    if "assignment" in doc:
        table = doc["assignment"]
        if not isinstance(table, dict):
            raise SchemaError("assignment must be an object", address="assignment")
        for node in closure:
            if node not in table:
                raise SchemaError(f"assignment is missing node {node!r}", address=f"assignment[{node!r}]")
        if len(table) != len(closure):
            raise SchemaError("assignment names nodes outside the tree", address="assignment")
        canonical: dict = {}
        out["assignment"] = {
            node: _known(table[node], canonical)
            or _canonical_triplet(table[node], lambda: f"assignment[{node!r}]", canonical)
            for node in closure
        }
    return out


def _validate_zorn(doc: dict) -> dict:
    members = doc.get("members")
    if not (isinstance(members, list) and members):
        raise SchemaError("zorn document needs a non-empty 'members' list", address="members")
    out_members = []
    for i, raw in enumerate(members):
        if not isinstance(raw, list):
            raise SchemaError(f"members[{i}] must be a list", address=f"members[{i}]")
        if not all(isinstance(e, str) for e in raw):
            raise SchemaError(f"members[{i}] elements must be strings", address=f"members[{i}]")
        if len(set(raw)) != len(raw):
            raise SchemaError(f"members[{i}] lists a duplicate element", address=f"members[{i}]")
        out_members.append(sorted(raw))
    try:
        family = ZornFamily(members=out_members)
    except ValueError as exc:
        raise SchemaError("members must be distinct as sets", address="members") from exc
    out = _Canonical({"kind": "zorn", "members": out_members}, family)
    if "fan_triplets" in doc:
        raw_table = doc["fan_triplets"]
        if not isinstance(raw_table, list):
            raise SchemaError("fan_triplets must be a list", address="fan_triplets")
        # fan order; each slot holds its pair's triplet once one is read
        slots: dict[tuple[int, int], list[str] | None] = dict.fromkeys(zorn_mod.fan_pairs(family))
        canonical: dict = {}
        for i, record in enumerate(raw_table):
            if not isinstance(record, dict):
                raise SchemaError(f"fan_triplets[{i}] must be an object", address=f"fan_triplets[{i}]")
            member, entry = record.get("member"), record.get("entry")
            if not (_is_int(member) and _is_int(entry)):
                raise SchemaError(
                    f"fan_triplets[{i}] needs integer 'member' and 'entry' indices", address=f"fan_triplets[{i}]"
                )
            if (member, entry) not in slots:
                raise SchemaError(
                    f"fan_triplets[{i}]: member {entry} is not a strict superset of member {member}",
                    address=f"fan_triplets[{i}]",
                )
            if slots[member, entry] is not None:
                raise SchemaError(f"fan_triplets[{i}] duplicates a pair", address=f"fan_triplets[{i}]")
            raw = record.get("triplet")
            slots[member, entry] = _known(raw, canonical) or _canonical_triplet(
                raw, lambda: f"fan_triplets[{i}].triplet", canonical
            )
        for (member, entry), triplet in slots.items():
            if triplet is None:
                raise SchemaError(
                    f"fan_triplets is missing the pair (member {member}, entry {entry})",
                    address=f"fan_triplets({member},{entry})",
                )
        out["fan_triplets"] = [
            {"member": member, "entry": entry, "triplet": triplet} for (member, entry), triplet in slots.items()
        ]
    return out


def validate_document(doc: dict) -> dict:
    """Validate a raw document and return its canonical form.

    Canonical means: triplets in lowest terms, tree strings closed under
    prefixes and sorted, zorn members element-sorted, fan tables in fan
    order.  Exactly one of an explicit table or an ``rng`` block must be
    present.  The result also carries the tree or inclusion family that
    validation built (see ``_Canonical``), which the builders below take.
    """
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {list(KINDS)}", address="kind")
    table_key = "fan_triplets" if kind == "zorn" else "assignment"
    has_rng = "rng" in doc
    if (table_key in doc) == has_rng:
        raise SchemaError(f"exactly one of '{table_key}' or 'rng' must be present", address=table_key)
    if kind == "family":
        out = _validate_family(doc)
    elif kind == "tree":
        out = _validate_tree(doc)
    else:
        out = _validate_zorn(doc)
    if has_rng:
        out["rng"] = _validate_rng(doc["rng"])
    return out


def generate_assignment(doc: dict) -> dict:
    """Replace a document's ``rng`` block with an explicit triplet table.

    Triplets are drawn in canonical order (family: set order then element
    order; tree: level then lexicographic; zorn: fan-pair order), so a seed
    fully determines the output document.
    """
    doc = validate_document(doc)
    block = doc.pop("rng", None)
    if block is None:
        raise SchemaError("document has no rng block to generate from", address="rng")
    denominator_bound = block["denominator_bound"]
    if denominator_bound < MIN_DENOMINATOR_BOUND:
        raise BoundTooSmallError(
            f"denominator bound must be at least {MIN_DENOMINATOR_BOUND}, got {denominator_bound}",
            address="rng.denominator_bound",
        )
    rng = random.Random(block["seed"])

    def draw() -> list[str]:
        return random_triplet(rng, denominator_bound).serialize()

    if doc["kind"] == "family":
        doc["assignment"] = [
            {element: draw() for element in raw_set} for raw_set in doc["sets"]
        ]
    elif doc["kind"] == "tree":
        doc["assignment"] = {node: draw() for node in doc["strings"]}
    else:
        # the family validation just built; a document without one builds its own
        family = doc.built if doc.built is not None else zorn_family(doc)
        doc["fan_triplets"] = [
            {"member": member, "entry": entry, "triplet": draw()}
            for member, entry in zorn_mod.fan_pairs(family)
        ]
    return doc


def family_choice(doc: dict) -> NeutroChoice:
    """Build the core choice object from a canonical family document."""
    family = SetFamily(sets=doc["sets"])
    triplets = {
        (i, element): values
        for i, table in enumerate(doc["assignment"])
        for element, values in table.items()
    }
    return build_choice(family, triplets)


def tree_choice(doc: dict, horizon_override: int | None = None) -> tree_mod.TreeChoice:
    """Build the core tree-choice object from a canonical tree document.

    The tree is validation's while it has the horizon in use and the
    document's strings are still its nodes in canonical order; another
    horizon builds a new tree, which checks the depth of every string.
    """
    horizon = horizon_override if horizon_override is not None else doc["horizon"]
    built = _take_built(doc)
    if not (
        isinstance(built, tree_mod.Tree)
        and built.horizon == horizon
        and list(chain.from_iterable(built.levels.values())) == doc["strings"]
    ):
        built = tree_mod.build_tree(doc["strings"], horizon)
    return tree_mod.build_tree_choice(built, doc["assignment"])


def zorn_family(doc: dict) -> ZornFamily:
    """The inclusion family of a zorn document's ``members`` list: the one
    validation built, with its fan table, while its members are still those."""
    family = ZornFamily(members=doc["members"])
    built = _take_built(doc)
    return built if built == family else family


def zorn_inputs(doc: dict) -> tuple[ZornFamily, dict]:
    """Build the family and fan-triplet table from a canonical zorn document."""
    family = zorn_family(doc)
    raw = {(record["member"], record["entry"]): record["triplet"] for record in doc["fan_triplets"]}
    return family, triplet_table(raw, raw, zorn_mod._fan_where)


def report_to_json(report: MaximalReport) -> dict:
    return {
        "maximal": list(report.maximal_indices),
        "successors": [
            {
                "member": base_index,
                "successor": entry.successor_index,
                "provenance": entry.provenance.value,
            }
            for base_index, entry in sorted(report.successors.items())
        ],
    }


def report_from_json(raw: Any) -> MaximalReport:
    if not isinstance(raw, dict):
        raise SchemaError("report must be an object", address="report")
    maximal = raw.get("maximal")
    successors = raw.get("successors")
    if not (isinstance(maximal, list) and all(_is_int(i) for i in maximal)):
        raise SchemaError("report.maximal must list member indices", address="report.maximal")
    if not isinstance(successors, list):
        raise SchemaError("report.successors must be a list", address="report.successors")
    entries: dict[int, SuccessorEntry] = {}
    for i, record in enumerate(successors):
        if not isinstance(record, dict):
            raise SchemaError(f"successors[{i}] must be an object", address=f"report.successors[{i}]")
        member = record.get("member")
        successor = record.get("successor")
        provenance = record.get("provenance")
        if not (_is_int(member) and _is_int(successor)):
            raise SchemaError(f"successors[{i}] needs integer 'member' and 'successor'", address=f"report.successors[{i}]")
        if provenance not in ("direct", "compensated"):
            raise SchemaError(
                f"successors[{i}].provenance must be 'direct' or 'compensated'",
                address=f"report.successors[{i}].provenance",
            )
        if member in entries:
            raise SchemaError(f"successors[{i}] duplicates member {member}", address=f"report.successors[{i}]")
        entries[member] = SuccessorEntry(
            successor_index=successor, provenance=Provenance(provenance)
        )
    return MaximalReport(maximal_indices=tuple(maximal), successors=entries)


def trace_to_json(trace: tree_mod.PathTrace) -> dict:
    return {
        "stages": [
            {
                "stage": stage.index,
                "node": stage.node,
                "kind": stage.kind.value,
                "compensator": stage.compensator,
            }
            for stage in trace.stages
        ],
        "final_path": trace.final_path,
    }


def plan_to_json(plan) -> dict:
    return {
        "pairs": [
            {
                "recipient_index": pair.recipient_index,
                "compensated": pair.compensated,
                "compensator": pair.compensator,
                "donor_index": pair.donor_index,
            }
            for pair in plan.pairs
        ],
        "marks": [{"set": index, "element": element} for index, element in plan.marks],
    }


def _string_list(items: list | tuple, pad: str) -> str:
    """The ``indent=2`` text of a non-empty list of strings on a line indented
    by ``pad``; the escaper raises ``TypeError`` on an item that is not one."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(map(_escape, items)) + "\n" + pad + "]"


def _render(value: Any, pad: str, out: list[str], texts: dict[tuple, str]) -> None:
    """Append the ``indent=2`` text of ``value``, on a line indented by ``pad``, to ``out``.

    ``texts`` keeps the text of every list of strings met as a dict value
    (a document's triplets), keyed by its line's indentation and its items.
    A key is stored only once the escaper has taken every item, so as a
    ``str``: ``["a", 1]`` and ``["a", True]`` are equal tuples, and neither
    is ever stored.
    """
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead, sep = "{\n" + inner, ",\n" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
                key = json.dumps(key)
            out.append(lead + _escape(key) + ": ")
            lead = sep
            kind = type(item)
            if kind is str:
                out.append(_escape(item))
            elif kind is int:
                out.append(int.__repr__(item))
            elif kind is list and item and type(item[0]) is str:
                memo_key = (inner, *item)
                try:
                    text = texts.get(memo_key)
                    if text is None:
                        text = texts[memo_key] = _string_list(item, inner)
                except TypeError:  # an unhashable item, or one the escaper rejects
                    _render(item, inner, out, texts)
                else:
                    out.append(text)
            else:
                _render(item, inner, out, texts)
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if type(value[0]) is str:
            try:  # the escaper rejects a non-string item, and the loop below takes over
                out.append(_string_list(value, pad))
                return
            except TypeError:
                pass
        inner = pad + "  "
        lead, sep = "[\n" + inner, ",\n" + inner
        for item in value:
            out.append(lead)
            lead = sep
            _render(item, inner, out, texts)
        out.append("\n" + pad + "]")
    else:
        out.append("null" if value is None else json.dumps(value))


def dumps_canonical(payload: dict) -> str:
    """The bytes of ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline.

    Keys are sorted, items sit one per line indented by two spaces, and
    every string is ASCII-escaped by the C escaper that ``json`` itself
    uses; every other leaf but ``null`` and a dict's ``int`` values takes
    its text from ``json.dumps``.  CPython's C encoder serves only ``indent=None``, so this walks
    the payload here rather than in the pure-Python encoder; a value
    ``json.dumps`` rejects raises the same ``TypeError``.
    """
    out: list[str] = []
    _render(payload, "", out, {})
    out.append("\n")
    return "".join(out)
