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
from typing import Any, Callable, NamedTuple

from .errors import BoundTooSmallError, NeutroChoiceError, ParseError, SchemaError
from . import tree as tree_mod
from . import zorn as zorn_mod
from .family import NeutroChoice, SetFamily, build_choice
from .triplet import MIN_DENOMINATOR_BOUND, Triplet, parse_triplet, random_triplet
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
        raise ParseError(f"cannot read {path}: {exc}", address="document") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path} is not UTF-8 text: {exc.reason}", address=f"byte {exc.start}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests arrays or objects too deeply to parse", address="document") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path} is not valid JSON: {exc.msg}",
            address=f"line {exc.lineno}, column {exc.colno}",
        ) from exc
    except ValueError as exc:  # an integer literal past Python's int-string digit limit
        raise ParseError(f"cannot parse {path}: {exc}", address=_over_long_integer(text)) from exc
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object", address="document")
    return doc


def _known(raw: Any, seen: dict) -> tuple[list[str], Triplet] | None:
    """Canonical strings and ``Triplet`` of an entry ``_canonical_triplet``
    has accepted in this call, or None.

    Only a list can hit: ``tuple()`` of an object with the same three
    string keys would equal a stored key.  An unhashable item is a miss,
    which ``_canonical_triplet`` then rejects.
    """
    if isinstance(raw, list):
        try:
            known = seen.get(tuple(raw))
        except TypeError:
            return None
        if known is not None:
            return list(known[0]), known[1]
    return None


def _canonical_triplet(raw: Any, where: Callable[[], str], seen: dict) -> tuple[list[str], Triplet]:
    """Canonical strings and ``Triplet`` of one triplet entry, stored in
    ``seen`` under its raw strings once valid; ``where()`` names it, on
    failure only."""
    if not (isinstance(raw, list) and len(raw) == 3):
        raise SchemaError("triplet must be a 3-item list", address=where())
    if not all(isinstance(v, str) for v in raw):
        raise SchemaError("triplet components must be 'num/den' strings", address=where())
    try:
        triplet = parse_triplet(raw)
    except (NeutroChoiceError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid triplet at {where()}: {exc}", address=where()) from exc
    strings = triplet.serialize()
    seen[tuple(raw)] = (tuple(strings), triplet)
    return strings, triplet


class Core(NamedTuple):
    """What validation built from a canonical document: its structure and
    its ``Triplet`` table, keyed as the structure's engine reads it (None
    for an ``rng`` document)."""

    structure: SetFamily | tree_mod.Tree | ZornFamily
    triplets: dict | None


class _Canonical(dict):
    """A canonical document, carrying its :class:`Core` as the attribute
    ``core``, not as a key: it serializes and compares as the plain dict."""

    def __init__(self, items: dict, core: Core) -> None:
        super().__init__(items)
        self.core = core


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


def _validate_family(doc: dict) -> tuple[dict, Core]:
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
    out = {"kind": "family", "sets": out_sets}
    triplets = None
    if "assignment" in doc:
        assignment = doc["assignment"]
        if not (isinstance(assignment, list) and len(assignment) == len(out_sets)):
            raise SchemaError("assignment must list one object per set", address="assignment")
        out_assignment = []
        triplets, seen = {}, {}
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
            out_table = {}
            for element in raw_set:
                out_table[element], triplets[i, element] = _known(table[element], seen) or _canonical_triplet(
                    table[element], lambda: f"assignment[{i}][{element!r}]", seen
                )
            out_assignment.append(out_table)
        out["assignment"] = out_assignment
    return out, Core(SetFamily(sets=out_sets), triplets)


def _validate_tree(doc: dict) -> tuple[dict, Core]:
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
    out = {"kind": "tree", "strings": closure, "horizon": horizon}
    triplets = None
    if "assignment" in doc:
        table = doc["assignment"]
        if not isinstance(table, dict):
            raise SchemaError("assignment must be an object", address="assignment")
        for node in closure:
            if node not in table:
                raise SchemaError(f"assignment is missing node {node!r}", address=f"assignment[{node!r}]")
        if len(table) != len(closure):
            raise SchemaError("assignment names nodes outside the tree", address="assignment")
        out_table, triplets, seen = {}, {}, {}
        for node in closure:
            out_table[node], triplets[node] = _known(table[node], seen) or _canonical_triplet(
                table[node], lambda: f"assignment[{node!r}]", seen
            )
        out["assignment"] = out_table
    return out, Core(tree, triplets)


#: what ``_validate_zorn``'s slot table gives for a pair that is not a fan pair
_NOT_A_FAN_PAIR = object()


def _validate_zorn(doc: dict) -> tuple[dict, Core]:
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
    out = {"kind": "zorn", "members": out_members}
    triplets = None
    if "fan_triplets" in doc:
        raw_table = doc["fan_triplets"]
        if not isinstance(raw_table, list):
            raise SchemaError("fan_triplets must be a list", address="fan_triplets")
        # fan order; each slot holds its pair's triplet once one is read
        slots: dict[tuple[int, int], list[str] | None] = dict.fromkeys(zorn_mod.fan_pairs(family))
        triplets, seen = {}, {}
        for i, record in enumerate(raw_table):
            if not isinstance(record, dict):
                raise SchemaError(f"fan_triplets[{i}] must be an object", address=f"fan_triplets[{i}]")
            member, entry = record.get("member"), record.get("entry")
            # a bool index would hash and compare as its int, so this check alone keeps it out
            if not ((type(member) is int or _is_int(member)) and (type(entry) is int or _is_int(entry))):
                raise SchemaError(
                    f"fan_triplets[{i}] needs integer 'member' and 'entry' indices", address=f"fan_triplets[{i}]"
                )
            pair = member, entry
            slot = slots.get(pair, _NOT_A_FAN_PAIR)
            if slot is _NOT_A_FAN_PAIR:
                raise SchemaError(
                    f"fan_triplets[{i}]: member {entry} is not a strict superset of member {member}",
                    address=f"fan_triplets[{i}]",
                )
            if slot is not None:
                raise SchemaError(f"fan_triplets[{i}] duplicates a pair", address=f"fan_triplets[{i}]")
            raw = record.get("triplet")
            slots[pair], triplets[pair] = _known(raw, seen) or _canonical_triplet(
                raw, lambda: f"fan_triplets[{i}].triplet", seen
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
    return out, Core(family, triplets)


def validate_document(doc: dict) -> dict:
    """Validate a raw document and return its canonical form.

    Canonical means: triplets in lowest terms, tree strings closed under
    prefixes and sorted, zorn members element-sorted, fan tables in fan
    order.  Exactly one of an explicit table or an ``rng`` block must be
    present.  The result also carries, as its attribute ``core``, the
    structure and ``Triplet`` table validation built (see :class:`Core`),
    which the CLI runs its command on.
    """
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {list(KINDS)}", address="kind")
    table_key = "fan_triplets" if kind == "zorn" else "assignment"
    has_rng = "rng" in doc
    if (table_key in doc) == has_rng:
        raise SchemaError(f"exactly one of '{table_key}' or 'rng' must be present", address=table_key)
    if kind == "family":
        out, core = _validate_family(doc)
    elif kind == "tree":
        out, core = _validate_tree(doc)
    else:
        out, core = _validate_zorn(doc)
    if has_rng:
        out["rng"] = _validate_rng(doc["rng"])
    return _Canonical(out, core)


def generate_assignment(doc: dict) -> dict:
    """Replace a document's ``rng`` block with an explicit triplet table.

    Triplets are drawn in canonical order (family: set order then element
    order; tree: level then lexicographic; zorn: fan-pair order), so a seed
    fully determines the output document.  The drawn ``Triplet``s become
    the document's ``core`` table, so nothing parses them again.
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
    triplets: dict = {}

    def draw(key) -> list[str]:
        triplets[key] = triplet = random_triplet(rng, denominator_bound)
        return triplet.serialize()

    if doc["kind"] == "family":
        doc["assignment"] = [
            {element: draw((i, element)) for element in raw_set} for i, raw_set in enumerate(doc["sets"])
        ]
    elif doc["kind"] == "tree":
        doc["assignment"] = {node: draw(node) for node in doc["strings"]}
    else:
        doc["fan_triplets"] = [
            {"member": member, "entry": entry, "triplet": draw((member, entry))}
            for member, entry in zorn_mod.fan_pairs(doc.core.structure)
        ]
    doc.core = Core(doc.core.structure, triplets)
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


def tree_choice(doc: dict) -> tree_mod.TreeChoice:
    """Build the core tree-choice object from a canonical tree document."""
    return tree_mod.build_tree_choice(tree_mod.build_tree(doc["strings"], doc["horizon"]), doc["assignment"])


def zorn_family(doc: dict) -> ZornFamily:
    """The inclusion family of a zorn document's ``members`` list."""
    return ZornFamily(members=doc["members"])


def zorn_inputs(doc: dict) -> tuple[ZornFamily, dict]:
    """The family and the raw fan entries of a canonical zorn document, by
    ``(member, entry)`` pair; :func:`zorn.find_maximal` parses the entries."""
    family = zorn_family(doc)
    return family, {(record["member"], record["entry"]): record["triplet"] for record in doc["fan_triplets"]}


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


def _key_plan(value: dict, inner: str, texts: dict[str, dict]) -> tuple[list[str], list[str], dict] | None:
    """The key plan of a dict whose items sit on lines indented by ``inner``:
    its keys in ``json.dumps(sort_keys=True)`` order, the text that leads
    each key's item (its ``{`` or ``,`` line break and its escaped
    ``"key": ``), and ``texts``' string-list memo for that indentation.
    None unless every key is a ``str``, which the escaper checks: equal key
    sets of other types can render differently
    (``{True: 0}.keys() == {1: 0}.keys()``)."""
    try:  # sorting mixed keys, or escaping one that is not a str, raises
        keys = sorted(value)
        # escaped text is ASCII with every control character spelled out, so NUL can split it
        text = (": \0,\n" + inner).join(map(_escape, keys))
    except TypeError:
        return None
    return keys, ("{\n" + inner + text + ": ").split("\0"), texts.setdefault(inner, {})


def _render_dict(value: dict, pad: str, out: list[str], texts: dict[str, dict], plan: tuple | None = None) -> None:
    """Append the ``indent=2`` text of a non-empty dict, on a line indented by
    ``pad``, to ``out``: from its :func:`_key_plan` when one is given, else
    from its sorted items, each key checked as ``json.dumps`` checks it when
    it reaches it."""
    inner = pad + "  "
    if plan is None:
        entries, lead, sep = sorted(value.items()), "{\n" + inner, ",\n" + inner
        memo = texts.setdefault(inner, {})
    else:
        keys, heads, memo = plan
        entries = zip(heads, map(value.__getitem__, keys))
    for head, item in entries:
        if plan is None:  # ``head`` is still the key
            if not isinstance(head, str):
                if not (head is None or isinstance(head, (int, float))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {head.__class__.__name__}")
                head = json.dumps(head)
            head, lead = lead + _escape(head) + ": ", sep
        out.append(head)
        kind = type(item)
        if kind is str:
            out.append(_escape(item))
        elif kind is int:
            out.append(int.__repr__(item))
        elif kind is list and item and type(item[0]) is str:
            memo_key = tuple(item)
            try:
                text = memo.get(memo_key)
                if text is None:
                    text = memo[memo_key] = _string_list(item, inner)
            except TypeError:  # an unhashable item, or one the escaper rejects
                _render(item, inner, out, texts)
            else:
                out.append(text)
        else:
            _render(item, inner, out, texts)
    out.append("\n" + pad + "}")


def _render(value: Any, pad: str, out: list[str], texts: dict[str, dict]) -> None:
    """Append the ``indent=2`` text of ``value``, on a line indented by ``pad``, to ``out``.

    ``texts`` keeps, per indentation, the text of every list of strings met
    as a dict value (a document's triplets), keyed by its items.  A key is
    stored only once the escaper has taken every item, so as a ``str``:
    ``["a", 1]`` and ``["a", True]`` are equal tuples, and neither is ever
    stored.

    A run of list items that are plain dicts with the same keys (a fan
    table, a trace's stages) shares one :func:`_key_plan`, built for the
    run's first dict, which has its successor to compare with.  A ``dict``
    subclass is left out of runs: it may serve other items than its keys
    and values.  Later dicts match a plan's keys by ``==``, so only an
    object that is no ``str`` yet hashes and compares equal to one (which
    ``json.dumps`` rejects as a key) would be written as that string.
    """
    if isinstance(value, dict):
        if value:
            _render_dict(value, pad, out, texts)
        else:
            out.append("{}")
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
        keys = plan = None
        for item, following in zip(value, [*value[1:], None]):
            out.append(lead)
            lead = sep
            if type(item) is not dict or not item:
                _render(item, inner, out, texts)
                continue
            if plan is None or item.keys() != keys:
                keys, plan = item.keys(), None
                if type(following) is dict and following.keys() == keys:
                    plan = _key_plan(item, inner + "  ", texts)
            _render_dict(item, inner, out, texts, plan)
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
