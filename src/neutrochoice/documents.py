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
import sys
from typing import Any, Callable

from .errors import NeutroChoiceError, ParseError, SchemaError
from . import tree as tree_mod
from . import zorn as zorn_mod
from .family import NeutroChoice, SetFamily, build_choice
from .triplet import Triplet, parse_triplet, random_triplet
from .zorn import MaximalReport, Provenance, SuccessorEntry, ZornFamily

KINDS = ("family", "tree", "zorn")


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
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
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    return doc


def _schema(condition: bool, message: str, address: str | None = None) -> None:
    if not condition:
        raise SchemaError(message, address=address)


def _reader() -> Callable[[Any], Triplet]:
    """Return a ``parse_triplet`` that parses each distinct triplet once.

    Documents repeat a few distinct triplets over thousands of entries, so
    one reader serves one validation or build call and is then dropped.
    Errors are not stored: a bad triplet raises afresh wherever it recurs.
    Only all-string triplets are stored, because ``"1/2"`` equals only
    strings while ``Fraction(1, 2)`` also equals the float ``0.5``.
    """
    parsed: dict[tuple, Triplet] = {}

    def read(values) -> Triplet:
        key = tuple(values)
        triplet = parsed.get(key)
        if triplet is None:
            triplet = parse_triplet(key)
            if all(isinstance(v, str) for v in key):
                parsed[key] = triplet
        return triplet

    return read


def _canonical_triplet(raw: Any, address: str, read: Callable[[Any], Triplet]) -> list[str]:
    _schema(isinstance(raw, list) and len(raw) == 3, "triplet must be a 3-item list", address)
    _schema(all(isinstance(v, str) for v in raw), "triplet components must be 'num/den' strings", address)
    try:
        return read(raw).serialize()
    except (NeutroChoiceError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid triplet at {address}: {exc}", address=address) from exc


def _is_int(value: Any) -> bool:
    """True for a JSON integer; ``bool`` subclasses ``int`` but is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate_rng(raw: Any) -> dict:
    _schema(isinstance(raw, dict), "rng must be an object", "rng")
    _schema(_is_int(raw.get("seed")), "rng.seed must be an integer", "rng.seed")
    bound = raw.get("denominator_bound")
    _schema(_is_int(bound), "rng.denominator_bound must be an integer", "rng.denominator_bound")
    # the sampler draws from range(bound + 2), whose length must fit a C ssize_t
    _schema(
        bound + 2 <= sys.maxsize,
        f"rng.denominator_bound must be at most {sys.maxsize - 2}",
        "rng.denominator_bound",
    )
    return {"seed": raw["seed"], "denominator_bound": bound}


def _validate_family(doc: dict) -> dict:
    sets = doc.get("sets")
    _schema(isinstance(sets, list) and sets, "family document needs a non-empty 'sets' list", "sets")
    out_sets = []
    for i, raw_set in enumerate(sets):
        _schema(isinstance(raw_set, list) and raw_set, f"set {i} must be a non-empty list", f"sets[{i}]")
        _schema(all(isinstance(e, str) for e in raw_set), f"set {i} elements must be strings", f"sets[{i}]")
        _schema(len(set(raw_set)) == len(raw_set), f"set {i} lists a duplicate element", f"sets[{i}]")
        out_sets.append(list(raw_set))
    out: dict = {"kind": "family", "sets": out_sets}
    if "assignment" in doc:
        assignment = doc["assignment"]
        _schema(
            isinstance(assignment, list) and len(assignment) == len(out_sets),
            "assignment must list one object per set",
            "assignment",
        )
        out_assignment = []
        read = _reader()
        for i, (raw_set, table) in enumerate(zip(out_sets, assignment)):
            _schema(isinstance(table, dict), f"assignment[{i}] must be an object", f"assignment[{i}]")
            for element in raw_set:
                _schema(
                    element in table,
                    f"assignment[{i}] is missing element {element!r}",
                    f"assignment[{i}][{element!r}]",
                )
            _schema(
                set(table) == set(raw_set),
                f"assignment[{i}] names elements outside set {i}",
                f"assignment[{i}]",
            )
            out_assignment.append(
                {
                    element: _canonical_triplet(table[element], f"assignment[{i}][{element!r}]", read)
                    for element in raw_set
                }
            )
        out["assignment"] = out_assignment
    return out


def _validate_tree(doc: dict) -> dict:
    strings = doc.get("strings")
    horizon = doc.get("horizon")
    _schema(isinstance(strings, list), "tree document needs a 'strings' list", "strings")
    _schema(
        _is_int(horizon) and horizon >= 1,
        "horizon must be a positive integer",
        "horizon",
    )
    for i, s in enumerate(strings):
        _schema(isinstance(s, str) and all(b in "01" for b in s), f"strings[{i}] must be a binary string", f"strings[{i}]")
        _schema(len(s) <= horizon, f"strings[{i}] is longer than the horizon", f"strings[{i}]")
    closure = sorted(
        tree_mod.build_tree(strings, horizon).nodes, key=lambda n: (len(n), n)
    )
    out: dict = {"kind": "tree", "strings": closure, "horizon": horizon}
    if "assignment" in doc:
        table = doc["assignment"]
        _schema(isinstance(table, dict), "assignment must be an object", "assignment")
        for node in closure:
            _schema(node in table, f"assignment is missing node {node!r}", f"assignment[{node!r}]")
        _schema(set(table) == set(closure), "assignment names nodes outside the tree", "assignment")
        read = _reader()
        out["assignment"] = {
            node: _canonical_triplet(table[node], f"assignment[{node!r}]", read) for node in closure
        }
    return out


def _validate_zorn(doc: dict) -> dict:
    members = doc.get("members")
    _schema(isinstance(members, list) and members, "zorn document needs a non-empty 'members' list", "members")
    out_members = []
    for i, raw in enumerate(members):
        _schema(isinstance(raw, list), f"members[{i}] must be a list", f"members[{i}]")
        _schema(all(isinstance(e, str) for e in raw), f"members[{i}] elements must be strings", f"members[{i}]")
        _schema(len(set(raw)) == len(raw), f"members[{i}] lists a duplicate element", f"members[{i}]")
        out_members.append(sorted(raw))
    _schema(
        len({frozenset(m) for m in out_members}) == len(out_members),
        "members must be distinct as sets",
        "members",
    )
    out: dict = {"kind": "zorn", "members": out_members}
    family = zorn_family(out)
    pairs = zorn_mod.fan_pairs(family)
    pair_set = set(pairs)
    if "fan_triplets" in doc:
        raw_table = doc["fan_triplets"]
        _schema(isinstance(raw_table, list), "fan_triplets must be a list", "fan_triplets")
        seen: dict[tuple[int, int], list[str]] = {}
        read = _reader()
        for i, record in enumerate(raw_table):
            _schema(isinstance(record, dict), f"fan_triplets[{i}] must be an object", f"fan_triplets[{i}]")
            member = record.get("member")
            entry = record.get("entry")
            _schema(
                _is_int(member) and _is_int(entry),
                f"fan_triplets[{i}] needs integer 'member' and 'entry' indices",
                f"fan_triplets[{i}]",
            )
            _schema(
                (member, entry) in pair_set,
                f"fan_triplets[{i}]: member {entry} is not a strict superset of member {member}",
                f"fan_triplets[{i}]",
            )
            _schema((member, entry) not in seen, f"fan_triplets[{i}] duplicates a pair", f"fan_triplets[{i}]")
            seen[(member, entry)] = _canonical_triplet(
                record.get("triplet"), f"fan_triplets[{i}].triplet", read
            )
        for pair in pairs:
            _schema(
                pair in seen,
                f"fan_triplets is missing the pair (member {pair[0]}, entry {pair[1]})",
                f"fan_triplets({pair[0]},{pair[1]})",
            )
        out["fan_triplets"] = [
            {"member": member, "entry": entry, "triplet": seen[(member, entry)]}
            for member, entry in pairs
        ]
    return out


def validate_document(doc: dict) -> dict:
    """Validate a raw document and return its canonical form.

    Canonical means: triplets in lowest terms, tree strings closed under
    prefixes and sorted, zorn members element-sorted, fan tables in fan
    order.  Exactly one of an explicit table or an ``rng`` block must be
    present.
    """
    kind = doc.get("kind")
    _schema(kind in KINDS, f"kind must be one of {list(KINDS)}", "kind")
    table_key = "fan_triplets" if kind == "zorn" else "assignment"
    has_table = table_key in doc
    has_rng = "rng" in doc
    _schema(
        has_table != has_rng,
        f"exactly one of '{table_key}' or 'rng' must be present",
        table_key,
    )
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
    _schema("rng" in doc, "document has no rng block to generate from", "rng")
    rng = random.Random(doc["rng"]["seed"])
    denominator_bound = doc["rng"]["denominator_bound"]

    def draw() -> list[str]:
        return random_triplet(rng, denominator_bound).serialize()

    out = {key: value for key, value in doc.items() if key != "rng"}
    if doc["kind"] == "family":
        out["assignment"] = [
            {element: draw() for element in raw_set} for raw_set in doc["sets"]
        ]
    elif doc["kind"] == "tree":
        out["assignment"] = {node: draw() for node in doc["strings"]}
    else:
        family = zorn_family(doc)
        out["fan_triplets"] = [
            {"member": member, "entry": entry, "triplet": draw()}
            for member, entry in zorn_mod.fan_pairs(family)
        ]
    return out


def family_choice(doc: dict) -> NeutroChoice:
    """Build the core choice object from a canonical family document."""
    family = SetFamily(sets=tuple(tuple(s) for s in doc["sets"]))
    read = _reader()
    triplets = {
        (i, element): read(values)
        for i, table in enumerate(doc["assignment"])
        for element, values in table.items()
    }
    return build_choice(family, triplets)


def tree_choice(doc: dict, horizon_override: int | None = None) -> tree_mod.TreeChoice:
    """Build the core tree-choice object from a canonical tree document."""
    horizon = horizon_override if horizon_override is not None else doc["horizon"]
    built = tree_mod.build_tree(doc["strings"], horizon)
    read = _reader()
    triplets = {node: read(values) for node, values in doc["assignment"].items()}
    return tree_mod.build_tree_choice(built, triplets)


def zorn_family(doc: dict) -> ZornFamily:
    """Build the inclusion family of a zorn document's ``members`` list."""
    return ZornFamily(members=tuple(frozenset(m) for m in doc["members"]))


def zorn_inputs(doc: dict) -> tuple[ZornFamily, dict]:
    """Build the family and fan-triplet table from a canonical zorn document."""
    family = zorn_family(doc)
    read = _reader()
    table = {
        (record["member"], record["entry"]): read(record["triplet"])
        for record in doc["fan_triplets"]
    }
    return family, table


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
    _schema(isinstance(raw, dict), "report must be an object", "report")
    maximal = raw.get("maximal")
    successors = raw.get("successors")
    _schema(
        isinstance(maximal, list) and all(_is_int(i) for i in maximal),
        "report.maximal must list member indices",
        "report.maximal",
    )
    _schema(isinstance(successors, list), "report.successors must be a list", "report.successors")
    entries: dict[int, SuccessorEntry] = {}
    for i, record in enumerate(successors):
        _schema(isinstance(record, dict), f"successors[{i}] must be an object", f"report.successors[{i}]")
        member = record.get("member")
        successor = record.get("successor")
        provenance = record.get("provenance")
        _schema(
            _is_int(member) and _is_int(successor),
            f"successors[{i}] needs integer 'member' and 'successor'",
            f"report.successors[{i}]",
        )
        _schema(
            provenance in ("direct", "compensated"),
            f"successors[{i}].provenance must be 'direct' or 'compensated'",
            f"report.successors[{i}].provenance",
        )
        _schema(member not in entries, f"successors[{i}] duplicates member {member}", f"report.successors[{i}]")
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


def dumps_canonical(payload: dict) -> str:
    """Deterministic JSON rendering: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
