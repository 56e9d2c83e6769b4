"""Correctness gates: an op counts only if its outcome is right.

Every op is keyed by its command, flags and input bytes.  Its outcome is
``"<exit>:<sha256 of stdout>"`` on success and ``"<exit>:<diagnostic
type>"`` on a structured failure, so error-message bytes never enter the
digest.  ``reference.json`` holds the seed commit's outcome for every
pool op; an op whose outcome differs fails, as does one that raises, exits
with the wrong status or type, or fails its semantic check.

The semantic checks re-verify results from scratch: the library's own
``verify_plan`` / ``verify_trace`` / ``verify_report``, plus checks written
here with plain ``Fraction`` arithmetic (partition cover, verdicts,
compensation capacity, product status, maximal members, generated tables).
Library verifiers are looked up on their modules at call time, so a traced
run sees the calls.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from neutrochoice import documents, family, tree, zorn
from neutrochoice.errors import NeutroChoiceError
from neutrochoice.family import CompensationPair, CompensationPlan
from neutrochoice.tree import PathTrace, Stage, StepKind

VERDICTS = ("chosen", "not_chosen", "indeterminate")


def op_key(argv: tuple[str, ...], document: bytes) -> str:
    """Identity of an op: its command and flags plus the input bytes."""
    h = hashlib.sha256("\0".join(argv).encode())
    h.update(b"\0")
    h.update(document)
    return h.hexdigest()[:24]


def outcome(exit_code: int, output: bytes) -> str:
    if exit_code == 0:
        return f"0:{hashlib.sha256(output).hexdigest()[:24]}"
    try:
        kind = json.loads(output)["diagnostics"][0]["type"]
    except (ValueError, KeyError, IndexError, TypeError):
        kind = "<no diagnostic>"
    return f"{exit_code}:{kind}"


def status_failure(op, exit_code, crash, output: bytes) -> str | None:
    """Whether the op ended the way its document was built to end."""
    if crash is not None:
        return f"raised {crash}"
    if exit_code != op.expect_exit:
        return f"exit {exit_code}, expected {op.expect_exit}"
    if exit_code != 0 and outcome(exit_code, output) != f"{exit_code}:{op.expect_type}":
        return f"diagnostic {outcome(exit_code, output)}, expected {op.expect_type}"
    return None


def gate(op, exit_code, crash, output: bytes, expected: str | None) -> str | None:
    """Cheap per-op gate; returns the failure reason or None."""
    failure = status_failure(op, exit_code, crash, output)
    if failure is not None:
        return failure
    if expected is None:
        return "no seed-commit outcome recorded for this input"
    got = outcome(exit_code, output)
    if got != expected:
        return f"outcome {got} differs from the seed commit's {expected}"
    return None


# ------------------------------------------------------------ semantic checks


def _verdict(raw: list[str]) -> str:
    i, j, k = (Fraction(x) for x in raw)
    if i > j and i > k:
        return "chosen"
    if j > i and j > k:
        return "not_chosen"
    return "indeterminate"


def _family_verdicts(doc: dict) -> list[dict[str, str]]:
    return [{e: _verdict(t) for e, t in table.items()} for table in doc["assignment"]]


def _check_partition(doc, out, argv):
    parts = out["outputs"]["partitions"]
    if len(parts) != len(doc["sets"]):
        return "partition count differs from the set count"
    for i, (elements, part, verdicts) in enumerate(zip(doc["sets"], parts, _family_verdicts(doc))):
        listed = [e for name in VERDICTS for e in part[name]]
        if len(listed) != len(set(listed)) or sorted(listed) != sorted(elements):
            return f"set {i}: parts are not a disjoint cover of the set"
        for name in VERDICTS:
            if any(verdicts[e] != name for e in part[name]):
                return f"set {i}: an element sits in the wrong part {name!r}"
    return None


def _check_classify(doc, out, argv):
    got = out["outputs"]["verdicts"]
    if "--threshold" in argv:
        t = Fraction(argv[argv.index("--threshold") + 1])
        want = [
            {e: "chosen_at_threshold" if Fraction(v[0]) >= t else "not_chosen_at_threshold" for e, v in table.items()}
            for table in doc["assignment"]
        ]
    else:
        want = _family_verdicts(doc)
    return None if got == want else "a verdict differs from the triplet's maximum"


def _empty_and_capacity(doc) -> tuple[list[int], int]:
    chosen = [sum(v == "chosen" for v in table.values()) for table in _family_verdicts(doc)]
    return [i for i, c in enumerate(chosen) if c == 0], sum(c - 1 for c in chosen if c >= 2)


def _check_compensation(doc, out, argv):
    empty, capacity = _empty_and_capacity(doc)
    holds = len(empty) <= capacity
    want = {"holds": holds, "uncompensatable": [] if holds else empty[capacity:]}
    return None if out["outputs"] == want else "compensation verdict disagrees with the capacity count"


def _check_product_status(doc, out, argv):
    verdicts = _family_verdicts(doc)
    status = out["outputs"]["status"]
    if all("chosen" in table.values() for table in verdicts):
        witness = []
        for elements, table in zip(doc["sets"], doc["assignment"]):
            picks = [e for e in elements if _verdict(table[e]) == "chosen"]
            witness.append(max(picks, key=lambda e: (Fraction(table[e][0]), -elements.index(e))))
        want = {"kind": "non_empty_witness", "witness": witness}
    elif any(set(table.values()) == {"indeterminate"} for table in verdicts):
        want = {"kind": "indeterminate", "witness": None}
    else:
        want = {"kind": "no_witness", "witness": None}
    return None if status == want else "product status disagrees with the partitions"


def _check_allocate(doc, out, argv):
    raw = out["outputs"]["plan"]
    plan = CompensationPlan(
        pairs=tuple(CompensationPair(**pair) for pair in raw["pairs"]),
        marks=tuple((mark["set"], mark["element"]) for mark in raw["marks"]),
    )
    choice = documents.family_choice(documents.validate_document(doc))
    return None if family.verify_plan(choice, plan) else "verify_plan rejects the plan"


def _check_generated(doc, out, argv):
    if out.get("kind") != "family" or "rng" in out or out.get("sets") != doc["sets"]:
        return "generated document does not keep the family and drop the rng block"
    bound = doc["rng"]["denominator_bound"]
    for elements, table in zip(doc["sets"], out["assignment"]):
        if sorted(table) != sorted(elements):
            return "generated table does not cover its set"
        for raw in table.values():
            values = [Fraction(x) for x in raw]
            if (
                sum(values) != 1
                or len(set(values)) != 3
                or any(not 0 <= v <= 1 or bound % v.denominator for v in values)
            ):
                return f"generated triplet {raw} is not a tie-free triplet over {bound}"
    return None


def _trace(raw: dict) -> PathTrace:
    return PathTrace(
        stages=tuple(
            Stage(index=s["stage"], node=s["node"], kind=StepKind(s["kind"]), compensator=s["compensator"])
            for s in raw["stages"]
        )
    )


def _tree_choice(doc):
    return documents.tree_choice(documents.validate_document(doc))


def _check_find_path(doc, out, argv):
    trace = _trace(out["outputs"]["trace"])
    if trace.final_path != out["outputs"]["trace"]["final_path"]:
        return "final_path is not the last stage's node"
    return None if tree.verify_trace(_tree_choice(doc), trace) else "verify_trace rejects the trace"


def _check_enumerate(doc, out, argv):
    count = int(argv[argv.index("--count") + 1])
    traces = [_trace(raw) for raw in out["outputs"]["traces"]]
    if len(traces) != count or len({t.final_path for t in traces}) != count:
        return f"expected {count} distinct paths"
    tc = _tree_choice(doc)
    for t in traces:
        if any(s.kind is not StepKind.CHOSEN_MAX for s in t.stages) or not tree.verify_trace(tc, t):
            return f"path {t.final_path!r} is not a verified chosen path"
    return None


def _check_find_maximal(doc, out, argv):
    raw = out["outputs"]["report"]
    members = [frozenset(m) for m in doc["members"]]
    maximal = [i for i, m in enumerate(members) if not any(m < other for other in members)]
    if raw["maximal"] != maximal:
        return "maximal members differ from the brute-force maximal members"
    if sorted(s["member"] for s in raw["successors"]) != sorted(set(range(len(members))) - set(maximal)):
        return "not every non-maximal member has exactly one successor"
    fam, _table = documents.zorn_inputs(documents.validate_document(doc))
    return None if zorn.verify_report(fam, documents.report_from_json(raw)) else "verify_report rejects the report"


def _check_verify_report(doc, out, argv):
    return None if out["outputs"] == {"valid": True} else "verify-report did not confirm the report"


CHECKS = {
    "partition": _check_partition,
    "classify": _check_classify,
    "check-compensation": _check_compensation,
    "product-status": _check_product_status,
    "allocate": _check_allocate,
    "generate-assignment": _check_generated,
    "find-path": _check_find_path,
    "enumerate-paths": _check_enumerate,
    "find-maximal": _check_find_maximal,
    "verify-report": _check_verify_report,
}


def semantic(argv: tuple[str, ...], document: bytes, output: bytes) -> str | None:
    """Re-verify a successful op's output; returns the failure reason or None."""
    try:
        return CHECKS[argv[0]](json.loads(document), json.loads(output), argv)
    except (NeutroChoiceError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"output is malformed: {type(exc).__name__}: {exc}"
