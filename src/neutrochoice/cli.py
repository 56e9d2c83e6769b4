"""Command-line front end.

Every command reads one JSON document, dispatches to the corresponding
library operation, and emits one deterministic JSON result: identical
document, command, and seed always produce byte-identical output.  Module
errors surface as structured diagnostics with a nonzero exit status
(1 for operation errors, 2 for parse/schema errors).
"""

from __future__ import annotations

import argparse
import sys

from . import documents as docs  # build_choice is called as docs.build_choice, the name the traced bench wraps
from . import tree as tree_mod
from .errors import NeutroChoiceError, ParseError, SchemaError
from .family import allocate_compensators, check_compensation, partition_set, product_status
from .tree import TreeChoice, construct_path, enumerate_paths
from .triplet import as_rational, classify, classify_threshold, format_rational
from .zorn import find_maximal, verify_report

COMMANDS = (
    "classify",
    "partition",
    "check-compensation",
    "allocate",
    "product-status",
    "find-path",
    "enumerate-paths",
    "find-maximal",
    "verify-report",
    "generate-assignment",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutrochoice",
        description="Triplet-valued choice over set families, prefix trees, and inclusion families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("document", help="path to a JSON input document")
        cmd.add_argument("--seed", type=int, default=None, help="override the rng seed")
        cmd.add_argument("--bound", type=int, default=None, help="override the rng denominator bound")
        cmd.add_argument("--output", default=None, help="write the result here instead of stdout")
        if name == "classify":
            cmd.add_argument("--threshold", default=None, help="classify against a num/den threshold")
        if name in ("find-path", "enumerate-paths"):
            cmd.add_argument("--horizon", type=int, default=None, help="override the tree horizon")
        if name == "enumerate-paths":
            cmd.add_argument("--count", type=int, required=True, help="number of paths to enumerate")
    return parser


#: Built once: parsing leaves no state in the parser, so every call shares it.
_PARSER = _build_parser()


def _merged_rng_document(args) -> dict:
    raw = docs.load_document(args.document)
    if args.seed is not None or args.bound is not None:
        rng = raw.get("rng", {})
        if not isinstance(rng, dict):
            raise SchemaError("rng must be an object", address="rng")
        rng = dict(rng)
        if args.seed is not None:
            rng["seed"] = args.seed
        if args.bound is not None:
            rng["denominator_bound"] = args.bound
        raw = {**raw, "rng": rng}
    return raw


def _prepared_document(args) -> dict:
    raw = _merged_rng_document(args)
    if "rng" in raw:
        return docs.generate_assignment(raw)
    return docs.validate_document(raw)


def _tree_choice(doc: dict, horizon: int | None) -> TreeChoice:
    """The tree choice on validation's tree, or on one built to another ``--horizon``."""
    tree, triplets = doc.core
    if horizon is not None and horizon != tree.horizon:
        tree = tree_mod.build_tree(doc["strings"], horizon)
    return tree_mod.build_tree_choice(tree, triplets)


def _classify_outputs(doc: dict, threshold: str | None) -> dict:
    if threshold is not None:
        try:
            threshold = as_rational(threshold)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise SchemaError(f"invalid threshold {threshold!r}: {exc}", address="threshold") from exc

    def verdict(triplet) -> str:
        if threshold is None:
            return classify(triplet).value
        return classify_threshold(triplet, threshold).value

    if doc["kind"] == "family":
        choice = docs.build_choice(*doc.core)
        outputs: dict = {
            "verdicts": [
                {element: verdict(choice.triplet(i, element)) for element in raw_set}
                for i, raw_set in enumerate(doc["sets"])
            ]
        }
    elif doc["kind"] == "tree":
        tc = _tree_choice(doc, None)
        outputs = {"verdicts": {node: verdict(tc.assignment[node]) for node in doc["strings"]}}
    else:
        raise SchemaError("classify expects a family or tree document", address="kind")
    if threshold is not None:
        outputs["threshold"] = format_rational(threshold)
    return outputs


def _require_kind(doc: dict, kind: str, command: str) -> None:
    if doc["kind"] != kind:
        raise SchemaError(f"{command} expects a {kind} document, got {doc['kind']!r}", address="kind")


def _dispatch(args) -> dict:
    command = args.command
    if command == "generate-assignment":
        return docs.generate_assignment(_merged_rng_document(args))

    if command == "verify-report":
        for flag in ("seed", "bound"):  # a report check draws nothing
            if getattr(args, flag) is not None:
                raise SchemaError(f"verify-report takes no --{flag}", address=flag)
        raw = docs.load_document(args.document)
        if "kind" not in raw and "input" in raw:
            # a find-maximal result file: the echoed input carries the family
            for key in ("input", "outputs"):
                if not isinstance(raw.get(key, {}), dict):
                    raise SchemaError(f"a result file's '{key}' must be an object", address=key)
            report_raw = raw.get("outputs", {}).get("report")
            doc = docs.validate_document(raw["input"])
        else:
            report_raw = raw.pop("report", None)
            doc = docs.validate_document(raw)
        _require_kind(doc, "zorn", command)
        if report_raw is None:
            raise SchemaError("verify-report needs a 'report' to check", address="report")
        valid = verify_report(doc.core.structure, docs.report_from_json(report_raw))
        return {"command": command, "input": doc, "outputs": {"valid": valid}}

    if getattr(args, "count", None) is not None and args.count < 1:
        raise SchemaError(f"--count must be positive, got {args.count}", address="count")
    if getattr(args, "horizon", None) is not None and args.horizon < 1:
        raise SchemaError(f"--horizon must be positive, got {args.horizon}", address="horizon")
    doc = _prepared_document(args)
    if command == "classify":
        outputs = _classify_outputs(doc, args.threshold)
    elif command == "partition":
        _require_kind(doc, "family", command)
        choice = docs.build_choice(*doc.core)
        outputs = {
            "partitions": [
                {
                    "chosen": list(part.chosen),
                    "not_chosen": list(part.not_chosen),
                    "indeterminate": list(part.indeterminate),
                }
                for part in (
                    partition_set(choice, i) for i in range(len(choice.family))
                )
            ]
        }
    elif command == "check-compensation":
        _require_kind(doc, "family", command)
        report = check_compensation(docs.build_choice(*doc.core))
        outputs = {"holds": report.holds, "uncompensatable": list(report.uncompensatable)}
    elif command == "allocate":
        _require_kind(doc, "family", command)
        plan = allocate_compensators(docs.build_choice(*doc.core))
        outputs = {"plan": docs.plan_to_json(plan)}
    elif command == "product-status":
        _require_kind(doc, "family", command)
        status = product_status(docs.build_choice(*doc.core))
        outputs = {
            "status": {
                "kind": status.kind.value,
                "witness": list(status.witness) if status.witness is not None else None,
            }
        }
    elif command == "find-path":
        _require_kind(doc, "tree", command)
        trace = construct_path(_tree_choice(doc, args.horizon))
        outputs = {"trace": docs.trace_to_json(trace)}
    elif command == "enumerate-paths":
        _require_kind(doc, "tree", command)
        traces = enumerate_paths(_tree_choice(doc, args.horizon), args.count)
        outputs = {"traces": [docs.trace_to_json(trace) for trace in traces]}
    else:  # find-maximal: the sub-parsers admit only COMMANDS
        _require_kind(doc, "zorn", command)
        report = find_maximal(*doc.core)
        outputs = {"report": docs.report_to_json(report)}
    return {"command": command, "input": doc, "outputs": outputs}


def _diagnostic(command: str, exc: NeutroChoiceError) -> dict:
    return {
        "command": command,
        "diagnostics": [{"type": exc.code, "message": str(exc), "address": exc.address}],
    }


def _emit(payload: dict, output_path: str | None) -> None:
    text = docs.dumps_canonical(payload)
    if output_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {output_path}: {exc}", address="output") from exc


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        payload, status = _dispatch(args), 0
    except NeutroChoiceError as exc:
        payload = _diagnostic(args.command, exc)
        status = 2 if isinstance(exc, (ParseError, SchemaError)) else 1
    try:
        _emit(payload, args.output)
    except SchemaError as exc:  # the output file cannot be written: report on stdout
        _emit(_diagnostic(args.command, exc), None)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
