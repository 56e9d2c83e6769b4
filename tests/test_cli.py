from __future__ import annotations

import copy
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from neutrochoice import (
    CompensationPair,
    CompensationPlan,
    PathTrace,
    Stage,
    StepKind,
    verify_plan,
    verify_trace,
)
from neutrochoice.cli import main
from neutrochoice.documents import dumps_canonical, family_choice, tree_choice

PAPER_FAMILY = {
    "kind": "family",
    "sets": [["1", "2"], ["a", "b"], ["x", "y", "z"]],
    "assignment": [
        {"1": ["3/10", "6/10", "1/10"], "2": ["2/10", "7/10", "1/10"]},
        {"a": ["6/10", "3/10", "1/10"], "b": ["1/10", "7/10", "2/10"]},
        {
            "x": ["2/10", "7/10", "1/10"],
            "y": ["5/10", "3/10", "2/10"],
            "z": ["8/20", "7/20", "5/20"],
        },
    ],
}

CHAIN_TREE = {
    "kind": "tree",
    "strings": ["11"],
    "horizon": 2,
    "assignment": {
        "": ["6/10", "3/10", "1/10"],
        "1": ["6/10", "3/10", "1/10"],
        "11": ["5/10", "3/10", "2/10"],
    },
}

ZORN = {
    "kind": "zorn",
    "members": [[], ["1"], ["2"], ["1", "2"]],
    "fan_triplets": [
        {"member": 0, "entry": 1, "triplet": ["6/10", "3/10", "1/10"]},
        {"member": 0, "entry": 2, "triplet": ["5/10", "3/10", "2/10"]},
        {"member": 0, "entry": 3, "triplet": ["7/10", "2/10", "1/10"]},
        {"member": 1, "entry": 3, "triplet": ["6/10", "3/10", "1/10"]},
        {"member": 2, "entry": 3, "triplet": ["5/10", "3/10", "2/10"]},
    ],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps_canonical(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_partition_paper_family(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    code, payload = run(capsys, "partition", path)
    assert code == 0
    partitions = payload["outputs"]["partitions"]
    assert partitions[0]["chosen"] == []
    assert partitions[1]["chosen"] == ["a"]
    assert sorted(partitions[2]["chosen"]) == ["y", "z"]


def test_check_compensation_and_allocate(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    code, payload = run(capsys, "check-compensation", path)
    assert code == 0
    assert payload["outputs"] == {"holds": True, "uncompensatable": []}

    code, payload = run(capsys, "allocate", path)
    assert code == 0
    pairs = payload["outputs"]["plan"]["pairs"]
    assert len(pairs) == 1
    assert pairs[0]["compensated"] == "1"
    assert pairs[0]["compensator"] == "z"
    assert pairs[0]["donor_index"] == 2


def test_classify_reports_schema_error_with_address(tmp_path, capsys):
    bad = {
        "kind": "family",
        "sets": [["a"]],
        "assignment": [{"a": ["1/2", "1/4", "1/8"]}],
    }
    path = write_doc(tmp_path, "bad.json", bad)
    code, payload = run(capsys, "classify", path)
    assert code == 2
    diag = payload["diagnostics"][0]
    assert diag["type"] == "SchemaError"
    assert "'a'" in diag["message"]


def test_classify_threshold_mode(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    code, payload = run(capsys, "classify", path, "--threshold", "5/10")
    assert code == 0
    assert payload["outputs"]["threshold"] == "1/2"
    verdicts = payload["outputs"]["verdicts"]
    assert verdicts[1]["a"] == "chosen_at_threshold"
    assert verdicts[2]["z"] == "not_chosen_at_threshold"


def test_find_path_on_chain_tree(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    code, payload = run(capsys, "find-path", path)
    assert code == 0
    trace = payload["outputs"]["trace"]
    assert trace["final_path"] == "11"
    assert [s["kind"] for s in trace["stages"]] == ["chosen_max"] * 3


def test_enumerate_paths_requires_count(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    code, payload = run(capsys, "enumerate-paths", path, "--count", "1")
    assert code == 0
    assert payload["outputs"]["traces"][0]["final_path"] == "11"

    code, payload = run(capsys, "enumerate-paths", path, "--count", "2")
    assert code == 1
    assert payload["diagnostics"][0]["type"] == "InsufficientBranching"


def test_product_status_witness(tmp_path, capsys):
    doc = {
        "kind": "family",
        "sets": [["a", "b"]],
        "assignment": [
            {"a": ["6/10", "3/10", "1/10"], "b": ["1/10", "7/10", "2/10"]}
        ],
    }
    path = write_doc(tmp_path, "family.json", doc)
    code, payload = run(capsys, "product-status", path)
    assert code == 0
    assert payload["outputs"]["status"] == {
        "kind": "non_empty_witness",
        "witness": ["a"],
    }


def test_find_maximal_then_verify_report(tmp_path, capsys):
    path = write_doc(tmp_path, "zorn.json", ZORN)
    result_path = str(tmp_path / "result.json")
    code = main(["find-maximal", path, "--output", result_path])
    capsys.readouterr()
    assert code == 0
    result = json.loads(open(result_path).read())
    assert result["outputs"]["report"]["maximal"] == [3]

    code, payload = run(capsys, "verify-report", result_path)
    assert code == 0
    assert payload["outputs"] == {"valid": True}


def test_verify_report_accepts_embedded_report(tmp_path, capsys):
    doc = dict(ZORN)
    doc["report"] = {
        "maximal": [3],
        "successors": [
            {"member": 0, "successor": 3, "provenance": "direct"},
            {"member": 1, "successor": 3, "provenance": "direct"},
            {"member": 2, "successor": 3, "provenance": "direct"},
        ],
    }
    path = write_doc(tmp_path, "zorn.json", doc)
    code, payload = run(capsys, "verify-report", path)
    assert code == 0
    assert payload["outputs"] == {"valid": True}

    doc["report"]["maximal"] = [0]
    path = write_doc(tmp_path, "zorn_bad.json", doc)
    code, payload = run(capsys, "verify-report", path)
    assert code == 0
    assert payload["outputs"] == {"valid": False}


def test_generate_assignment_roundtrip(tmp_path, capsys):
    doc = {
        "kind": "family",
        "sets": [["a", "b"], ["c"]],
        "rng": {"seed": 7, "denominator_bound": 12},
    }
    path = write_doc(tmp_path, "family.json", doc)
    code, generated = run(capsys, "generate-assignment", path)
    assert code == 0
    assert "rng" not in generated
    # the generated document is a valid explicit input
    generated_path = write_doc(tmp_path, "generated.json", generated)
    code, payload = run(capsys, "partition", generated_path)
    assert code == 0
    assert len(payload["outputs"]["partitions"]) == 2


def test_seeded_commands_are_deterministic(tmp_path, capsys):
    doc = {
        "kind": "family",
        "sets": [["a", "b", "c"], ["d", "e"]],
        "rng": {"seed": 3, "denominator_bound": 10},
    }
    path = write_doc(tmp_path, "family.json", doc)
    first = run(capsys, "partition", path)
    second = run(capsys, "partition", path)
    assert first == second

    # a different seed must still yield a valid, self-contained run
    overridden = run(capsys, "partition", path, "--seed", "4")
    assert overridden[0] == 0
    assert len(overridden[1]["input"]["assignment"]) == 2


def test_allocate_output_revalidates(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    code, payload = run(capsys, "allocate", path)
    assert code == 0
    raw = payload["outputs"]["plan"]
    plan = CompensationPlan(
        pairs=tuple(
            CompensationPair(
                recipient_index=p["recipient_index"],
                compensated=p["compensated"],
                donor_index=p["donor_index"],
                compensator=p["compensator"],
            )
            for p in raw["pairs"]
        ),
        marks=tuple((m["set"], m["element"]) for m in raw["marks"]),
    )
    assert verify_plan(family_choice(payload["input"]), plan)


def test_find_path_output_revalidates(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    code, payload = run(capsys, "find-path", path)
    assert code == 0
    raw = payload["outputs"]["trace"]
    trace = PathTrace(
        stages=tuple(
            Stage(
                index=s["stage"],
                node=s["node"],
                kind=StepKind(s["kind"]),
                compensator=s["compensator"],
            )
            for s in raw["stages"]
        )
    )
    assert verify_trace(tree_choice(payload["input"]), trace)


def test_classify_works_on_tree_documents(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    code, payload = run(capsys, "classify", path)
    assert code == 0
    assert payload["outputs"]["verdicts"]["11"] == "chosen"


def test_generate_assignment_needs_an_rng_block(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    code, payload = run(capsys, "generate-assignment", path)
    assert code == 2
    assert payload["diagnostics"][0]["type"] == "SchemaError"


def test_missing_document_is_a_parse_error(tmp_path, capsys):
    code, payload = run(capsys, "partition", str(tmp_path / "absent.json"))
    assert code == 2
    assert payload["diagnostics"][0]["type"] == "ParseError"


def test_kind_mismatch_is_a_schema_error(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    code, payload = run(capsys, "partition", path)
    assert code == 2
    assert payload["diagnostics"][0]["type"] == "SchemaError"


def zorn_report_doc(path=(), value=None):
    """ZORN with a valid embedded report, the item at ``path`` set to ``value``."""
    doc = copy.deepcopy(ZORN)
    doc["report"] = {
        "maximal": [3],
        "successors": [
            {"member": m, "successor": 3, "provenance": "direct"} for m in range(3)
        ],
    }
    if path:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
    return doc


@pytest.mark.parametrize(
    "doc, address",
    [
        ({"input": 5, "outputs": {}}, "input"),
        ({"input": ZORN, "outputs": 5}, "outputs"),
        (zorn_report_doc(("fan_triplets", 0, "entry"), True), "fan_triplets[0]"),
        (zorn_report_doc(("fan_triplets", 3, "member"), True), "fan_triplets[3]"),
        (zorn_report_doc(("report", "maximal", 0), True), "report.maximal"),
        (zorn_report_doc(("report", "successors", 1, "member"), True), "report.successors[1]"),
        (zorn_report_doc(("report", "successors", 0, "successor"), True), "report.successors[0]"),
    ],
    ids=[
        "input-not-object",
        "outputs-not-object",
        "bool-fan-entry",
        "bool-fan-member",
        "bool-maximal",
        "bool-successor-member",
        "bool-successor-index",
    ],
)
def test_verify_report_rejects_malformed_input(tmp_path, capsys, doc, address):
    path = write_doc(tmp_path, "bad.json", doc)
    code, payload = run(capsys, "verify-report", path)
    assert code == 2
    diag = payload["diagnostics"][0]
    assert (diag["type"], diag["address"]) == ("SchemaError", address)


@pytest.mark.parametrize("command", ["partition", "generate-assignment"])
@pytest.mark.parametrize(
    "flags", [(), ("--seed", "3"), ("--bound", "12"), ("--seed", "3", "--bound", "12")],
    ids=["no-flag", "seed", "bound", "seed-and-bound"],
)
def test_non_object_rng_is_a_schema_error(tmp_path, capsys, command, flags):
    path = write_doc(tmp_path, "bad.json", {"kind": "family", "sets": [["a"]], "rng": 5})
    code, payload = run(capsys, command, path, *flags)
    assert code == 2
    diag = payload["diagnostics"][0]
    assert (diag["type"], diag["address"]) == ("SchemaError", "rng")


@pytest.mark.parametrize("command", ["partition", "generate-assignment"])
def test_rng_bound_past_the_sampler_range_is_a_schema_error(tmp_path, capsys, command):
    doc = {"kind": "family", "sets": [["a", "b"]], "rng": {"seed": 1, "denominator_bound": 2**70}}
    code, payload = run(capsys, command, write_doc(tmp_path, "huge.json", doc))
    assert code == 2
    diag = payload["diagnostics"][0]
    assert (diag["type"], diag["address"]) == ("SchemaError", "rng.denominator_bound")
    # the largest bound the sampler can draw from still works
    doc["rng"]["denominator_bound"] = sys.maxsize - 2
    code, _ = run(capsys, command, write_doc(tmp_path, "edge.json", doc))
    assert code == 0


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{}"],
    ids=["deeply-nested", "not-utf8"],
)
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, payload = run(capsys, "classify", str(path))
    assert code == 2
    assert payload["diagnostics"][0]["type"] == "ParseError"


def test_enumerate_paths_stops_at_an_unreachable_horizon(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    started = time.perf_counter()
    code, payload = run(capsys, "enumerate-paths", path, "--count", "1", "--horizon", "10000000")
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert payload["diagnostics"][0]["type"] == "InsufficientBranching"


def test_every_bench_span_hook_resolves():
    # bench/spans.py wraps these attributes by name and fails on a missing one
    spans_path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr)
        for module, attr, _name, _leaf in spans.POINTS
        if not hasattr(importlib.import_module(f"neutrochoice.{module}"), attr)
    ]
    assert spans.POINTS and missing == []


@pytest.mark.parametrize("triplet", [[["1/2"], "1/3", "1/6"], [1, 2, 3]], ids=["nested-list", "integers"])
def test_non_string_triplet_components_are_schema_errors(tmp_path, capsys, triplet):
    doc = {"kind": "family", "sets": [["a", "b"]], "assignment": [{"a": triplet, "b": triplet}]}
    path = write_doc(tmp_path, "bad.json", doc)
    code, payload = run(capsys, "classify", path)
    assert code == 2
    assert payload["diagnostics"] == [
        {
            "type": "SchemaError",
            "message": "triplet components must be 'num/den' strings",
            "address": "assignment[0]['a']",
        }
    ]


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="_PathSearch.extend recurses once per level; see ROADMAP 'Fix first', deep-horizon RecursionError",
)
def test_find_path_on_a_horizon_1500_chain(tmp_path, capsys):
    horizon = 1500
    chain = {
        "kind": "tree",
        "strings": ["1" * horizon],
        "horizon": horizon,
        "assignment": {"1" * level: ["6/10", "3/10", "1/10"] for level in range(horizon + 1)},
    }
    path = write_doc(tmp_path, "chain.json", chain)
    code, payload = run(capsys, "find-path", path)
    assert code == 0
    trace = payload["outputs"]["trace"]
    assert trace["final_path"] == "1" * horizon
    assert [s["kind"] for s in trace["stages"]] == ["chosen_max"] * (horizon + 1)
