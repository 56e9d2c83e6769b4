from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import functools
import gc
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neutrochoice import (
    CompensationPair,
    CompensationPlan,
    PathTrace,
    Stage,
    StepKind,
    Tree,
    ZornFamily,
    verify_plan,
    verify_report,
    verify_trace,
)
from neutrochoice import cli as cli_module
from neutrochoice import documents
from neutrochoice import family as family_module
from neutrochoice import tree as tree_module
from neutrochoice import triplet as triplet_module
from neutrochoice import zorn as zorn_module
from neutrochoice.cli import COMMANDS, main
from neutrochoice.documents import dumps_canonical, family_choice, report_from_json, tree_choice, zorn_inputs
from test_documents import count_parses

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


def test_classify_threshold_is_parsed_once(tmp_path, capsys, monkeypatch):
    seen = []
    real = cli_module.classify_threshold
    monkeypatch.setattr(cli_module, "classify_threshold", lambda t, p: seen.append(p) or real(t, p))
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    assert run(capsys, "classify", path, "--threshold", "05/10")[0] == 0
    assert len(seen) == 7 and all(p == Fraction(1, 2) and type(p) is Fraction for p in seen)
    code, payload = run(capsys, "classify", path, "--threshold", "12/8")
    assert code == 1
    assert payload["diagnostics"] == [
        {"type": "ThresholdOutOfRange", "message": "threshold 3/2 lies outside [0, 1]", "address": "threshold"}
    ]


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
    result = json.loads(Path(result_path).read_text())
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


@pytest.mark.parametrize(
    "report, valid",
    [
        ({"maximal": [2], "successors": [{"member": 0, "successor": 1, "provenance": "direct"},
                                         {"member": 1, "successor": 2, "provenance": "direct"}]}, True),
        ({"maximal": [], "successors": []}, False),
        ({"maximal": [2, 2], "successors": []}, False),
        ({"maximal": [2], "successors": [{"member": 0, "successor": 1, "provenance": "direct"}]}, False),
    ],
    ids=["complete", "empty", "duplicated-maximal", "member-in-neither-list"],
)
def test_verify_report_requires_every_member_exactly_once(tmp_path, capsys, report, valid):
    doc = {
        "kind": "zorn",
        "members": [[], ["a"], ["a", "b"]],
        "rng": {"seed": 1, "denominator_bound": 10},
        "report": report,
    }
    code, payload = run(capsys, "verify-report", write_doc(tmp_path, "zorn.json", doc))
    assert code == 0
    assert payload["outputs"] == {"valid": valid}


@pytest.mark.parametrize("flag, address", [("--seed=3", "seed"), ("--bound=2", "bound")])
def test_verify_report_rejects_the_rng_flags(tmp_path, capsys, flag, address):
    # a report check draws nothing, so an rng flag would be silently ignored
    doc = {**ZORN, "report": {"maximal": [3], "successors": []}}
    code, payload = run(capsys, "verify-report", write_doc(tmp_path, "zorn.json", doc), flag)
    assert code == 2
    (diag,) = payload["diagnostics"]
    assert (diag["type"], diag["address"]) == ("SchemaError", address)


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


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("partition", CHAIN_TREE, "partition expects a family document, got 'tree'"),
        ("classify", ZORN, "classify expects a family or tree document"),
    ],
    ids=["partition-tree", "classify-zorn"],
)
def test_kind_mismatch_is_a_schema_error(tmp_path, capsys, command, doc, message):
    path = write_doc(tmp_path, "doc.json", doc)
    code, payload = run(capsys, command, path)
    assert code == 2
    assert payload["diagnostics"] == [{"type": "SchemaError", "message": message, "address": "kind"}]


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
        (ZORN, "report"),
    ],
    ids=[
        "input-not-object",
        "outputs-not-object",
        "bool-fan-entry",
        "bool-fan-member",
        "bool-maximal",
        "bool-successor-member",
        "bool-successor-index",
        "no-report",
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


SMALL_BOUND = {"seed": 1, "denominator_bound": 3}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("generate-assignment", {"kind": "family", "sets": [["a", "b"]], "rng": SMALL_BOUND}),
        ("classify", {"kind": "family", "sets": [["a", "b"]], "rng": SMALL_BOUND}),
        # no member contains another: the bound is wrong although nothing is drawn
        ("generate-assignment", {"kind": "zorn", "members": [["1"], ["2"]], "rng": SMALL_BOUND}),
        ("find-maximal", {"kind": "zorn", "members": [["1"], ["2"]], "rng": SMALL_BOUND}),
    ],
    ids=["generate-assignment", "classify", "generate-assignment-zorn", "find-maximal-zorn"],
)
def test_an_rng_bound_below_the_sampler_minimum_names_its_field(tmp_path, capsys, command, doc):
    code, payload = run(capsys, command, write_doc(tmp_path, "small.json", doc))
    assert code == 1
    assert payload["diagnostics"] == [
        {"type": "BoundTooSmall", "message": "denominator bound must be at least 4, got 3", "address": "rng.denominator_bound"}
    ]


def test_verify_report_draws_nothing_so_a_small_bound_passes(tmp_path, capsys):
    doc = {"kind": "zorn", "members": [["1"], ["2"]], "rng": SMALL_BOUND, "report": {"maximal": [0, 1], "successors": []}}
    code, payload = run(capsys, "verify-report", write_doc(tmp_path, "small.json", doc))
    assert code == 0 and payload["outputs"] == {"valid": True}


@pytest.mark.parametrize(
    "content, kind, address",
    [
        (b"[" * 100_000 + b"]" * 100_000, "ParseError", "document"),
        (b"\xff\xfe{}", "ParseError", "byte 0"),
        (b"[1]", "SchemaError", "document"),
        (None, "ParseError", "document"),
    ],
    ids=["deeply-nested", "not-utf8", "root-not-an-object", "missing-file"],
)
def test_unreadable_json_is_a_parse_error(tmp_path, capsys, content, kind, address):
    # the document positional argument is named "document", as --output is named "output"
    path = tmp_path / "bad.json"
    if content is not None:
        path.write_bytes(content)
    code, payload = run(capsys, "classify", str(path))
    assert code == 2
    assert (payload["diagnostics"][0]["type"], payload["diagnostics"][0]["address"]) == (kind, address)


@pytest.mark.parametrize(
    "head, tail",
    [
        ('{"kind": "tree", "strings": ["0"], "horizon": ', "}"),
        ('{"kind": "family", "sets": [["a"]], "rng": {"seed": ', "}}"),
        (
            '{"note": "' + "9" * 5000 + '", "x": [-1.' + "9" * 5000 + ", 1" + "0" * 5000 + 'e1],\n "horizon": -',
            "}",
        ),
    ],
    ids=["tree-horizon", "family-rng-seed", "after-a-long-string-and-floats"],
)
def test_an_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys, head, tail):
    # the json decoder raises a plain ValueError past Python's int-string digit limit
    path = tmp_path / "long.json"
    path.write_text(head + "9" * 5000 + tail)
    code, payload = run(capsys, "partition", str(path))
    assert code == 2
    (diag,) = payload["diagnostics"]
    assert diag["type"] == "ParseError" and str(path) in diag["message"]
    # the address names the over-long literal, sign included
    start = len(head.rstrip("-"))
    line, column = head.count("\n") + 1, start - head.rfind("\n", 0, start)
    assert diag["address"] == f"line {line}, column {column}"


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_an_unwritable_output_is_a_schema_error_on_stdout(tmp_path, capsys, target):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    output = tmp_path if target == "directory" else tmp_path / "absent" / "out.json"
    code, payload = run(capsys, "partition", path, "--output", str(output))
    assert code == 2
    (diag,) = payload["diagnostics"]
    assert (diag["type"], diag["address"]) == ("SchemaError", "output")
    assert not (tmp_path / "absent").exists()


def test_enumerate_paths_stops_at_an_unreachable_horizon(tmp_path, capsys):
    path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    started = time.perf_counter()
    code, payload = run(capsys, "enumerate-paths", path, "--count", "1", "--horizon", "10000000")
    assert time.perf_counter() - started < 0.5
    assert code == 1
    assert payload["diagnostics"][0]["type"] == "InsufficientBranching"


STARVED_FAMILY = {
    "kind": "family",
    "sets": [["a", "b"], ["c"], ["d"]],
    "assignment": [
        {"a": ["6/10", "3/10", "1/10"], "b": ["5/10", "3/10", "2/10"]},
        {"c": ["1/10", "7/10", "2/10"]},
        {"d": ["1/10", "7/10", "2/10"]},
    ],
}


@pytest.mark.parametrize(
    "doc, argv, kind, address",
    [
        # set 0 offers one element, which serves set 1; set 2 is the first left over
        (STARVED_FAMILY, ["allocate"], "PreconditionViolated", "set 2"),
        (CHAIN_TREE, ["find-path", "--horizon=3"], "PreconditionViolated", "horizon"),
        (CHAIN_TREE, ["enumerate-paths", "--count=2"], "InsufficientBranching", "count"),
    ],
    ids=["allocate", "find-path", "enumerate-paths"],
)
def test_operation_failures_name_their_address(tmp_path, capsys, doc, argv, kind, address):
    command, *flags = argv
    code, payload = run(capsys, command, write_doc(tmp_path, "doc.json", doc), *flags)
    assert code == 1
    (diag,) = payload["diagnostics"]
    assert (diag["type"], diag["address"]) == (kind, address)


#: Level 2 is dead under the preferred ``0``, so find-path compensates with
#: ``1``; ``11`` is the one chosen path enumerate-paths finds.
COMPENSATED_TREE = {
    "kind": "tree",
    "strings": ["00", "01", "10", "11"],
    "horizon": 2,
    "assignment": {
        "": ["6/10", "3/10", "1/10"],
        "0": ["6/10", "3/10", "1/10"],
        "1": ["5/10", "3/10", "2/10"],
        "00": ["1/10", "7/10", "2/10"],
        "01": ["1/10", "7/10", "2/10"],
        "10": ["1/10", "7/10", "2/10"],
        "11": ["5/10", "3/10", "2/10"],
    },
}


def count_tree_builds(monkeypatch) -> tuple[list, list]:
    """Record every tree ``build_tree`` returns, and every tree whose
    ``levels`` index is built, in order."""
    built, indexed = [], []
    build_tree, levels = tree_module.build_tree, Tree.levels.func

    def counted_build(*args):
        built.append(build_tree(*args))
        return built[-1]

    def counted_levels(tree):
        indexed.append(tree)
        return levels(tree)

    counting = functools.cached_property(counted_levels)
    counting.__set_name__(Tree, "levels")
    monkeypatch.setattr(Tree, "levels", counting)
    monkeypatch.setattr(tree_module, "build_tree", counted_build)
    return built, indexed


def test_each_tree_builds_its_levels_once(tmp_path, capsys, monkeypatch):
    built, indexed = count_tree_builds(monkeypatch)
    path = write_doc(tmp_path, "tree.json", COMPENSATED_TREE)
    runs = (
        (["find-path", path], "trace"),
        (["find-path", path, "--horizon=2"], "trace"),  # the document's own horizon
        (["enumerate-paths", path, "--count=1"], "traces"),
    )
    for argv, output in runs:
        built.clear(), indexed.clear()
        code, payload = run(capsys, *argv)
        assert code == 0 and output in payload["outputs"]
        # the command runs on validation's tree, which is built and indexed once
        assert len(built) == 1 and indexed == built
    assert payload["outputs"]["traces"][0]["final_path"] == "11"

    # another horizon builds a new tree, and its reach decides the outcome
    built.clear(), indexed.clear()
    code, payload = run(capsys, "find-path", path, "--horizon=3")
    assert [tree.horizon for tree in built] == [2, 3] and indexed == built
    assert code == 1 and payload["diagnostics"][0]["address"] == "horizon"

    # a horizon below the document's strings fails the new tree's depth check
    built.clear()
    code, payload = run(capsys, "find-path", path, "--horizon", "1")
    assert [tree.horizon for tree in built] == [2]
    assert code == 1 and payload["diagnostics"][0]["type"] == "DepthExceeded"


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


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_unused_import_or_orphaned_private_helper_in_src():
    # stdlib stand-in for a linter's unused-import and dead-code checks
    package = Path(__file__).resolve().parents[1] / "src" / "neutrochoice"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    bodies = {name: ast.parse(text).body for name, text in sources.items()}
    unused_imports = []
    for name, body in bodies.items():
        if name == "__init__.py":
            continue
        lines = sources[name].splitlines()
        imports = [s for s in body if isinstance(s, (ast.Import, ast.ImportFrom))]
        used = set().union(*(_referenced_names(s) for s in body if s not in imports))
        for statement in imports:
            if getattr(statement, "module", None) == "__future__":
                continue
            for alias in statement.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused_imports.append(f"{name}: {bound}")
    statements = [(name, statement) for name, body in bodies.items() for statement in body]
    orphans = [
        f"{name}: {statement.name}"
        for name, statement in statements
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and statement.name.startswith("_")
        and not statement.name.startswith("__")
        and not any(
            other is not statement and statement.name in _referenced_names(other)
            for _, other in statements
        )
    ]
    assert unused_imports == [] and orphans == []


def test_no_src_module_reads_another_modules_private_name():
    # a private name is its module's own: another module that reads it depends on what may change unannounced
    package = Path(__file__).resolve().parents[1] / "src" / "neutrochoice"

    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    reads = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) != "self":
                reads.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom):
                reads += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names if private(alias.name)]
    assert reads == []


def test_error_text_is_formatted_only_where_it_is_used():
    # an f-string outside a raise, a return or a lambda is text built on the success path too
    package = Path(__file__).resolve().parents[1] / "src" / "neutrochoice"
    eager = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        lazy = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Raise, ast.Return, ast.Lambda))
            for sub in ast.walk(node)
        }
        eager += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in lazy
        ]
    assert eager == []


def test_frozen_fields_are_set_only_in_post_init():
    # a frozen dataclass is fixed once built: no cache filled in later behind its back
    package = Path(__file__).resolve().parents[1] / "src" / "neutrochoice"
    late = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_post_init = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
            for sub in ast.walk(node)
        }
        late += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "object.__setattr__"
            and id(node) not in in_post_init
        ]
    assert late == []


def test_only_construct_path_runs_the_path_search():
    # the verifier and the enumerator read the tree's index, not the search engine
    package = Path(__file__).resolve().parents[1] / "src" / "neutrochoice"
    users = [
        f"{path.name}: {getattr(statement, 'name', type(statement).__name__)}"
        for path in sorted(package.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
        if getattr(statement, "name", None) != "_PathSearch" and "_PathSearch" in _referenced_names(statement)
    ]
    assert users == ["tree.py: construct_path"]


def test_oracles_share_no_fan_table_with_the_library():
    # a reference that reads the engine's fan table would share its faults
    oracles = Path(__file__).resolve().with_name("oracles.py")
    shared = [
        f"{type(node).__name__}:{node.lineno}"
        for node in ast.walk(ast.parse(oracles.read_text()))
        if (isinstance(node, ast.ImportFrom)
            and {alias.name for alias in node.names} & {"superset_fan", "fan_pairs"})
        or (isinstance(node, ast.Attribute) and node.attr in {"fans", "superset_fan", "fan_pairs"})
    ]
    assert shared == []


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


def test_a_failed_find_path_names_its_dead_level(tmp_path, capsys):
    doc = {
        "kind": "tree",
        "strings": ["000"],
        "horizon": 3,
        "assignment": {
            "": ["6/10", "3/10", "1/10"],
            "0": ["1/10", "6/10", "3/10"],
            "00": ["6/10", "3/10", "1/10"],
            "000": ["6/10", "3/10", "1/10"],
        },
    }
    code, payload = run(capsys, "find-path", write_doc(tmp_path, "dead.json", doc))
    assert code == 1
    assert payload["diagnostics"] == [
        {
            "type": "PreconditionViolated",
            "message": "a dead step has no backward or forward compensator on any branch; "
            "the deepest dead level reached is 1",
            "address": "level 1",
        }
    ]


RNG = {"seed": 5, "denominator_bound": 10}
ZORN_REPORT = {"maximal": [3], "successors": [
    {"member": member, "successor": 3, "provenance": "direct"} for member in range(3)
]}
FAMILY_SEEDS = [
    PAPER_FAMILY,
    {"kind": "family", "sets": [["a", "b", "c"], ["d"], ["e", "f"]], "rng": RNG},
]
TREE_SEEDS = [CHAIN_TREE, {"kind": "tree", "strings": ["00", "01", "1"], "horizon": 2, "rng": RNG}]
ZORN_SEEDS = [ZORN, {"kind": "zorn", "members": [[], ["1"], ["2"], ["1", "2"]], "rng": RNG}]
SEED_DOCUMENTS = {
    "classify": FAMILY_SEEDS + TREE_SEEDS,
    "partition": FAMILY_SEEDS,
    "check-compensation": FAMILY_SEEDS,
    "allocate": FAMILY_SEEDS,
    "product-status": FAMILY_SEEDS,
    "find-path": TREE_SEEDS,
    "enumerate-paths": TREE_SEEDS,
    "find-maximal": ZORN_SEEDS,
    "verify-report": [{**ZORN, "report": ZORN_REPORT}, {"input": ZORN, "outputs": {"report": ZORN_REPORT}}],
    "generate-assignment": [FAMILY_SEEDS[1], TREE_SEEDS[1], ZORN_SEEDS[1]],
}
EDGE_INTS = [-(2**70), -1, 0, 1, 2, 3, 64, sys.maxsize - 2, sys.maxsize, 2**70]
EDGE_STRINGS = ["", "0", "1", "01", "1/0", "0/1", "1/1", "-1/3", "1/3", "3/2", "9" * 40 + "/7", "a/b", " 1/2"]
json_keys = st.sampled_from(
    ["kind", "sets", "strings", "horizon", "members", "assignment", "fan_triplets", "rng", "seed",
     "denominator_bound", "report", "maximal", "successors", "member", "entry", "triplet"]
) | st.text(max_size=4)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.sampled_from(EDGE_INTS)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(EDGE_STRINGS)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_keys, children, max_size=4),
    max_leaves=10,
)
FLAG_VALUES = {
    "--seed": st.sampled_from(EDGE_INTS),
    "--bound": st.sampled_from(EDGE_INTS),
    # kept at 64 or below: a horizon past the recursion limit is pinned by the xfail below
    "--horizon": st.sampled_from([-1, 0, 1, 2, 3, 64]),
    "--count": st.sampled_from([1, 1, 2, 3, 64, 2**70, 0, -1]),
    "--threshold": st.sampled_from(EDGE_STRINGS),
}


def _containers(value, found):
    if isinstance(value, (dict, list)):
        found.append(value)
        for child in value.values() if isinstance(value, dict) else value:
            _containers(child, found)
    return found


def seed_runs(tmp_path) -> list[list[str]]:
    """One argv per command and seed document, each document written once."""
    runs = []
    for command, seeds in SEED_DOCUMENTS.items():
        flags = ["--count", "1"] if command == "enumerate-paths" else []
        for n, doc in enumerate(seeds):
            runs.append([command, write_doc(tmp_path, f"{command}-{n}.json", doc), *flags])
    return runs


def explicit_entries(argv: list[str]) -> list[tuple] | None:
    """The distinct raw triplet entries of a seed run's document, or None
    for an ``rng`` document, whose triplets are drawn, not read."""
    doc = json.loads(Path(argv[1]).read_text())
    doc = doc.get("input", doc)  # a result file's echoed input
    if "rng" in doc:
        return None
    table = doc.get("assignment", doc.get("fan_triplets"))
    if doc["kind"] == "family":
        raw = [values for element_table in table for values in element_table.values()]
    elif doc["kind"] == "tree":
        raw = list(table.values())
    else:
        raw = [record["triplet"] for record in table]
    return sorted({tuple(values) for values in raw})


def test_outputs_do_not_depend_on_the_component_memo(tmp_path, capsys, monkeypatch):
    runs = seed_runs(tmp_path)
    warm = {}
    for argv in runs:
        monkeypatch.setattr(triplet_module, "_MEMO", {})
        main(argv)
        cold = capsys.readouterr().out
        warm[tuple(argv)] = bool(triplet_module._MEMO)
        main(argv)
        assert capsys.readouterr().out == cold, argv
    # a command on an explicit table reads its triplet strings, so its second run hit the memo
    explicit = [warm[tuple(argv)] for argv in runs if explicit_entries(argv) is not None]
    assert len(explicit) > len(runs) // 3 and all(explicit)


#: runs each argv of ``sys.argv[1]`` (a JSON list) through ``cli.main`` and
#: prints the run count and one sha256 of every exit code and stdout
_DIGEST_RUNS = """
import contextlib, hashlib, io, json, sys
from neutrochoice.cli import main
runs = json.loads(sys.argv[1])
digest = hashlib.sha256()
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digest.update(json.dumps([code, out.getvalue()]).encode())
print(len(runs), digest.hexdigest())
"""


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    # README "Determinism": the order of a set of strings changes with PYTHONHASHSEED, outputs must not
    runs = seed_runs(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for seed in ("0", "1", "4294967295"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        child = subprocess.run(
            [sys.executable, "-c", _DIGEST_RUNS, json.dumps(runs)], env=env, capture_output=True, text=True, check=True
        )
        digests.append(child.stdout)
    assert digests[0].split()[0] == str(len(runs))
    assert len(set(digests)) == 1, digests


@pytest.mark.parametrize(
    "argv, status",
    [(["find-maximal", "zorn.json"], 0), (["classify", "absent.json"], 2)],
    ids=["find-maximal", "classify-missing-file"],
)
def test_the_module_runs_as_a_script(tmp_path, capsys, argv, status):
    # `python -m neutrochoice.cli` reaches main through the __main__ guard, with its status as the exit code
    write_doc(tmp_path, "zorn.json", ZORN)
    argv = [argv[0], str(tmp_path / argv[1])]
    assert main(argv) == status
    expected = capsys.readouterr().out.encode()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-m", "neutrochoice.cli", *argv], env=env, capture_output=True, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (status, expected, b"")


def count_fan_builds(monkeypatch) -> list:
    """Record every family whose ``ZornFamily.fans`` table is built."""
    built = []
    fans = ZornFamily.fans.func

    def counted(family):
        built.append(family)
        return fans(family)

    counting = functools.cached_property(counted)
    counting.__set_name__(ZornFamily, "fans")
    monkeypatch.setattr(ZornFamily, "fans", counting)
    return built


@pytest.mark.parametrize(
    "command, doc, builds",
    [
        ("find-maximal", ZORN, 1),
        # generation draws over the table that find-maximal then reads
        ("find-maximal", {**ZORN_SEEDS[1], "rng": {"seed": 12, "denominator_bound": 10}}, 1),
        ("verify-report", {**ZORN, "report": ZORN_REPORT}, 1),  # validation's; the check reads none
        ("verify-report", {"input": ZORN_SEEDS[1], "outputs": {"report": ZORN_REPORT}}, 0),
    ],
    ids=["find-maximal", "find-maximal-rng", "verify-report", "verify-report-rng"],
)
def test_each_inclusion_family_builds_its_fan_table_once(tmp_path, capsys, monkeypatch, command, doc, builds):
    built = count_fan_builds(monkeypatch)
    code, payload = run(capsys, command, write_doc(tmp_path, "zorn.json", doc))
    assert code == 0 and payload["outputs"]
    assert len(built) == builds


#: the 14 non-empty proper subsets of four atoms, whose drawn fan tables
#: (36 records) compensate one member at seed 1 and leave members [4, 5, 6]
#: too few entries at seed 9
SUBSETS = [list(atoms) for size in range(1, 4) for atoms in itertools.combinations("abcd", size)]


def drawn_zorn(seed: int) -> dict:
    return documents.generate_assignment({"kind": "zorn", "members": SUBSETS, "rng": {"seed": seed, "denominator_bound": 10}})


@pytest.mark.parametrize("seed", [None, 1, 9], ids=["direct", "compensated", "exhausted"])
def test_fan_record_order_changes_no_output_byte(tmp_path, capsys, seed):
    # validation writes fan records in fan order, so find-maximal and verify-report never see the input's order
    doc = ZORN if seed is None else drawn_zorn(seed)

    def outputs(records: list, tag: str, report: dict) -> tuple:
        fan_doc = {**doc, "fan_triplets": records}
        result = tmp_path / f"{tag}-result.json"
        code = main(["find-maximal", write_doc(tmp_path, f"{tag}.json", fan_doc), "--output", str(result)])
        found = code, capsys.readouterr().out, result.read_bytes()
        code = main(["verify-report", write_doc(tmp_path, f"{tag}-check.json", {**fan_doc, "report": report})])
        return found, (code, capsys.readouterr().out)

    (code, _, result), _ = outputs(doc["fan_triplets"], "canonical", ZORN_REPORT)
    payload = json.loads(result)
    if seed == 9:
        assert code == 1 and payload["diagnostics"][0]["type"] == "CompensationExhausted"
        report = ZORN_REPORT
    else:
        # verify-report then checks find-maximal's own report
        report = payload["outputs"]["report"]
        provenances = {record["provenance"] for record in report["successors"]}
        assert code == 0 and ("compensated" in provenances) == (seed == 1)
    canonical = outputs(doc["fan_triplets"], "canonical", report)
    assert json.loads(canonical[1][1])["outputs"] == {"valid": seed != 9}
    shuffled = list(doc["fan_triplets"])
    random.Random(7).shuffle(shuffled)
    assert shuffled != doc["fan_triplets"]
    assert outputs(shuffled, "shuffled", report) == canonical
    assert outputs(doc["fan_triplets"][::-1], "reversed", report) == canonical


def test_only_find_maximal_runs_a_triplet_table_pass(tmp_path, capsys, monkeypatch):
    # family and tree commands run on validation's Triplet table; find_maximal checks its own argument
    calls = []
    triplet_table = triplet_module.triplet_table

    def counted(*args):
        calls.append(args)
        return triplet_table(*args)

    for module in (zorn_module, family_module, tree_module, documents):
        monkeypatch.setattr(module, "triplet_table", counted, raising=False)
    counts = {}
    for argv in seed_runs(tmp_path):
        calls.clear()
        main(argv)
        capsys.readouterr()
        counts.setdefault(argv[0], set()).add(len(calls))
    assert counts == {command: {1} if command == "find-maximal" else {0} for command in COMMANDS}


def test_each_command_parses_each_distinct_entry_once(tmp_path, capsys, monkeypatch):
    # validation parses each distinct entry and the command runs on its Triplets; drawn triplets are never parsed
    calls = count_parses(monkeypatch)
    for argv in seed_runs(tmp_path):
        calls.clear()
        assert main(argv) in (0, 1), argv  # the document is valid; some engines then fail
        capsys.readouterr()
        assert sorted(calls) == (explicit_entries(argv) or []), argv


def test_no_command_hands_its_payload_to_the_python_encoder(tmp_path, capsys, monkeypatch):
    # dumps_canonical hands a payload it cannot walk to json.dumps, whose indent=2 encoder is pure Python
    runs = seed_runs(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python json encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    statuses = []
    for argv in runs:
        statuses.append(main(argv))
        assert capsys.readouterr().out, argv
    assert set(statuses) == {0, 1}  # results, and diagnostics of engines that fail on a valid document


def rebuilding_cores(monkeypatch) -> list:
    """Make every document that validation or generation returns with a
    table run on a core the builders for plain dicts make from its keys,
    and record each such document."""
    rebuilt = []

    def afresh(build):
        def wrapper(raw):
            doc = build(raw)
            if "rng" not in doc:  # generation draws the table, and its result comes back through here
                plain = dict(doc)
                if doc["kind"] == "family":
                    choice = family_choice(plain)
                    doc.core = documents.Core(choice.family, choice.assignment)
                elif doc["kind"] == "tree":
                    tc = tree_choice(plain)
                    doc.core = documents.Core(tc.tree, tc.assignment)
                else:  # find_maximal parses the raw fan entries
                    doc.core = documents.Core(*documents.zorn_inputs(plain))
                rebuilt.append(doc)
            return doc

        return wrapper

    monkeypatch.setattr(documents, "validate_document", afresh(documents.validate_document))
    monkeypatch.setattr(documents, "generate_assignment", afresh(documents.generate_assignment))
    return rebuilt


def test_outputs_do_not_depend_on_the_handed_over_structure(tmp_path, capsys, monkeypatch):
    runs = seed_runs(tmp_path) + [
        ["find-path", write_doc(tmp_path, "compensated.json", COMPENSATED_TREE), flag] for flag in ("--horizon=2", "--horizon=3")
    ]

    def outputs() -> list[str]:
        found = []
        for argv in runs:
            main(argv)
            found.append(capsys.readouterr().out)
        return found

    shared = outputs()
    rebuilt = rebuilding_cores(monkeypatch)
    assert outputs() == shared
    assert len(rebuilt) == len(runs)  # each command ran on a core built afresh


@st.composite
def fuzzed_documents(draw, command):
    pick = draw(st.integers(0, 9))
    if pick == 0:
        return draw(json_values)
    # a seed meant for another command exercises the kind checks
    seeds = SEED_DOCUMENTS[command if pick > 2 else draw(st.sampled_from(COMMANDS))]
    doc = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        target = draw(st.sampled_from(_containers(doc, [])))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        if keys and draw(st.booleans()):
            key = draw(st.sampled_from(keys))
            if draw(st.integers(0, 3)) == 0:
                del target[key]
            else:
                target[key] = draw(json_values)
        elif isinstance(target, dict):
            target[draw(json_keys)] = draw(json_values)
        else:
            target.append(draw(json_values))
    return doc


@st.composite
def fuzzed_flags(draw, command):
    names = ["--seed", "--bound"]
    if command == "classify":
        names.append("--threshold")
    if command in ("find-path", "enumerate-paths"):
        names.append("--horizon")
    # --flag=value keeps a value such as -1/3 from being read as an option
    flags = [f"{name}={draw(FLAG_VALUES[name])}" for name in names if draw(st.integers(0, 3)) == 0]
    if command == "enumerate-paths":
        flags.append(f"--count={draw(FLAG_VALUES['--count'])}")
    return flags


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_fuzzed_cli_runs_end_in_one_json_object(tmp_path_factory, data):
    command = data.draw(st.sampled_from(COMMANDS))
    doc = data.draw(fuzzed_documents(command))
    flags = data.draw(fuzzed_flags(command))
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), *flags])
    assert code in (0, 1, 2)
    payload = json.loads(out.getvalue())
    assert isinstance(payload, dict)
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def stdout_of(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_fuzzed_outputs_do_not_depend_on_the_handed_over_structure(tmp_path_factory, data):
    # a core missing a triplet or holding another would differ from one rebuilt by the builders
    command = data.draw(st.sampled_from(COMMANDS))
    path = tmp_path_factory.getbasetemp() / "fuzzed-core.json"
    path.write_text(json.dumps(data.draw(fuzzed_documents(command))))
    argv = [command, str(path), *data.draw(fuzzed_flags(command))]
    shared = stdout_of(argv)
    with pytest.MonkeyPatch.context() as monkeypatch:
        rebuilding_cores(monkeypatch)
        assert stdout_of(argv) == shared


DEEP = 1500
#: A horizon-1500 chain whose every node is chosen: one path, 1,501 stages.
DEEP_CHAIN = {
    "kind": "tree",
    "strings": ["1" * DEEP],
    "horizon": DEEP,
    "assignment": {"1" * level: ["6/10", "3/10", "1/10"] for level in range(DEEP + 1)},
}


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="_PathSearch.extend recurses once per level; see ROADMAP 'Fix first', deep-horizon RecursionError",
)
def test_find_path_on_a_horizon_1500_chain(tmp_path, capsys):
    horizon = DEEP
    path = write_doc(tmp_path, "chain.json", DEEP_CHAIN)
    code, payload = run(capsys, "find-path", path)
    assert code == 0
    trace = payload["outputs"]["trace"]
    assert trace["final_path"] == "1" * horizon
    assert [s["kind"] for s in trace["stages"]] == ["chosen_max"] * (horizon + 1)


def test_enumerate_paths_and_classify_on_a_horizon_1500_chain(tmp_path, capsys):
    path = write_doc(tmp_path, "chain.json", DEEP_CHAIN)
    code, payload = run(capsys, "enumerate-paths", path, "--count", "1")
    assert code == 0
    (trace,) = payload["outputs"]["traces"]
    assert trace["final_path"] == "1" * DEEP
    assert [s["kind"] for s in trace["stages"]] == ["chosen_max"] * (DEEP + 1)

    code, payload = run(capsys, "enumerate-paths", path, "--count", "2")
    assert code == 1
    assert payload["diagnostics"][0]["type"] == "InsufficientBranching"

    code, payload = run(capsys, "classify", path)
    assert code == 0
    assert set(payload["outputs"]["verdicts"].values()) == {"chosen"}


def singletons_and_pairs(n: int) -> list[list[str]]:
    """``{a_i}`` and ``{a_i, b_i}``: each singleton's fan is one pair, so one unchosen pair exhausts."""
    return [[f"a{i}"] for i in range(n)] + [[f"a{i}", f"b{i}"] for i in range(n)]


def singletons_in_a_ring(n: int, reach: int) -> list[list[str]]:
    """``{a_i}`` and ``{a_i, a_(i+d)}`` for ``d`` up to ``reach``: fans of ``2 * reach`` pairs."""
    return [[f"a{i}"] for i in range(n)] + [[f"a{i}", f"a{(i + d) % n}"] for i in range(n) for d in range(1, reach + 1)]


@pytest.mark.parametrize(
    "members, seed, expected",
    [(singletons_and_pairs(1000), 1, 1), (singletons_in_a_ring(250, 7), 2, 0)],
    ids=["singletons-and-pairs", "ring"],
)
def test_find_maximal_on_2000_members(tmp_path, capsys, members, seed, expected):
    assert len(members) == 2000
    path = write_doc(tmp_path, "zorn.json", {"kind": "zorn", "members": members, "rng": {"seed": seed, "denominator_bound": 10}})
    result_path = str(tmp_path / "result.json")
    started = time.perf_counter()
    code = main(["find-maximal", path, "--output", result_path])
    assert time.perf_counter() - started < 5
    assert code == expected
    with open(result_path) as handle:
        payload = json.load(handle)
    assert isinstance(payload, dict)
    if code == 1:
        assert payload["diagnostics"][0]["type"] == "CompensationExhausted"
        return
    report = report_from_json(payload["outputs"]["report"])
    assert "compensated" in {s["provenance"] for s in payload["outputs"]["report"]["successors"]}
    assert verify_report(zorn_inputs(payload["input"])[0], report)
    code, verdict = run(capsys, "verify-report", result_path)
    assert code == 0 and verdict["outputs"] == {"valid": True}


@pytest.mark.parametrize(
    "doc, flags, address, message",
    [
        (
            {**PAPER_FAMILY, "sets": [["a"]], "assignment": [{"a": ["1e-3000000", "7/10", "3/10"]}]},
            (),
            "assignment[0]['a']",
            "invalid triplet at assignment[0]['a']: exponent notation is not accepted; use a 'num/den' string",
        ),
        (
            PAPER_FAMILY,
            ("--threshold=1e-3000000",),
            "threshold",
            "invalid threshold '1e-3000000': exponent notation is not accepted; use a 'num/den' string",
        ),
    ],
    ids=["triplet", "threshold"],
)
def test_exponent_notation_is_rejected_quickly(tmp_path, capsys, doc, flags, address, message):
    path = write_doc(tmp_path, "exponent.json", doc)
    started = time.perf_counter()
    code, payload = run(capsys, "classify", path, *flags)
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert payload["diagnostics"] == [{"type": "SchemaError", "message": message, "address": address}]


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    constructed = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for command in ("partition", "classify", "allocate", "partition"):
        assert run(capsys, command, path)[0] == 0
    assert constructed == []


def test_each_command_keeps_its_own_flags_and_help(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    with pytest.raises(SystemExit) as info:
        main(["partition", path, "--count", "1"])
    assert info.value.code == 2
    assert "--count" in capsys.readouterr().err

    helps = {}
    for command in ("enumerate-paths", "partition"):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        helps[command] = capsys.readouterr().out
    assert "--count" in helps["enumerate-paths"] and "--horizon" in helps["enumerate-paths"]
    assert "--count" not in helps["partition"] and "--horizon" not in helps["partition"]


def test_earlier_calls_leave_no_trace_in_a_later_run(tmp_path, capsys):
    path = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    tree_path = write_doc(tmp_path, "tree.json", CHAIN_TREE)
    assert main(["partition", path]) == 0
    first = capsys.readouterr().out
    assert main(["enumerate-paths", tree_path, "--count", "2"]) == 1
    with pytest.raises(SystemExit):
        main(["partition", "--help"])
    capsys.readouterr()
    assert main(["partition", path]) == 0
    assert capsys.readouterr().out == first


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then put back the state it found."""
    found = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if found else gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "disabled"])
@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["partition", "family.json"], 0),
        (["allocate", "starved.json"], 1),
        (["classify", "absent.json"], 2),
        (["partition", "family.json", "--output", "."], 2),  # a directory cannot be written
        (["--help"], SystemExit),
        (["classify"], SystemExit),  # the document argument is missing
        (["find-path", "chain.json"], RecursionError),  # see the strict xfail above
    ],
    ids=["exit-0", "exit-1", "exit-2", "unwritable-output", "help", "missing-argument", "recursion-error"],
)
def test_main_gives_back_the_callers_collector_state_on_every_way_out(
    tmp_path, capsys, monkeypatch, argv, outcome, enabled
):
    documents_by_name = {"family.json": PAPER_FAMILY, "starved.json": STARVED_FAMILY, "chain.json": DEEP_CHAIN}
    if len(argv) > 1 and argv[1] in documents_by_name:
        write_doc(tmp_path, argv[1], documents_by_name[argv[1]])
    monkeypatch.chdir(tmp_path)
    with collector(enabled):
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is enabled


def test_no_collection_runs_during_an_op(tmp_path, capsys):
    sets = [[f"s{i}e{j}" for j in range(2 + i % 9)] for i in range(2000)]
    path = write_doc(tmp_path, "family.json", {"kind": "family", "sets": sets, "rng": RNG})
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        with collector(True):
            gc.collect()
            starts.clear()
            code = main(["allocate", path])
            during = len(starts)  # read at once: the restored collector may run on the next allocation
    finally:
        gc.callbacks.remove(count)
    assert code == 0 and json.loads(capsys.readouterr().out)["command"] == "allocate"
    assert during == 0, starts


def test_no_op_leaves_cyclic_garbage(tmp_path, capsys):
    # the pause in main is safe only while reference counting frees everything an op allocates
    family = write_doc(tmp_path, "family.json", PAPER_FAMILY)
    unparsable = tmp_path / "unparsable.json"
    unparsable.write_text('{"kind": ')
    deep_array = tmp_path / "deep.json"
    deep_array.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    tie = {"kind": "family", "sets": [["a"]], "assignment": [{"a": ["4/10", "4/10", "2/10"]}]}
    exhausted = {"kind": "zorn", "members": singletons_and_pairs(3), "rng": {"seed": 1, "denominator_bound": 10}}
    chain = write_doc(tmp_path, "chain.json", DEEP_CHAIN)
    runs = [(argv, None) for argv in seed_runs(tmp_path)] + [
        (["classify", write_doc(tmp_path, "tie.json", tie)], 2),
        (["classify", str(unparsable)], 2),
        (["classify", str(tmp_path / "absent.json")], 2),
        (["classify", str(deep_array)], 2),
        (["find-maximal", write_doc(tmp_path, "exhausted.json", exhausted)], 1),
        (["find-path", family], 2),
        (["find-path", chain], RecursionError),
        (["classify", chain], 0),
    ]
    with collector(False):
        for argv, outcome in runs:
            gc.collect()
            try:
                status = main(argv)
            except RecursionError:
                status = RecursionError
            assert gc.collect() == 0, argv
            assert outcome is None or status == outcome, argv
            capsys.readouterr()
