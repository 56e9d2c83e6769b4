from __future__ import annotations

import json

import pytest

from neutrochoice import BoundTooSmallError, ParseError, SchemaError
from neutrochoice.documents import (
    dumps_canonical,
    family_choice,
    generate_assignment,
    load_document,
    tree_choice,
    validate_document,
    zorn_inputs,
)

FAMILY_DOC = {
    "kind": "family",
    "sets": [["1", "2"], ["a", "b"]],
    "assignment": [
        {"1": ["3/10", "6/10", "1/10"], "2": ["2/10", "7/10", "1/10"]},
        {"a": ["6/10", "3/10", "1/10"], "b": ["1/10", "7/10", "2/10"]},
    ],
}

TREE_DOC = {
    "kind": "tree",
    "strings": ["11"],
    "horizon": 2,
    "assignment": {
        "": ["6/10", "3/10", "1/10"],
        "1": ["6/10", "3/10", "1/10"],
        "11": ["5/10", "3/10", "2/10"],
    },
}

ZORN_DOC = {
    "kind": "zorn",
    "members": [[], ["1"], ["1", "2"]],
    "fan_triplets": [
        {"member": 0, "entry": 1, "triplet": ["6/10", "3/10", "1/10"]},
        {"member": 0, "entry": 2, "triplet": ["5/10", "3/10", "2/10"]},
        {"member": 1, "entry": 2, "triplet": ["6/10", "3/10", "1/10"]},
    ],
}


def test_load_document_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError) as info:
        load_document(str(path))
    assert "line" in (info.value.address or "")


def test_validate_normalizes_triplets():
    doc = validate_document(FAMILY_DOC)
    assert doc["assignment"][0]["1"] == ["3/10", "3/5", "1/10"]


def test_validate_is_idempotent():
    once = validate_document(FAMILY_DOC)
    assert validate_document(once) == once
    assert dumps_canonical(validate_document(once)) == dumps_canonical(once)


def test_validate_requires_exactly_one_of_assignment_or_rng():
    with pytest.raises(SchemaError):
        validate_document({"kind": "family", "sets": [["a"]]})
    with pytest.raises(SchemaError):
        validate_document(
            {
                "kind": "family",
                "sets": [["a"]],
                "assignment": [{"a": ["6/10", "3/10", "1/10"]}],
                "rng": {"seed": 1, "denominator_bound": 10},
            }
        )


def test_validate_names_offending_element():
    bad = {
        "kind": "family",
        "sets": [["a"]],
        "assignment": [{"a": ["1/2", "1/4", "1/8"]}],
    }
    with pytest.raises(SchemaError) as info:
        validate_document(bad)
    assert "'a'" in str(info.value)


def test_validate_tree_closes_strings_and_requires_full_assignment():
    doc = validate_document(TREE_DOC)
    assert doc["strings"] == ["", "1", "11"]
    missing = {
        "kind": "tree",
        "strings": ["11"],
        "horizon": 2,
        "assignment": {"11": ["6/10", "3/10", "1/10"]},
    }
    with pytest.raises(SchemaError) as info:
        validate_document(missing)
    assert "missing node" in str(info.value)


def test_validate_zorn_requires_total_fan_table():
    partial = {
        "kind": "zorn",
        "members": [[], ["1"]],
        "fan_triplets": [],
    }
    with pytest.raises(SchemaError):
        validate_document(partial)


def test_validate_zorn_rejects_non_superset_pairs():
    bad = {
        "kind": "zorn",
        "members": [["1"], ["2"]],
        "fan_triplets": [
            {"member": 0, "entry": 1, "triplet": ["6/10", "3/10", "1/10"]}
        ],
    }
    with pytest.raises(SchemaError):
        validate_document(bad)


def test_generate_assignment_is_deterministic_and_self_contained():
    doc = {
        "kind": "family",
        "sets": [["a", "b"], ["c"]],
        "rng": {"seed": 7, "denominator_bound": 12},
    }
    first = generate_assignment(doc)
    second = generate_assignment(doc)
    assert first == second
    assert "rng" not in first
    choice = family_choice(first)  # generated tables always validate
    assert len(choice.assignment) == 3

    other_seed = generate_assignment({**doc, "rng": {"seed": 8, "denominator_bound": 12}})
    family_choice(other_seed)


def test_generate_assignment_propagates_small_bound():
    doc = {
        "kind": "family",
        "sets": [["a"]],
        "rng": {"seed": 7, "denominator_bound": 3},
    }
    with pytest.raises(BoundTooSmallError):
        generate_assignment(doc)


def test_generate_assignment_covers_tree_closure():
    doc = {
        "kind": "tree",
        "strings": ["01"],
        "horizon": 3,
        "rng": {"seed": 11, "denominator_bound": 10},
    }
    generated = generate_assignment(doc)
    assert sorted(generated["assignment"]) == ["", "0", "01"]
    tree_choice(generated)


def test_generate_assignment_covers_fan_pairs():
    doc = {
        "kind": "zorn",
        "members": [[], ["1"], ["1", "2"]],
        "rng": {"seed": 11, "denominator_bound": 10},
    }
    generated = generate_assignment(doc)
    assert [(r["member"], r["entry"]) for r in generated["fan_triplets"]] == [
        (0, 1),
        (0, 2),
        (1, 2),
    ]
    zorn_inputs(generated)


def test_round_trip_through_json_text():
    doc = validate_document(ZORN_DOC)
    text = dumps_canonical(doc)
    assert dumps_canonical(validate_document(json.loads(text))) == text
