from __future__ import annotations

import json
from fractions import Fraction

import pytest

from neutrochoice import BoundTooSmallError, ParseError, SchemaError, Verdict, classify, parse_triplet
from neutrochoice import documents
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


# Three distinct triplets, repeated over every entry of the documents below.
REPEATED = [["6/10", "3/10", "1/10"], ["1/10", "7/10", "2/10"], ["2/10", "3/10", "5/10"]]


def repeating_family() -> dict:
    sets = [[f"e{j}" for j in range(3)] for _ in range(60)]
    assignment = [
        {element: list(REPEATED[(i + j) % 3]) for j, element in enumerate(raw_set)}
        for i, raw_set in enumerate(sets)
    ]
    return {"kind": "family", "sets": sets, "assignment": assignment}


def repeating_tree() -> dict:
    leaves = [format(n, "05b") for n in range(32)]
    nodes = {leaf[:cut] for leaf in leaves for cut in range(6)}
    assignment = {node: list(REPEATED[len(node) % 3]) for node in nodes}
    return {"kind": "tree", "strings": leaves, "horizon": 5, "assignment": assignment}


def repeating_zorn() -> dict:
    members = [[str(atom) for atom in range(size)] for size in range(10)]
    fan_triplets = [
        {"member": m, "entry": e, "triplet": list(REPEATED[(m + e) % 3])}
        for m in range(10)
        for e in range(m + 1, 10)
    ]
    return {"kind": "zorn", "members": members, "fan_triplets": fan_triplets}


def count_parses(monkeypatch) -> list:
    """Record every call the documents module makes to ``parse_triplet``."""
    calls: list = []

    def counted(values):
        calls.append(tuple(values))
        return parse_triplet(values)

    monkeypatch.setattr(documents, "parse_triplet", counted)
    return calls


@pytest.mark.parametrize(
    "doc, build",
    [
        (repeating_family(), family_choice),
        (repeating_tree(), tree_choice),
        (repeating_zorn(), zorn_inputs),
    ],
    ids=["family", "tree", "zorn"],
)
def test_each_distinct_triplet_is_parsed_once_per_call(monkeypatch, doc, build):
    calls = count_parses(monkeypatch)
    canonical = validate_document(doc)
    assert sorted(set(calls)) == sorted(tuple(t) for t in REPEATED)
    assert len(calls) == len(REPEATED)
    calls.clear()
    build(canonical)
    assert 0 < len(calls) <= len(REPEATED)
    calls.clear()
    assert validate_document(doc) == canonical  # a new call parses afresh
    assert len(calls) == len(REPEATED)


def test_spellings_of_one_triplet_share_canonical_form_and_verdict():
    doc = {
        "kind": "family",
        "sets": [["a", "b", "c"]],
        "assignment": [
            {"a": ["6/12", "4/12", "2/12"], "b": ["1/2", "1/3", "1/6"], "c": ["3/6", "2/6", "1/6"]}
        ],
    }
    canonical = validate_document(doc)
    assert list(canonical["assignment"][0].values()) == [["1/2", "1/3", "1/6"]] * 3
    choice = family_choice(canonical)
    assert {classify(choice.triplet(0, e)) for e in "abc"} == {Verdict.CHOSEN}


@pytest.mark.parametrize(
    "bad, message",
    [
        (["1/2", "1/4", "1/8"], "components sum to 7/8, not 1"),
        (["1/3", "1/3", "1/3"], "components must be pairwise distinct, got (1/3, 1/3, 1/3)"),
        (["3/2", "-1/4", "-1/4"], "p_chosen=3/2 lies outside [0, 1]"),
    ],
    ids=["sum", "tie", "range"],
)
def test_repeated_invalid_triplet_reports_its_first_address(bad, message):
    doc = {
        "kind": "family",
        "sets": [["a", "b"], ["c"]],
        "assignment": [{"a": ["6/10", "3/10", "1/10"], "b": list(bad)}, {"c": list(bad)}],
    }
    for _ in range(2):
        with pytest.raises(SchemaError) as info:
            validate_document(doc)
        assert str(info.value) == f"invalid triplet at assignment[0]['b']: {message}"
        assert info.value.address == "assignment[0]['b']"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_builders_match_a_per_entry_parse(seed):
    rng = {"seed": seed, "denominator_bound": 12}
    family = generate_assignment({"kind": "family", "sets": repeating_family()["sets"], "rng": rng})
    assert family_choice(family).assignment == {
        (i, element): parse_triplet(values)
        for i, table in enumerate(family["assignment"])
        for element, values in table.items()
    }
    tree = generate_assignment({"kind": "tree", "strings": ["0" * 6, "1" * 6], "horizon": 6, "rng": rng})
    assert tree_choice(tree).assignment == {
        node: parse_triplet(values) for node, values in tree["assignment"].items()
    }
    zorn = generate_assignment({"kind": "zorn", "members": repeating_zorn()["members"], "rng": rng})
    assert zorn_inputs(zorn)[1] == {
        (record["member"], record["entry"]): parse_triplet(record["triplet"])
        for record in zorn["fan_triplets"]
    }


def test_builders_do_not_reuse_a_triplet_for_an_equal_float():
    half = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    doc = {"sets": [["a", "b"]], "assignment": [{"a": half, "b": [0.5, *half[1:]]}]}
    with pytest.raises(TypeError):
        family_choice(doc)
