from __future__ import annotations

import json
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from neutrochoice import BoundTooSmallError, NeutroChoiceError, ParseError, SchemaError, Verdict, classify, construct_path, find_maximal, parse_triplet
from neutrochoice import documents, triplet, zorn
from neutrochoice.documents import (
    dumps_canonical,
    family_choice,
    generate_assignment,
    load_document,
    report_from_json,
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
    rng = {"seed": 7, "denominator_bound": 3}
    # the zorn members contain one another nowhere, so nothing would be drawn
    for doc in ({"kind": "family", "sets": [["a"]], "rng": rng}, {"kind": "zorn", "members": [["1"], ["2"]], "rng": rng}):
        with pytest.raises(BoundTooSmallError) as info:
            generate_assignment(doc)
        assert info.value.address == "rng.denominator_bound"


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


# every code point, lone surrogates among them, which the default alphabet leaves out
any_text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)
json_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**200), 10**300])
    | st.floats()
    | any_text,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(any_text, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(value=json_trees)
@example({1: "a", 2: [], 3: {}})
@example({True: 0})
@example({None: [[]]})
@example({1.5: {"x": ()}, -0.0: [{}], float("nan"): 1})
@example([float("inf"), -float("inf"), float("nan"), 1e-320, 2.0**70])
@example(["\ud800", "\u00e9", "\U0001f600", "\x00\n\"\\"])
@example(["a", 1, "b"])
@example(["a", ["b"], ("c",)])
@example({"p": ["a", 1], "q": ["a", True], "r": ["a", 1.0]})
@example({"p": ["a", "1"], "q": ["a", 1], "r": ["a", True]})
@example({"p": ["a", ["b"]], "q": ["a", ["b"]]})
@example({"p": ["a", "b"], "q": {"r": ["a", "b"], "s": [{"t": ["a", "b"]}]}, "u": ("a", "b")})
@example({"a": None, "b": [None, True, 0, 2**70], "c": {"d": False}, "e": True})
@example([None, False, -1, None])
def test_dumps_canonical_writes_the_bytes_of_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


class _ItemsOnly(dict):
    """A dict whose ``[]`` disagrees with its items; ``json.dumps`` reads the items."""

    def __getitem__(self, key):
        return "not an item"


#: a small key pool, so that a list repeats record shapes, as fan tables and traces do
record_keys = st.sampled_from(["member", "entry", "\u00e9", "\ud800"])
record_trees = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.sampled_from(["x", "\u00e9"])
    | st.lists(st.sampled_from(["1/2", "1/3"]), max_size=3),
    lambda children: st.lists(st.dictionaries(record_keys, children, min_size=1, max_size=2), max_size=8)
    | st.lists(
        st.dictionaries(record_keys, children, max_size=3)
        | st.dictionaries(st.sampled_from([1, True, 1.0, 2.5, None]), children, max_size=1)
        | children,
        max_size=8,
    ),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(value=record_trees)
@example([{"member": 1, "entry": 2}, {"entry": 3, "member": 4}, {"member": 5, "entry": 6}])
@example([{True: 0}, {1: 1}, {1.0: 2}])
@example([{"member": 1}, {"member": 2}, {"member": 3, "entry": 4}, {"member": 5, "entry": 6}, {"entry": 7}])
@example([{"member": 1}, {}, {"member": 2}, {}, {}, {"member": 3}])
@example([{"member": 1}, {"member": 2}, _ItemsOnly(member=3), {"member": 4}])
@example([{"member": 1}, {"member": 2}, {(1,): 3}])
@example([{"member": 1}, {"member": 2}, {"member": 3, 1: 4}])
@example([{"member": ["1/2"]}, {"member": ["1/2"]}, [{"member": ["1/2"]}, {"member": ["1/2"]}], {"entry": ["1/2"]}])
def test_dumps_canonical_writes_runs_of_records_as_json_dumps_does(value):
    try:
        expected = json.dumps(value, sort_keys=True, indent=2) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError) as info:
            dumps_canonical(value)
        assert str(info.value) == str(exc)
    else:
        assert dumps_canonical(value) == expected


def test_a_fan_table_escapes_each_record_key_once(monkeypatch):
    table = [{"member": i, "entry": i + 1, "triplet": ["6/10", "3/10", "1/10"]} for i in range(50)]
    expected = json.dumps({"fan_triplets": table}, sort_keys=True, indent=2) + "\n"
    calls = []
    escape = documents._escape

    def counted(text):
        calls.append(text)
        return escape(text)

    monkeypatch.setattr(documents, "_escape", counted)
    assert dumps_canonical({"fan_triplets": table}) == expected
    # the records share one key plan, so each key is escaped for the first record only
    assert [calls.count(key) for key in ("member", "entry", "triplet")] == [1, 1, 1]


def test_dumps_canonical_writes_a_path_trace_without_json_dumps(monkeypatch):
    doc = validate_document(TREE_DOC)
    payload = {"command": "find-path", "input": doc, "outputs": {"trace": documents.trace_to_json(construct_path(tree_choice(doc)))}}
    assert None in [stage["compensator"] for stage in payload["outputs"]["trace"]["stages"]]
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    calls = []
    dumps = json.dumps

    def counted(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(documents.json, "dumps", counted)
    # strings, ints, string lists and null all have their own paths
    assert dumps_canonical(payload) == expected
    assert calls == []


def test_dumps_canonical_does_not_run_the_python_encoder(monkeypatch):
    payload = {"outputs": {"plan": [{"pairs": [], "n": 1, "ok": True, "skip": None}]}, "input": ZORN_DOC}
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python json encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert dumps_canonical(payload) == expected


@pytest.mark.parametrize(
    "value",
    [{"x": Fraction(1, 2)}, ["a", Fraction(1)], {"x": {1, 2}}, {(1,): 2}, {"a": 1, 2: 3}],
    ids=["fraction", "fraction-in-strings", "set", "tuple-key", "mixed-keys"],
)
def test_dumps_canonical_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as info:
        dumps_canonical(value)
    assert str(info.value) == str(expected.value)


def test_generate_assignment_computes_the_fan_pairs_once(monkeypatch):
    calls = []
    fan_pairs = zorn.fan_pairs

    def counted(family):
        calls.append(family)
        return fan_pairs(family)

    monkeypatch.setattr(zorn, "fan_pairs", counted)
    generated = generate_assignment({"kind": "zorn", "members": ZORN_DOC["members"], "rng": {"seed": 1, "denominator_bound": 10}})
    assert len(calls) == 1
    assert [(r["member"], r["entry"]) for r in generated["fan_triplets"]] == [(0, 1), (0, 2), (1, 2)]


TREE_RNG_DOC = {"kind": "tree", "strings": ["00", "01", "1"], "horizon": 2, "rng": {"seed": 3, "denominator_bound": 10}}
ZORN_RNG_DOC = {"kind": "zorn", "members": ZORN_DOC["members"], "rng": {"seed": 3, "denominator_bound": 10}}


@pytest.mark.parametrize(
    "prepare, doc, build",
    [
        (validate_document, TREE_DOC, tree_choice),
        (generate_assignment, TREE_RNG_DOC, tree_choice),
        (validate_document, ZORN_DOC, zorn_inputs),
        (generate_assignment, ZORN_RNG_DOC, zorn_inputs),
    ],
    ids=["tree", "tree-rng", "zorn", "zorn-rng"],
)
def test_a_canonical_document_builds_as_its_json_copy(prepare, doc, build):
    canonical = prepare(doc)
    # the core validation attaches is no key, so the copy drops it
    copy = json.loads(json.dumps(canonical))
    assert canonical == copy and dumps_canonical(canonical) == dumps_canonical(copy)
    assert build(canonical) == build(copy)
    assert build(canonical) == build(copy)  # a build leaves the document as it found it


@pytest.mark.parametrize(
    "doc, structure",
    [(TREE_DOC, lambda doc: tree_choice(doc).tree), (ZORN_DOC, lambda doc: zorn_inputs(doc)[0])],
    ids=["tree", "zorn"],
)
def test_a_document_lets_go_of_the_structure_it_handed_over(doc, structure):
    canonical = validate_document(doc)
    handed_over = weakref.ref(structure(canonical))
    # the builders for plain dicts build from the document's keys: the document holds nothing they return
    assert handed_over() is None


def outcome(call, *args):
    """``call(*args)``, or its error's type and text."""
    try:
        return call(*args)
    except NeutroChoiceError as exc:
        return type(exc), str(exc)


def edited_outcome(build, doc, edit):
    """``build``'s result, or its error's type and text, on ``doc`` after ``edit``."""
    edit(doc)
    return outcome(build, doc)


BUSHY_TREE = {
    "kind": "tree",
    "strings": ["00", "01", "10", "11"],
    "horizon": 2,
    "assignment": {node: ["6/10", "3/10", "1/10"] for node in ["", "0", "1", "00", "01", "10", "11"]},
}


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize(
    "doc, build, edit",
    [
        (BUSHY_TREE, tree_choice, _set("strings", ["", "0", "1", "00", "01", "10"])),
        (BUSHY_TREE, tree_choice, _set("strings", ["", "0", "1", "00", "01", "10", "11", "111"])),
        (BUSHY_TREE, tree_choice, _set("strings", ["", "0", "1", "01", "00", "10", "11"])),
        (BUSHY_TREE, tree_choice, lambda doc: doc["strings"].pop()),
        (BUSHY_TREE, tree_choice, lambda doc: doc["strings"].__setitem__(-1, "111")),
        (BUSHY_TREE, tree_choice, _set("horizon", 3)),
        (BUSHY_TREE, tree_choice, _set("horizon", 1)),
        (ZORN_DOC, zorn_inputs, _set("members", [[], ["1"]])),
        (ZORN_DOC, zorn_inputs, _set("members", [["1", "2"], ["1"], []])),
        (ZORN_DOC, zorn_inputs, lambda doc: doc["members"][1].append("3")),
        (ZORN_DOC, zorn_inputs, lambda doc: doc["members"].append(["4"])),
    ],
    ids=[
        "strings-fewer", "strings-deeper", "strings-reordered", "strings-popped", "strings-item-replaced",
        "horizon-raised", "horizon-lowered",
        "members-fewer", "members-reordered", "member-grown", "members-appended",
    ],
)
def test_an_edited_canonical_document_never_yields_a_stale_structure(doc, build, edit):
    canonical = validate_document(doc)
    plain = json.loads(json.dumps(canonical))  # builds every structure afresh
    assert edited_outcome(build, canonical, edit) == edited_outcome(build, plain, edit)


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
    """Record every ``parse_triplet`` call made by the documents module
    (validation) or by ``triplet_table`` (the builders, one per raw key)."""
    calls: list = []

    def counted(values):
        calls.append(tuple(values))
        return parse_triplet(values)

    monkeypatch.setattr(documents, "parse_triplet", counted)
    monkeypatch.setattr(triplet, "parse_triplet", counted)
    return calls


@pytest.mark.parametrize(
    "doc, build",
    [
        (repeating_family(), family_choice),
        (repeating_tree(), tree_choice),
        # member 8 has no compensator left, so the outcome is an error raised after the parses
        (repeating_zorn(), lambda doc: outcome(find_maximal, *zorn_inputs(doc))),
    ],
    ids=["family", "tree", "zorn"],
)
def test_each_distinct_triplet_is_parsed_once_per_call(monkeypatch, doc, build):
    calls = count_parses(monkeypatch)
    canonical = validate_document(doc)
    assert sorted(set(calls)) == sorted(tuple(t) for t in REPEATED)
    assert len(calls) == len(REPEATED)
    calls.clear()
    build(canonical)  # the builders keep no memo: one parse per raw key
    assert len(calls) == len(canonical.core.triplets)
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


@pytest.mark.parametrize(
    "later, message",
    [
        (dict.fromkeys(["6/10", "3/10", "1/10"]), "triplet must be a 3-item list"),
        (("6/10", "3/10", "1/10"), "triplet must be a 3-item list"),
        ([["1/2"], "1/3", "1/6"], "triplet components must be 'num/den' strings"),
    ],
    ids=["object-with-the-strings-as-keys", "tuple", "unhashable-item"],
)
def test_a_known_triplet_admits_only_an_equal_list(later, message):
    # the first entry puts ("6/10", "3/10", "1/10") in validation's table of known triplets
    doc = {
        "kind": "family",
        "sets": [["a", "b"]],
        "assignment": [{"a": ["6/10", "3/10", "1/10"], "b": later}],
    }
    with pytest.raises(SchemaError) as info:
        validate_document(doc)
    assert (str(info.value), info.value.address) == (message, "assignment[0]['b']")


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
    family, entries = zorn_inputs(zorn)
    assert entries == {(record["member"], record["entry"]): record["triplet"] for record in zorn["fan_triplets"]}
    parsed = {pair: parse_triplet(values) for pair, values in entries.items()}
    # seeds 1 and 2 exhaust the compensators, seed 3 finds a report
    assert outcome(find_maximal, family, entries) == outcome(find_maximal, family, parsed)


def test_builders_do_not_reuse_a_triplet_for_an_equal_float():
    half = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    doc = {"sets": [["a", "b"]], "assignment": [{"a": half, "b": [0.5, *half[1:]]}]}
    with pytest.raises(TypeError):
        family_choice(doc)


def edited(doc: dict, **changes) -> dict:
    """A deep copy of ``doc`` with top-level keys replaced (``None`` deletes)."""
    out = json.loads(json.dumps(doc))
    for key, value in changes.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


GOOD = ["6/10", "3/10", "1/10"]
ONE_SET = {"kind": "family", "sets": [["a"]]}
REPORT = {"maximal": [2], "successors": []}

# One malformed input per schema check: (function, input, (message, address)).
SCHEMA_ERRORS = {
    "kind": (validate_document, {"kind": "nope"}, ("kind must be one of ['family', 'tree', 'zorn']", "kind")),
    "table-or-rng": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=None),
        ("exactly one of 'fan_triplets' or 'rng' must be present", "fan_triplets"),
    ),
    "rng-object": (validate_document, {**ONE_SET, "rng": 5}, ("rng must be an object", "rng")),
    "rng-seed": (
        validate_document,
        {**ONE_SET, "rng": {"seed": True, "denominator_bound": 10}},
        ("rng.seed must be an integer", "rng.seed"),
    ),
    "rng-bound": (
        validate_document,
        {**ONE_SET, "rng": {"seed": 1, "denominator_bound": "10"}},
        ("rng.denominator_bound must be an integer", "rng.denominator_bound"),
    ),
    "rng-bound-range": (
        validate_document,
        {**ONE_SET, "rng": {"seed": 1, "denominator_bound": 2**70}},
        (f"rng.denominator_bound must be at most {sys.maxsize - 2}", "rng.denominator_bound"),
    ),
    "family-sets": (
        validate_document,
        edited(FAMILY_DOC, sets=[]),
        ("family document needs a non-empty 'sets' list", "sets"),
    ),
    "family-set-empty": (
        validate_document,
        edited(FAMILY_DOC, sets=[["1", "2"], []]),
        ("set 1 must be a non-empty list", "sets[1]"),
    ),
    "family-set-element": (
        validate_document,
        edited(FAMILY_DOC, sets=[["1", "2"], ["a", 1]]),
        ("set 1 elements must be strings", "sets[1]"),
    ),
    "family-set-duplicate": (
        validate_document,
        edited(FAMILY_DOC, sets=[["1", "2"], ["a", "a"]]),
        ("set 1 lists a duplicate element", "sets[1]"),
    ),
    "family-assignment-length": (
        validate_document,
        edited(FAMILY_DOC, assignment=FAMILY_DOC["assignment"][:1]),
        ("assignment must list one object per set", "assignment"),
    ),
    "family-assignment-object": (
        validate_document,
        edited(FAMILY_DOC, assignment=[FAMILY_DOC["assignment"][0], 5]),
        ("assignment[1] must be an object", "assignment[1]"),
    ),
    "family-assignment-missing": (
        validate_document,
        edited(FAMILY_DOC, assignment=[FAMILY_DOC["assignment"][0], {"a": GOOD}]),
        ("assignment[1] is missing element 'b'", "assignment[1]['b']"),
    ),
    "family-assignment-extra": (
        validate_document,
        edited(FAMILY_DOC, assignment=[FAMILY_DOC["assignment"][0], {"a": GOOD, "b": GOOD, "c": GOOD}]),
        ("assignment[1] names elements outside set 1", "assignment[1]"),
    ),
    "family-triplet-length": (
        validate_document,
        edited(FAMILY_DOC, assignment=[FAMILY_DOC["assignment"][0], {"a": GOOD, "b": GOOD[:2]}]),
        ("triplet must be a 3-item list", "assignment[1]['b']"),
    ),
    "family-triplet-strings": (
        validate_document,
        edited(FAMILY_DOC, assignment=[FAMILY_DOC["assignment"][0], {"a": GOOD, "b": [1, 2, 3]}]),
        ("triplet components must be 'num/den' strings", "assignment[1]['b']"),
    ),
    "tree-strings": (
        validate_document,
        edited(TREE_DOC, strings=None),
        ("tree document needs a 'strings' list", "strings"),
    ),
    "tree-horizon": (validate_document, edited(TREE_DOC, horizon=True), ("horizon must be a positive integer", "horizon")),
    "tree-binary": (
        validate_document,
        edited(TREE_DOC, strings=["11", "1a"]),
        ("strings[1] must be a binary string", "strings[1]"),
    ),
    "tree-not-string": (
        validate_document,
        edited(TREE_DOC, strings=["11", 10]),
        ("strings[1] must be a binary string", "strings[1]"),
    ),
    "tree-longer": (
        validate_document,
        edited(TREE_DOC, strings=["11", "011"]),
        ("strings[1] is longer than the horizon", "strings[1]"),
    ),
    "tree-assignment-object": (
        validate_document,
        edited(TREE_DOC, assignment=[]),
        ("assignment must be an object", "assignment"),
    ),
    "tree-assignment-missing": (
        validate_document,
        edited(TREE_DOC, assignment={"": GOOD, "11": GOOD}),
        ("assignment is missing node '1'", "assignment['1']"),
    ),
    "tree-assignment-extra": (
        validate_document,
        edited(TREE_DOC, assignment={**TREE_DOC["assignment"], "0": GOOD}),
        ("assignment names nodes outside the tree", "assignment"),
    ),
    "tree-triplet-length": (
        validate_document,
        edited(TREE_DOC, assignment={**TREE_DOC["assignment"], "1": "6/10"}),
        ("triplet must be a 3-item list", "assignment['1']"),
    ),
    "tree-triplet-invalid": (
        validate_document,
        edited(TREE_DOC, assignment={**TREE_DOC["assignment"], "1": ["1/2", "1/4", "1/8"]}),
        ("invalid triplet at assignment['1']: components sum to 7/8, not 1", "assignment['1']"),
    ),
    "zorn-members": (
        validate_document,
        edited(ZORN_DOC, members=[]),
        ("zorn document needs a non-empty 'members' list", "members"),
    ),
    "zorn-member-list": (
        validate_document,
        edited(ZORN_DOC, members=[[], "1"]),
        ("members[1] must be a list", "members[1]"),
    ),
    "zorn-member-element": (
        validate_document,
        edited(ZORN_DOC, members=[[], [1]]),
        ("members[1] elements must be strings", "members[1]"),
    ),
    "zorn-member-duplicate": (
        validate_document,
        edited(ZORN_DOC, members=[[], ["1", "1"]]),
        ("members[1] lists a duplicate element", "members[1]"),
    ),
    "zorn-members-distinct": (
        validate_document,
        edited(ZORN_DOC, members=[[], ["1", "2"], ["2", "1"]]),
        ("members must be distinct as sets", "members"),
    ),
    "zorn-table-list": (
        validate_document,
        edited(ZORN_DOC, fan_triplets={}),
        ("fan_triplets must be a list", "fan_triplets"),
    ),
    "zorn-record-object": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=[ZORN_DOC["fan_triplets"][0], 5]),
        ("fan_triplets[1] must be an object", "fan_triplets[1]"),
    ),
    "zorn-record-indices": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=[ZORN_DOC["fan_triplets"][0], {"member": 0, "entry": "2"}]),
        ("fan_triplets[1] needs integer 'member' and 'entry' indices", "fan_triplets[1]"),
    ),
    "zorn-record-bool-index": (
        validate_document,
        # (True, 2) hashes and compares as the fan pair (1, 2)
        edited(ZORN_DOC, fan_triplets=[ZORN_DOC["fan_triplets"][0], {"member": True, "entry": 2}]),
        ("fan_triplets[1] needs integer 'member' and 'entry' indices", "fan_triplets[1]"),
    ),
    "zorn-record-superset": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=[ZORN_DOC["fan_triplets"][0], {"member": 2, "entry": 1}]),
        ("fan_triplets[1]: member 1 is not a strict superset of member 2", "fan_triplets[1]"),
    ),
    "zorn-record-duplicate": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=[ZORN_DOC["fan_triplets"][0]] * 2),
        ("fan_triplets[1] duplicates a pair", "fan_triplets[1]"),
    ),
    "zorn-record-missing": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=ZORN_DOC["fan_triplets"][:1] + ZORN_DOC["fan_triplets"][2:]),
        ("fan_triplets is missing the pair (member 0, entry 2)", "fan_triplets(0,2)"),
    ),
    "zorn-triplet-absent": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=[ZORN_DOC["fan_triplets"][0], {"member": 0, "entry": 2}]),
        ("triplet must be a 3-item list", "fan_triplets[1].triplet"),
    ),
    "zorn-triplet-invalid": (
        validate_document,
        edited(ZORN_DOC, fan_triplets=[{"member": 0, "entry": 1, "triplet": ["1/3", "1/3", "1/3"]}]),
        (
            "invalid triplet at fan_triplets[0].triplet: components must be pairwise distinct, got (1/3, 1/3, 1/3)",
            "fan_triplets[0].triplet",
        ),
    ),
    "generate-no-rng": (generate_assignment, FAMILY_DOC, ("document has no rng block to generate from", "rng")),
    "report-object": (report_from_json, [], ("report must be an object", "report")),
    "report-maximal": (
        report_from_json,
        {"maximal": [True], "successors": []},
        ("report.maximal must list member indices", "report.maximal"),
    ),
    "report-successors": (
        report_from_json,
        {"maximal": [2]},
        ("report.successors must be a list", "report.successors"),
    ),
    "report-record-object": (
        report_from_json,
        {**REPORT, "successors": [{"member": 0, "successor": 2, "provenance": "direct"}, 5]},
        ("successors[1] must be an object", "report.successors[1]"),
    ),
    "report-record-indices": (
        report_from_json,
        {**REPORT, "successors": [{"member": 0, "successor": None, "provenance": "direct"}]},
        ("successors[0] needs integer 'member' and 'successor'", "report.successors[0]"),
    ),
    "report-record-provenance": (
        report_from_json,
        {**REPORT, "successors": [{"member": 0, "successor": 2, "provenance": "chosen"}]},
        ("successors[0].provenance must be 'direct' or 'compensated'", "report.successors[0].provenance"),
    ),
    "report-record-duplicate": (
        report_from_json,
        {**REPORT, "successors": [{"member": 0, "successor": 2, "provenance": "direct"}] * 2},
        ("successors[1] duplicates member 0", "report.successors[1]"),
    ),
}


@pytest.mark.parametrize("check", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS.keys())
def test_every_schema_check_keeps_its_message_and_address(check):
    function, raw, (message, address) = check
    with pytest.raises(SchemaError) as info:
        function(raw)
    assert (type(info.value), str(info.value), info.value.address) == (SchemaError, message, address)
