from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from neutrochoice import (
    BoundTooSmallError,
    MissingAssignmentError,
    OutOfRangeError,
    SetFamily,
    SumNotOneError,
    ThresholdOutOfRangeError,
    ThresholdVerdict,
    TieViolationError,
    Triplet,
    Verdict,
    ZornFamily,
    build_choice,
    build_tree,
    build_tree_choice,
    classify,
    classify_threshold,
    find_maximal,
    make_triplet,
    parse_triplet,
    random_triplet,
)
from neutrochoice import triplet as triplet_module
from neutrochoice.documents import family_choice
from neutrochoice.triplet import as_rational, triplet_table
from oracles import _argmax_verdict, reference_as_rational, reference_triplet_error, triplet_pool

unit_range_fractions = st.builds(
    Fraction, st.integers(min_value=-3, max_value=14), st.integers(min_value=1, max_value=12)
)


def test_make_triplet_accepts_valid_components():
    t = make_triplet("6/10", "3/10", "1/10")
    assert t.components() == (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10))


def test_make_triplet_rejects_ties():
    with pytest.raises(TieViolationError):
        make_triplet("1/3", "1/3", "1/3")


def test_make_triplet_rejects_bad_sum():
    with pytest.raises(SumNotOneError):
        make_triplet("1/2", "1/4", "1/8")


def test_make_triplet_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        make_triplet("3/2", "-1/4", "-1/4")


def test_make_triplet_rejects_floats():
    with pytest.raises(TypeError):
        make_triplet(0.6, 0.3, 0.1)


def test_triplet_validates_on_construction():
    with pytest.raises(TieViolationError):
        Triplet(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(TypeError):
        Triplet(0.6, 0.3, 0.1)
    assert Triplet("6/10", "3/10", "1/10").components() == (
        Fraction(3, 5),
        Fraction(3, 10),
        Fraction(1, 10),
    )


@pytest.mark.parametrize(
    "components, error, message, address",
    [
        (("3/2", "-1/4", "-1/4"), OutOfRangeError, "p_chosen=3/2 lies outside [0, 1]", "p_chosen"),
        (("1/4", "-1/4", "1"), OutOfRangeError, "p_not_chosen=-1/4 lies outside [0, 1]", "p_not_chosen"),
        (("1/3", "1/3", "4/3"), OutOfRangeError, "p_indeterminate=4/3 lies outside [0, 1]", "p_indeterminate"),
        (("1/2", "1/4", "1/8"), SumNotOneError, "components sum to 7/8, not 1", None),
        (("1/2", "1/3", "1/3"), SumNotOneError, "components sum to 7/6, not 1", None),
        (("1/3", "1/3", "1/3"), TieViolationError, "components must be pairwise distinct, got (1/3, 1/3, 1/3)", None),
        (("0", "2/4", "1/2"), TieViolationError, "components must be pairwise distinct, got (0/1, 1/2, 1/2)", None),
        (("3/12", "1/2", "1/4"), TieViolationError, "components must be pairwise distinct, got (1/4, 1/2, 1/4)", None),
    ],
)
def test_triplet_errors_keep_their_messages(components, error, message, address):
    with pytest.raises(error) as info:
        make_triplet(*components)
    assert (str(info.value), info.value.address) == (message, address)


def test_as_rational_keeps_every_form_but_exponents():
    for text in ("3/4", " 3/4 ", "-1/3", "0.75", "1_2/16", "1", "+0"):
        assert as_rational(text) == Fraction(text)
    for text in ("75e-2", "0.75E0", "-1e-3000000", " 1E+2 "):
        with pytest.raises(ValueError, match="exponent notation is not accepted; use a 'num/den' string"):
            as_rational(text)


@pytest.fixture
def empty_memo(monkeypatch) -> dict:
    """A fresh ``as_rational`` memo for one test; the process-wide one comes back after it."""
    memo: dict = {}
    monkeypatch.setattr(triplet_module, "_MEMO", memo)
    return memo


def test_as_rational_memo_stores_no_failure(empty_memo):
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            as_rational("1/0")
    assert empty_memo == {}
    assert as_rational("6/12") is as_rational("6/12") == Fraction(1, 2)
    assert empty_memo == {"6/12": Fraction(1, 2)}


def test_as_rational_memo_stays_within_its_bound(empty_memo):
    for n in range(5000):
        assert as_rational(f"{n}/5003") == Fraction(n, 5003)
    assert len(empty_memo) == triplet_module._MEMO_ENTRIES
    assert as_rational("4999/5003") == Fraction(4999, 5003)


def test_as_rational_memo_never_stores_a_long_string(empty_memo):
    long = "7" * 700 + "/3"
    assert as_rational(long) == Fraction(int("7" * 700), 3)
    assert empty_memo == {}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:  # a lower digit limit applies to the string read before
        with pytest.raises(ValueError, match="Exceeds the limit"):
            as_rational(long)
    finally:
        sys.set_int_max_str_digits(limit)


def test_as_rational_memo_keys_on_exact_strings(empty_memo):
    assert as_rational("1") == as_rational(1) == Fraction(1)
    for value in (1.0, True):
        with pytest.raises(TypeError):
            as_rational(value)
    assert list(empty_memo) == ["1"]


def _rational_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the type and the message must both agree
        return type(exc), str(exc)


#: the characters that decide between the ASCII fast path and ``Fraction(str)``
_RATIONAL_ALPHABET = "0123456789/ _+-.eE\u0661\u0662\u00b2\uff13\uff14\t\n"
_rational_sides = st.text(alphabet=_RATIONAL_ALPHABET, max_size=4)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet=_RATIONAL_ALPHABET, max_size=12),
        st.builds("{}/{}".format, _rational_sides, _rational_sides),
    )
)
@example("1/0")
@example("0/0")
@example("/5")
@example("12/")
@example("1/2/3")
@example("")
@example(" 1/2")
@example("1 /2")
@example("+1/2")
@example("-0/1")
@example("1_0/3")
@example("1.5")
@example("007/012")
@example("\u0661/\u0662")
@example("\u00b2/3")
@example("3/\u00b2")
@example("\uff13/\uff14")
@example("7" * 5000)
@example("7" * 5000 + "/3")
@example("3/" + "7" * 5000)
@example("7" * 5000 + "/" + "3" * 5000)
@example("7" * 5000 + "/0")
@example("7" * 4300 + "/" + "3" * 4300)
def test_as_rational_matches_fraction_on_every_string(text):
    expected = _rational_outcome(reference_as_rational, text)
    assert _rational_outcome(as_rational, text) == expected


@given(unit_range_fractions, unit_range_fractions, st.one_of(unit_range_fractions, st.none()))
def test_triplet_checks_match_fraction_arithmetic(i, j, k):
    if k is None:
        k = 1 - i - j
    expected = reference_triplet_error(i, j, k)
    if expected is None:
        triplet = Triplet(i, j, k)
        assert triplet.components() == (i, j, k)
        assert triplet.verdict.value == _argmax_verdict(triplet)
        return
    error, message, address = expected
    with pytest.raises(error) as info:
        Triplet(i, j, k)
    assert (str(info.value), info.value.address) == (message, address)


def test_triplet_table_passes_triplets_and_tags_raw_errors():
    def where(key):
        return f"key {key}", f"at {key}"

    t = make_triplet("6/10", "3/10", "1/10")
    table = triplet_table(["a", "b"], {"a": t, "b": ("1/10", "7/10", "2/10")}, where)
    assert table["a"] is t
    assert table["b"] == make_triplet("1/10", "7/10", "2/10")
    with pytest.raises(MissingAssignmentError) as missing:
        triplet_table(["c"], {}, where)
    assert (str(missing.value), missing.value.address) == ("no triplet assigned to key c", "at c")
    with pytest.raises(SumNotOneError) as invalid:
        triplet_table(["a"], {"a": ("1/2", "1/4", "1/8")}, where)
    assert str(invalid.value).startswith("key a: components sum to 7/8")
    assert invalid.value.address == "at a"


def test_serialize_returns_a_fresh_equal_list_each_call():
    t = make_triplet("6/12", "1/3", "1/6")
    first = t.serialize()
    first.append("changed")
    second = t.serialize()
    assert second == ["1/2", "1/3", "1/6"]
    assert second is not t.serialize()
    assert t == make_triplet("1/2", "1/3", "1/6") and hash(t) == hash(make_triplet("1/2", "1/3", "1/6"))


def test_parse_triplet_requires_three_components():
    with pytest.raises(ValueError):
        parse_triplet(["1/2", "1/2"])


_ENTRY = ("6/10", "3/10", "1/10")

#: every way in for a raw triplet entry, each returning what it builds from one
_ENTRY_POINTS = {
    "parse_triplet": parse_triplet,
    "triplet_table": lambda raw: triplet_table(["k"], {"k": raw}, lambda key: (key, key))["k"],
    "build_choice": lambda raw: build_choice(SetFamily(sets=(("a",),)), {(0, "a"): raw}).triplet(0, "a"),
    "build_tree_choice": lambda raw: build_tree_choice(build_tree([""], 1), {"": raw}).assignment[""],
    "find_maximal": lambda raw: find_maximal(ZornFamily(members=(frozenset(), frozenset("x"))), {(0, 1): raw}),
    # after a list of the same strings: each key's entry is checked on its own
    "family_choice": lambda raw: family_choice(
        {"kind": "family", "sets": [["a", "b"]], "assignment": [{"a": list(_ENTRY), "b": raw}]}
    ).triplet(0, "b"),
}


@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "unordered",
    [lambda: set(_ENTRY), lambda: dict.fromkeys(_ENTRY, 0), lambda: iter(_ENTRY)],
    ids=["set", "dict", "iterator"],
)
def test_a_triplet_entry_is_a_list_or_a_tuple(entry_point, unordered):
    # a set's order is its strings' hashes, a dict's items are its keys: neither is (chosen, not chosen, indeterminate)
    build = _ENTRY_POINTS[entry_point]
    with pytest.raises(TypeError):
        build(unordered())
    assert build(list(_ENTRY)) == build(_ENTRY)


@pytest.mark.parametrize(
    "builder, label",
    [("build_choice", "element 'a' in set 0: "), ("build_tree_choice", "node '': "), ("find_maximal", "fan entry 1 of member 0: ")],
    ids=["build_choice", "build_tree_choice", "find_maximal"],
)
@pytest.mark.parametrize(
    "entry, error",
    [(["1/2", "1/2"], ValueError), (["x", "1/2", "1/2"], ValueError), (["1/0", "1/2", "1/2"], ZeroDivisionError), (set(_ENTRY), TypeError)],
    ids=["two-components", "not-a-number", "zero-denominator", "set"],
)
def test_a_rejected_triplet_entry_names_its_key(builder, label, entry, error):
    with pytest.raises(error) as info:
        _ENTRY_POINTS[builder](entry)
    assert type(info.value) is error and str(info.value).startswith(label)
    assert type(info.value.__cause__) is error


def _element_where(key):
    return f"element {key[1]!r} in set {key[0]}", f"set {key[0]}, element {key[1]!r}"


#: the ways from a raw table keyed ``(0, element)`` to a validated one
_TABLES = {
    "triplet_table": lambda raw: triplet_table(raw, raw, _element_where),
    "build_choice": lambda raw: build_choice(SetFamily(sets=(tuple(e for _, e in raw),)), raw).assignment,
}


@pytest.fixture(params=sorted(_TABLES))
def build(request):
    return _TABLES[request.param]


@pytest.fixture
def parses(monkeypatch) -> list:
    """Every entry ``triplet_table`` hands to ``parse_triplet``."""
    calls: list = []

    def counted(values):
        calls.append(tuple(values))
        return parse_triplet(values)

    monkeypatch.setattr(triplet_module, "parse_triplet", counted)
    return calls


@pytest.mark.parametrize(
    "first, later, message",
    [
        ([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [0.5, Fraction(1, 3), Fraction(1, 6)], "floats are not accepted"),
        ([0, "1/3", "2/3"], [0.0, "1/3", "2/3"], "floats are not accepted"),
        ([0, "1/3", "2/3"], [False, "1/3", "2/3"], "booleans are not probabilities"),
    ],
    ids=["fraction-then-float", "int-then-float", "int-then-bool"],
)
def test_only_all_string_entries_are_stored(parses, build, first, later, message):
    assert tuple(first) == tuple(later)  # a stored first entry would serve the later one
    with pytest.raises(TypeError) as info:
        build({(0, "a"): first, (0, "b"): later})
    assert str(info.value).startswith(f"element 'b' in set 0: {message}")
    assert len(parses) == 2


def test_an_unhashable_item_is_a_miss_that_parse_triplet_rejects(parses, build):
    with pytest.raises(TypeError) as info:
        build({(0, "a"): list(_ENTRY), (0, "b"): [["1/2"], "1/3", "1/6"]})
    assert str(info.value) == "element 'b' in set 0: cannot interpret ['1/2'] as a rational"
    assert type(info.value.__cause__) is TypeError


def test_a_repeated_bad_entry_is_reported_at_its_first_key(parses, build):
    bad = ["1/2", "1/4", "1/8"]
    raw = {(0, "a"): list(_ENTRY), (0, "b"): bad, (0, "c"): list(_ENTRY), (0, "d"): list(bad)}
    for _ in range(2):
        with pytest.raises(SumNotOneError) as info:
            build(raw)
        assert str(info.value) == "element 'b' in set 0: components sum to 7/8, not 1"
        assert info.value.address == "set 0, element 'b'"
    assert parses == [_ENTRY, tuple(bad)] * 2


def test_classify_each_branch():
    assert classify(make_triplet("6/10", "3/10", "1/10")) is Verdict.CHOSEN
    assert classify(make_triplet("1/10", "7/10", "2/10")) is Verdict.NOT_CHOSEN
    assert classify(make_triplet("2/10", "3/10", "5/10")) is Verdict.INDETERMINATE


def test_classify_ignores_representation():
    assert classify(make_triplet("6/10", "3/10", "1/10")) is classify(
        make_triplet("3/5", "30/100", "2/20")
    )


@pytest.mark.parametrize("triplet", triplet_pool(5))
def test_classify_matches_strict_argmax(triplet):
    components = sorted(triplet.components())
    # pairwise distinct, so the maximum is unique
    assert components[2] > components[1]
    expected = {
        triplet.p_chosen: Verdict.CHOSEN,
        triplet.p_not_chosen: Verdict.NOT_CHOSEN,
        triplet.p_indeterminate: Verdict.INDETERMINATE,
    }[components[2]]
    assert classify(triplet) is expected


def test_classify_threshold_examples():
    t = make_triplet("6/10", "3/10", "1/10")
    assert classify_threshold(t, "1/2") is ThresholdVerdict.CHOSEN_AT_THRESHOLD
    assert classify_threshold(t, "6/10") is ThresholdVerdict.CHOSEN_AT_THRESHOLD
    low = make_triplet("1/10", "7/10", "2/10")
    assert classify_threshold(low, "1/2") is ThresholdVerdict.NOT_CHOSEN_AT_THRESHOLD


def test_classify_threshold_rejects_out_of_range():
    t = make_triplet("6/10", "3/10", "1/10")
    with pytest.raises(ThresholdOutOfRangeError):
        classify_threshold(t, "3/2")


@pytest.mark.parametrize("triplet", triplet_pool(4))
def test_threshold_boundaries(triplet):
    # threshold 0 always passes; threshold 1 never does, since p_chosen = 1
    # would force the other two components to tie at 0
    assert classify_threshold(triplet, 0) is ThresholdVerdict.CHOSEN_AT_THRESHOLD
    assert classify_threshold(triplet, 1) is ThresholdVerdict.NOT_CHOSEN_AT_THRESHOLD


def test_unit_choice_probability_is_unconstructible():
    with pytest.raises(TieViolationError):
        make_triplet(1, 0, 0)


def test_random_triplet_is_deterministic():
    first = random_triplet(random.Random(42), 10)
    second = random_triplet(random.Random(42), 10)
    assert first == second
    assert classify(first) in Verdict


def test_random_triplet_sequences_differ_across_seeds():
    a = [random_triplet(random.Random(7), 30) for _ in range(1)]
    b = [random_triplet(random.Random(8), 30) for _ in range(1)]
    # equality is possible in principle; validity is the contract
    for t in a + b:
        make_triplet(*t.components())


def test_random_triplet_rejects_small_bound():
    with pytest.raises(BoundTooSmallError):
        random_triplet(random.Random(42), 3)


def test_random_triplet_fuzz_always_valid():
    rng = random.Random(20240817)
    for _ in range(10_000):
        bound = rng.choice([4, 5, 7, 10, 12, 30])
        t = random_triplet(rng, bound)
        rebuilt = make_triplet(*t.components())
        assert rebuilt == t
        assert all(c.denominator <= bound and bound % c.denominator == 0 for c in t.components())


@given(st.integers(min_value=4, max_value=40), st.integers())
def test_random_triplet_denominators_divide_bound(bound, seed):
    t = random_triplet(random.Random(seed), bound)
    assert sum(t.components()) == 1
    for component in t.components():
        assert bound % component.denominator == 0
