"""Tests of the benchmark itself: corpus determinism, gates, report."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import gates  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from neutrochoice.cli import main as cli_main  # noqa: E402


def _benchmark_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(workload):
    first = [corpus.schedule(workload, 7, number) for number in range(3)]
    assert [corpus.schedule(workload, 7, number) for number in range(3)] == first
    assert corpus.schedule(workload, 8, 0) != first[0]
    assert corpus.units(workload) == corpus.units(workload)
    assert corpus.documents(workload) == corpus.documents(workload)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_a_pass_has_ten_ops_beyond_the_tail_percentile(workload):
    ops = sum(len(unit) for unit in corpus.units(workload))
    assert ops * (100 - run.TAIL) >= 10 * 100


def test_every_workload_is_described_in_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(corpus.WORKLOADS)


def _cli(tmp_path, argv, doc) -> tuple[int, bytes]:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli_main([argv[0], str(path), *argv[1:], "--output", str(out)])
    return code, out.read_bytes()


def _tampered(doc, argv, output: bytes, tamper) -> str | None:
    payload = json.loads(output)
    tamper(payload)
    return gates.semantic(tuple(argv), json.dumps(doc).encode(), json.dumps(payload).encode())


def _family(n=40, seed=3):
    return corpus.family_doc(random.Random(seed), n)


def _swap_in_donor_top(payload):
    pair = payload["outputs"]["plan"]["pairs"][0]
    top = next(m["element"] for m in payload["outputs"]["plan"]["marks"] if m["set"] == pair["donor_index"])
    pair["compensator"] = top


def _move_chosen_element(payload):
    part = next(p for p in payload["outputs"]["partitions"] if p["chosen"])
    part["not_chosen"].append(part["chosen"].pop())


def _drop_element(payload):
    part = next(p for p in payload["outputs"]["partitions"] if p["not_chosen"])
    part["not_chosen"].pop()


def _flip_verdict(payload):
    table = payload["outputs"]["verdicts"][0]
    element = next(iter(table))
    table[element] = "chosen" if table[element] != "chosen" else "not_chosen"


def _tie_a_triplet(payload):
    table = payload["assignment"][0]
    table[next(iter(table))] = ["1/3", "1/3", "1/3"]


@pytest.mark.parametrize(
    "argv, doc, tamper",
    [
        (("allocate",), _family(), _swap_in_donor_top),
        (("partition",), _family(), _move_chosen_element),
        (("partition",), _family(), _drop_element),
        (("classify",), _family(), _flip_verdict),
        (("classify", "--threshold", "1/2"), _family(), _flip_verdict),
        (("check-compensation",), _family(), lambda p: p["outputs"].update(holds=False)),
        (("product-status",), _family(), lambda p: p["outputs"]["status"].update(kind="non_empty_witness")),
        (("generate-assignment",), corpus.family_doc(random.Random(3), 10, with_rng=True), _tie_a_triplet),
    ],
)
def test_family_checks_reject_tampered_output(tmp_path, argv, doc, tamper):
    code, output = _cli(tmp_path, argv, doc)
    assert code == 0
    assert gates.semantic(argv, json.dumps(doc).encode(), output) is None
    assert _tampered(doc, argv, output, tamper) is not None


def _spine():
    return corpus.spine_tree_doc(random.Random(5), 40, 0.85)


def _compensated_stage(payload):
    return next(s for s in payload["outputs"]["trace"]["stages"] if s["compensator"] is not None)


def _unchosen_compensator(payload):
    stage = _compensated_stage(payload)
    stage["compensator"] = stage["node"]


def _claim_chosen(payload):
    stage = _compensated_stage(payload)
    stage["kind"], stage["compensator"] = "chosen_max", None


def _drop_stage(payload):
    payload["outputs"]["trace"]["stages"].pop()


def _repeat_path(payload):
    traces = payload["outputs"]["traces"]
    traces[1] = traces[0]


@pytest.mark.parametrize(
    "argv, doc, tamper",
    [
        (("find-path",), _spine(), _unchosen_compensator),
        (("find-path",), _spine(), _claim_chosen),
        (("find-path",), _spine(), _drop_stage),
        (("enumerate-paths", "--count", "4"), corpus.bushy_tree_doc(random.Random(5), 6, None, 0.9), _repeat_path),
    ],
)
def test_tree_checks_reject_tampered_output(tmp_path, argv, doc, tamper):
    code, output = _cli(tmp_path, argv, doc)
    assert code == 0
    assert gates.semantic(argv, json.dumps(doc).encode(), output) is None
    assert _tampered(doc, argv, output, tamper) is not None


def _drop_successor(payload):
    payload["outputs"]["report"]["successors"].pop()


def _reuse_compensator(payload):
    successors = payload["outputs"]["report"]["successors"]
    compensated = [s for s in successors if s["provenance"] == "compensated"]
    direct = next(s for s in successors if s["provenance"] == "direct")
    compensated[0]["successor"] = direct["successor"]


@pytest.mark.parametrize("tamper", [_drop_successor, _reuse_compensator])
def test_zorn_checks_reject_tampered_output(tmp_path, tamper):
    doc = json.loads(corpus.pool_document("zorn_maximal", "z50", 0))
    code, output = _cli(tmp_path, ("find-maximal",), doc)
    assert code == 0
    assert gates.semantic(("find-maximal",), json.dumps(doc).encode(), output) is None
    assert _tampered(doc, ("find-maximal",), output, tamper) is not None
    assert gates.semantic(("verify-report",), output, b'{"outputs": {"valid": false}}') is not None


def test_gate_rejects_wrong_outcomes():
    op = corpus.Op("inf/0", ("find-maximal",), 1, "CompensationExhausted")
    diagnostic = json.dumps({"diagnostics": [{"type": "CompensationExhausted"}]}).encode()
    assert gates.gate(op, 1, None, diagnostic, "1:CompensationExhausted") is None
    other = json.dumps({"diagnostics": [{"type": "SchemaError"}]}).encode()
    assert gates.gate(op, 1, None, other, "1:CompensationExhausted") is not None
    assert gates.gate(op, 0, None, b"{}", gates.outcome(0, b"{}")) is not None
    assert gates.gate(op, None, "RecursionError", b"", None) is not None
    ok = corpus.Op("s/0", ("allocate",))
    assert gates.gate(ok, 0, None, b"{}", gates.outcome(0, b"{}")) is None
    assert gates.gate(ok, 0, None, b"{} ", gates.outcome(0, b"{}")) is not None
    assert gates.gate(ok, 0, None, b"{}", None) is not None


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "zorn_maximal", "--seed", "1", "--seconds", "0.5", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name in expected:
        assert f"  {name} " in out


def test_traced_report_prints_every_per_layer_metric(capsys):
    tracer = spans.Tracer()
    tracer.active, tracer.op = True, 0
    tracer.span("cli.main", lambda: tracer.leaf("triplet.parse", lambda: None))
    doc = json.dumps(_family(5)).encode()
    result = run.Result(corpus.Op("s/0", ("allocate",)), "k", doc, 0.01, 0, None, b'{"outputs": {"plan": {"pairs": []}}}')
    values = run.per_layer(tracer, [result], [result], 1, 0)

    class Args:
        workload, seed, trace = "family_mix", 1, 1

    run._report(Args, values, run.PER_LAYER, {}, 1, 0, [])
    out = capsys.readouterr().out
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {name: m["unit"] for name, m in _last_json(out)["metrics"].items()} == expected
    assert values["triplet.count"] == 1
    layer_map = json.loads((HERE / "layer_map.json").read_text())["layers"]
    assert set(layer_map) == set(expected)


def test_calibrated_ops_carry_the_calibrations_beside_them(tmp_path):
    runner = run.Runner("zorn_maximal", cli_main, tmp_path, {})
    runner.load({"z30/0": corpus.pool_document("zorn_maximal", "z30", 0)})
    unit = corpus.units("zorn_maximal")[0]
    assert unit[0].doc == "z30/0" and len(unit) == 2
    runner.calibrating = True
    assert all(r.calibration > 0 and r.exit == 0 for r in runner.run_unit(unit))
    runner.calibrating = False
    assert all(r.calibration is None for r in runner.run_unit(unit))
