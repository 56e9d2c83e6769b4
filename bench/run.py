"""Benchmark of the neutrochoice command line on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload family_mix --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one caller: every op is one
in-process ``neutrochoice.cli.main`` call on a generated document, and the
next op starts when the previous one returns, as a user waiting on the CLI
would.  The library is imported from ``src/`` next to this directory; the
run stops with status 2 and no result when it is not there.

``--trace 0`` runs passes over the workload's ops for ``--seconds`` of op
time (with the calibrations and collections around each op) and reports the end-to-end metrics.  Every pass makes the same ops in
a seeded order.  On a shared machine a neighbour can slow a virtual CPU by
up to half, in spells from a tenth of a second to minutes, so every op is
timed between two runs of a fixed piece of stdlib work (``_calibrate``):
an op's time divided by the mean of the two calibrations beside it is
steady, and times are reported at the speed at which a calibration takes
``REFERENCE_CALIBRATION_S``.  An op's latency is the median of these
scaled times over the passes.

``--trace 1`` runs whole passes over the same ops, each op once untraced
and once with spans around the library's public calls (see ``spans.py``),
and reports per-layer metrics per pass plus the tracing overhead.

Every op is gated (see ``gates.py``): an uncaught exception, a wrong exit
status or diagnostic type, an output that differs from the seed commit's,
or a failed re-verification makes it a failed op.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

#: An op still running after this long is stopped and counted as failed.
OP_LIMIT_S = 60
#: Reported times are scaled to a machine on which one ``_calibrate()``
#: takes this long; on the 2-vCPU machine of the baseline it took 1.1 ms at
#: the fastest and about 2 ms at the median.
REFERENCE_CALIBRATION_S = 1.5e-3
#: Tail percentile: a pass makes at least 100 ops, so ten or more lie beyond.
TAIL = 90

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    f"latency_p{TAIL}_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: per-layer metric -> span names whose self time it sums (ms per pass)
SELF_TIME = {
    "cli.self_ms": ("cli.main",),
    "documents.load_ms": ("documents.load_document",),
    "documents.validate_ms": ("documents.validate_document",),
    "documents.generate_ms": ("documents.generate_assignment",),
    "documents.to_core_ms": ("documents.to_core", "documents.report_from_json"),
    "documents.dumps_ms": ("documents.dumps_canonical", "documents.to_json"),
    "family.build_choice_ms": ("family.build_choice",),
    "family.check_ms": ("family.check_compensation",),
    "family.allocate_ms": ("family.allocate_compensators",),
    "family.product_status_ms": ("family.product_status",),
    "family.verify_plan_ms": ("family.verify_plan",),
    "tree.build_ms": ("tree.build",),
    "tree.construct_path_ms": ("tree.construct_path",),
    "tree.enumerate_paths_ms": ("tree.enumerate_paths",),
    "tree.verify_trace_ms": ("tree.verify_trace",),
    "zorn.fan_pairs_ms": ("zorn.fan_pairs",),
    "zorn.find_maximal_ms": ("zorn.find_maximal",),
    "zorn.verify_report_ms": ("zorn.verify_report",),
}
#: per-call calls summed per op: metric -> leaf name
LEAF_TIME = {
    "triplet.parse_ms": "triplet.parse",
    "triplet.classify_ms": "triplet.classify",
    "family.partition_ms": "family.partition_set",
}
COUNTS = (
    "triplet.count",
    "family.recipients",
    "family.pool_size",
    "tree.compensated_stages",
    "tree.nodes",
    "tree.recursion_errors",
    "zorn.compensated",
    "zorn.exhausted",
    "documents.bytes_in",
    "documents.bytes_out",
    "cli.exit1",
    "cli.exit2",
    "cli.crashes",
)
#: log-log slope of an algorithm's self time against input size:
#: metric -> (command, span name)
SLOPES = {
    "family.allocate_exp": ("allocate", "family.allocate_compensators"),
    "tree.construct_path_exp": ("find-path", "tree.construct_path"),
    "zorn.find_maximal_exp": ("find-maximal", "zorn.find_maximal"),
}
#: the library verifiers the re-check times in a traced run; the CLI never
#: calls them itself
VERIFY_SPANS = frozenset({"family.verify_plan", "tree.verify_trace"})

PER_LAYER = {
    **{name: "ms" for name in SELF_TIME},
    **{name: "ms" for name in LEAF_TIME},
    **{name: "count" for name in COUNTS},
    **{name: "exponent" for name in SLOPES},
    "trace.overhead_pct": "%",
}
PER_LAYER["documents.bytes_in"] = PER_LAYER["documents.bytes_out"] = "bytes"


class OpTimeout(Exception):
    """An op ran past ``OP_LIMIT_S``."""


def _timeout(signum, frame):
    raise OpTimeout(f"op ran longer than {OP_LIMIT_S} s")


@dataclass
class Result:
    op: corpus.Op
    key: str
    document: bytes
    seconds: float
    exit: int | None
    crash: str | None
    output: bytes
    failure: str | None = None
    #: mean seconds of the calibrations just before and after the op, when
    #: the run calibrates
    calibration: float | None = None


class Runner:
    """Runs a workload's ops against the imported CLI inside ``work``."""

    def __init__(self, workload: str, cli_main, work: Path, reference: dict, tracer=None):
        self.workload = workload
        self.main = cli_main
        self.work = work
        self.reference = reference
        self.tracer = tracer
        self.documents: dict[str, bytes] = {}
        self._keys: dict[tuple, str] = {}
        #: calibrate around every op; ``_last_calibration`` is the one run
        #: just after the previous op, reused as the next op's "before"
        #: until other work breaks the sequence (``calibration_break``)
        self.calibrating = False
        self._last_calibration: float | None = None

    def load(self, docs: dict[str, bytes]) -> None:
        """Write the pool documents where the ops read them."""
        (self.work / "docs").mkdir(parents=True, exist_ok=True)
        (self.work / "out").mkdir(exist_ok=True)
        for name, data in docs.items():
            self._doc_path(name).write_bytes(data)
        self.documents = docs

    def calibration_break(self) -> None:
        """The next op is not run right after the previous one."""
        self._last_calibration = None

    def _doc_path(self, name: str) -> Path:
        return self.work / "docs" / (name.replace("/", "-") + ".json")

    def run_unit(self, unit, traced_op: int | None = None) -> list[Result]:
        """Run one unit; an op without a document reads the previous op's
        result file.  With ``traced_op`` set, every call is a traced span
        and the unit's ops get ids ``traced_op``, ``traced_op + 1``, ..."""
        import gates

        results: list[Result] = []
        for position, op in enumerate(unit):
            if op.doc is not None:
                path, document = self._doc_path(op.doc), self.documents[op.doc]
                if (op.doc, op.argv) not in self._keys:
                    self._keys[(op.doc, op.argv)] = gates.op_key(op.argv, document)
                key = self._keys[(op.doc, op.argv)]
            else:
                path, document = self.work / "out" / f"{position - 1}.json", results[-1].output
                key = gates.op_key(op.argv, document)
            out_path = self.work / "out" / f"{position}.json"
            argv = [op.argv[0], str(path), *op.argv[1:]]
            if op.argv[0] == "find-maximal":
                argv += ["--output", str(out_path)]
            else:
                out_path = None
            op_id = None if traced_op is None else traced_op + position
            before = self._last_calibration
            if self.calibrating and before is None:
                before = _calibrate()
            results.append(Result(op, key, document, *self._execute(argv, out_path, op_id)))
            if self.calibrating:
                self._last_calibration = _calibrate()
                results[-1].calibration = (before + self._last_calibration) / 2
        return results

    def _execute(self, argv, out_path: Path | None, traced_op: int | None):
        if out_path is not None and out_path.exists():
            out_path.unlink()
        # every op starts from a collected heap, whatever ran before it
        gc.collect()
        buf = io.StringIO()
        call = self.main
        if traced_op is not None:
            self.tracer.active, self.tracer.op = True, traced_op
            call = lambda a: self.tracer.span("cli.main", self.main, a)  # noqa: E731
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code, crash = call(argv), None
        except (Exception, SystemExit) as exc:  # RecursionError, OpTimeout, argparse exits
            code, crash = None, type(exc).__name__
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.active = False
        if out_path is not None:
            output = out_path.read_bytes() if out_path.exists() else b""
        else:
            output = buf.getvalue().encode()
        return elapsed, code, crash, output

    def gate(self, result: Result) -> None:
        import gates

        result.failure = gates.gate(result.op, result.exit, result.crash, result.output, self.reference.get(result.key))


def _calibrate() -> float:
    """Seconds taken by a fixed piece of stdlib work of the kind the library
    does: Fraction arithmetic, a dict and a JSON round trip, about 1-2 ms."""
    start = perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total += Fraction(i % 13, i % 17 + 1)
        table[f"k{i}"] = [i, str(total.numerator % 97)]
    json.loads(json.dumps(table))
    return perf_counter() - start


def _scaled(seconds: float, calibration: float) -> float:
    """``seconds`` as they would read where a calibration takes
    ``REFERENCE_CALIBRATION_S``."""
    return seconds / calibration * REFERENCE_CALIBRATION_S


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import neutrochoice
    from neutrochoice import cli, documents, family, tree, zorn

    if Path(neutrochoice.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"neutrochoice was imported from {neutrochoice.__file__}, not from {src}")
    return cli, {"cli": cli, "documents": documents, "family": family, "tree": tree, "zorn": zorn}


def _load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)["outcomes"]


def _setup(runner: Runner) -> float:
    """Generate the pool, write it and warm up; returns the seconds taken.
    Each step (a class's documents, the writing, a warm-up unit) is scaled
    by the calibrations beside it, as ops are.  Every set-up of a run must
    give the same pool."""
    calibrating, runner.calibrating = runner.calibrating, False
    total, before = 0.0, _calibrate()

    def step(work):
        nonlocal total, before
        start = perf_counter()
        value = work()
        seconds = perf_counter() - start
        after = _calibrate()
        total += _scaled(seconds, (before + after) / 2)
        before = after
        return value

    docs = {}
    for cls in corpus.pool_sizes(runner.workload):
        docs.update(step(lambda: corpus.class_documents(runner.workload, cls)))
    if runner.documents and docs != runner.documents:
        raise RuntimeError("the corpus generator is not deterministic")
    step(lambda: runner.load(docs))
    for unit in _warm_units(corpus.units(runner.workload), docs):
        step(lambda: runner.run_unit(unit))
    runner.calibrating = calibrating
    runner.calibration_break()
    return total


def _warm_units(units, documents):
    """The smallest unit of each command, so every code path is loaded."""
    smallest: dict[str, tuple] = {}
    for unit in units:
        command = unit[0].argv[0]
        size = len(documents[unit[0].doc])
        if command not in smallest or size < smallest[command][0]:
            smallest[command] = (size, unit)
    return [unit for _, unit in smallest.values()]


def _check(runner: Runner, results: list[Result], checked: dict) -> None:
    """Re-verify each distinct successful output once and mark failures."""
    import gates

    for result in results:
        if result.failure is None and result.exit == 0:
            mark = (result.key, gates.outcome(0, result.output))
            if mark not in checked:
                checked[mark] = gates.semantic(result.op.argv, result.document, result.output)
            result.failure = checked[mark]


def _measure(runner: Runner, seed: int, seconds: float) -> tuple[list[float], list[Result], list[float]]:
    """Passes for ``seconds`` of op and calibration time, the first always
    whole; returns each op's median scaled time, every op run and the
    scaled set-up times.

    The pool is set up before the first pass and again after each pass, so
    ``setup_s`` samples the whole run rather than one stretch of it.  Each
    distinct output is re-verified when it first appears, outside the
    measured time, and bytes are dropped once checked, so the peak memory
    is the library's rather than the benchmark's."""
    units = corpus.units(runner.workload)
    scaled: list[list[list[float]]] = [[[] for _ in unit] for unit in units]
    results: list[Result] = []
    checked: dict = {}
    runner.calibrating = True
    setups = [_setup(runner)]
    deadline = perf_counter() + seconds
    number = 0
    while number == 0 or perf_counter() < deadline:
        for index in corpus.schedule(runner.workload, seed, number):
            if number and perf_counter() >= deadline:
                break
            done = runner.run_unit(units[index])
            checking = perf_counter()
            for position, result in enumerate(done):
                scaled[index][position].append(_scaled(result.seconds, result.calibration))
                runner.gate(result)
            _check(runner, done, checked)
            for result in done:
                result.document = result.output = b""
            runner.calibration_break()
            deadline += perf_counter() - checking
            results.extend(done)
        checking = perf_counter()
        setups.append(_setup(runner))
        deadline += perf_counter() - checking
        number += 1
    runner.calibrating = False
    return [statistics.median(times) for unit in scaled for times in unit], results, setups


def _measure_traced(runner: Runner, seed: int, seconds: float):
    """Whole passes while another fits in ``seconds``; each unit runs once
    untraced and once traced, then its output is re-verified with the
    verifiers traced."""
    tracer = runner.tracer
    units = corpus.units(runner.workload)
    untraced, traced = [], []
    started = perf_counter()
    passes = 0
    while True:
        pass_start = perf_counter()
        for number, index in enumerate(corpus.schedule(runner.workload, seed, passes)):
            unit = units[index]
            # alternate which run goes first, so warm caches favour neither
            if number % 2:
                timed = runner.run_unit(unit, traced_op=len(traced))
                plain = runner.run_unit(unit)
            else:
                plain = runner.run_unit(unit)
                timed = runner.run_unit(unit, traced_op=len(traced))
            for a, b in zip(plain, timed):
                runner.gate(b)
                if b.failure is None and (a.exit, a.crash, a.output) != (b.exit, b.crash, b.output):
                    b.failure = "traced and untraced runs disagree"
            tracer.active, tracer.only = True, VERIFY_SPANS
            _check(runner, timed, {})
            tracer.active, tracer.only = False, None
            untraced.extend(plain)
            traced.extend(timed)
        passes += 1
        now = perf_counter()
        if now - started + (now - pass_start) > seconds:
            return untraced, traced, passes


def _probe(runner: Runner, probe_units) -> tuple[int, list[Result]]:
    """Run the known-defect probes once; a RecursionError is counted, not
    failed, and any other outcome must pass the gates."""
    import gates

    recursion_errors, others = 0, []
    for unit in probe_units:
        for result in runner.run_unit(unit):
            if result.crash == "RecursionError":
                recursion_errors += 1
                continue
            if result.crash is not None:
                result.failure = f"raised {result.crash}"
            elif result.exit == 0:
                result.failure = gates.semantic(result.op.argv, result.document, result.output)
            others.append(result)
    return recursion_errors, others


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(latencies: list[float], setups: list[float], import_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over the scaled median time of each op of a pass,
    and their sample counts."""
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        f"latency_p{TAIL}_ms": _quantile(latencies, TAIL) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + statistics.median(setups),
    }
    samples = {name: len(latencies) for name in values}
    samples.update(peak_rss_mb=1, setup_s=len(setups))
    return values, samples


def _self_seconds(span) -> float:
    from spans import CHILD, END, START

    return span[END] - span[START] - span[CHILD]


def _slope(points: list[tuple[float, float]]) -> float:
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points)


def _size(command: str, document: bytes) -> int:
    doc = json.loads(document)
    if command == "allocate":
        return len(doc["sets"])
    if command == "find-path":
        return len(doc["assignment"])
    return len(doc["members"])


def per_layer(tracer, untraced: list[Result], traced: list[Result], passes: int, recursion_errors: int) -> dict:
    """Per-layer metrics, each summed over the run and divided by passes."""
    import gates
    from spans import NAME, OP

    totals = dict.fromkeys(PER_LAYER, 0.0)
    by_span = {span: metric for metric, names in SELF_TIME.items() for span in names}
    op_self: dict[tuple[int, str], float] = {}
    for span in tracer.spans:
        metric = by_span.get(span[NAME])
        if metric is not None:
            totals[metric] += _self_seconds(span) * 1e3
            key = (span[OP], span[NAME])
            op_self[key] = op_self.get(key, 0.0) + _self_seconds(span)
    by_leaf = {leaf: metric for metric, leaf in LEAF_TIME.items()}
    for (_op, name), (count, seconds) in tracer.leaves.items():
        if name in by_leaf:
            totals[by_leaf[name]] += seconds * 1e3
        if name == "triplet.parse":
            totals["triplet.count"] += count
    for result in traced:
        command = result.op.argv[0]
        totals["documents.bytes_in"] += len(result.document)
        totals["documents.bytes_out"] += len(result.output)
        totals["cli.exit1"] += result.exit == 1
        totals["cli.exit2"] += result.exit == 2
        totals["cli.crashes"] += result.crash is not None
        if result.exit == 1 and command == "find-maximal":
            totals["zorn.exhausted"] += 1
        if result.exit != 0:
            continue
        out = json.loads(result.output)
        if command == "allocate":
            totals["family.recipients"] += len(out["outputs"]["plan"]["pairs"])
            totals["family.pool_size"] += gates._empty_and_capacity(json.loads(result.document))[1]
        elif command == "find-path":
            stages = out["outputs"]["trace"]["stages"]
            totals["tree.compensated_stages"] += sum(s["kind"] != "chosen_max" for s in stages)
        elif command == "find-maximal":
            successors = out["outputs"]["report"]["successors"]
            totals["zorn.compensated"] += sum(s["provenance"] == "compensated" for s in successors)
        if command in ("find-path", "enumerate-paths"):
            totals["tree.nodes"] += len(json.loads(result.document)["assignment"])
    metrics = {name: value / passes for name, value in totals.items()}
    for metric, (command, span_name) in SLOPES.items():
        points = [
            (_size(command, r.document), op_self.get((index, span_name), 0.0))
            for index, r in enumerate(traced)
            if r.op.argv[0] == command and r.crash is None
        ]
        metrics[metric] = _slope(points)
    metrics["tree.recursion_errors"] = float(recursion_errors)
    plain = sum(r.seconds for r in untraced)
    metrics["trace.overhead_pct"] = (sum(r.seconds for r in traced) - plain) / plain * 100
    return metrics


def _report(args, values: dict, units: dict, samples: dict, attempted: int, failed: int, notes: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4f}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.4f} {units[name]:9s} n={samples.get(name, attempted)}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    start = perf_counter()
    try:
        cli, modules = _import_library()
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = _scaled(perf_counter() - start, statistics.median(_calibrate() for _ in range(3)))
    signal.signal(signal.SIGALRM, _timeout)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer, modules)
    runner = Runner(args.workload, cli.main, work, _load_reference(), tracer)
    try:
        if args.trace:
            _setup(runner)
            untraced, results, passes = _measure_traced(runner, args.seed, args.seconds)
        else:
            latencies, results, setups = _measure(runner, args.seed, args.seconds)
        probe_units = corpus.probes(args.workload)
        recursion_errors, probed = _probe(runner, probe_units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # probe ops count once they stop raising RecursionError
    attempted = len(results) + len(probed)
    failures = [r for r in results + probed if r.failure is not None]
    for r in failures[:10]:
        print(f"FAILED {' '.join(r.op.argv)} on {r.op.doc or 'previous result'}: {r.failure}", file=sys.stderr)
    notes = []
    if probe_units:
        notes.append(
            f"deep-chain probe: {len(probe_units)} find-path ops on horizon-1500 chains, "
            f"{recursion_errors} raised RecursionError (known defect, outside the timed ops)"
        )
    if args.trace:
        values = per_layer(tracer, untraced, results, passes, recursion_errors)
        spans_dir = ROOT / ".bench_work" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-{args.seed}.jsonl")
        _report(args, values, PER_LAYER, {name: passes for name in values}, attempted, len(failures), notes)
    else:
        values, samples = end_to_end(latencies, setups, import_s)
        notes.append(f"latency of each of the {len(latencies)} ops of a pass: the median over {len(setups) - 1} passes "
                     "(the last cut short by the deadline) of its time divided by the mean of the calibrations "
                     f"beside it, times {REFERENCE_CALIBRATION_S * 1e3} ms")
        _report(args, values, END_TO_END, samples, attempted, len(failures), notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
