"""In-memory spans around the library's public calls, for the traced run.

The benchmark never edits the library: ``instrument`` replaces module
attributes (the names ``cli`` and the library modules look up at call
time) with wrappers that record a span when the tracer is active.  Calls
made once per triplet or per set (``parse_triplet``, ``make_triplet``,
``classify``, ``partition_set``) are too many to keep one span each; they are summed per
op and name instead, and their time still counts as child time of the
enclosing span.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

#: (module, attribute, span name, per-call leaf?)
POINTS = (
    ("documents", "load_document", "documents.load_document", False),
    ("documents", "validate_document", "documents.validate_document", False),
    ("documents", "generate_assignment", "documents.generate_assignment", False),
    ("documents", "family_choice", "documents.to_core", False),
    ("documents", "tree_choice", "documents.to_core", False),
    ("documents", "zorn_inputs", "documents.to_core", False),
    ("documents", "dumps_canonical", "documents.dumps_canonical", False),
    ("documents", "plan_to_json", "documents.to_json", False),
    ("documents", "trace_to_json", "documents.to_json", False),
    ("documents", "report_to_json", "documents.to_json", False),
    ("documents", "report_from_json", "documents.report_from_json", False),
    ("documents", "parse_triplet", "triplet.parse", True),
    ("documents", "build_choice", "family.build_choice", False),
    ("family", "make_triplet", "triplet.parse", True),
    ("family", "check_compensation", "family.check_compensation", False),
    ("family", "partition_set", "family.partition_set", True),
    ("family", "verify_plan", "family.verify_plan", False),
    ("cli", "check_compensation", "family.check_compensation", False),
    ("cli", "allocate_compensators", "family.allocate_compensators", False),
    ("cli", "partition_set", "family.partition_set", True),
    ("cli", "product_status", "family.product_status", False),
    ("tree", "build_tree", "tree.build", False),
    ("tree", "build_tree_choice", "tree.build", False),
    ("tree", "make_triplet", "triplet.parse", True),
    ("tree", "verify_trace", "tree.verify_trace", False),
    ("cli", "construct_path", "tree.construct_path", False),
    ("cli", "enumerate_paths", "tree.enumerate_paths", False),
    ("zorn", "fan_pairs", "zorn.fan_pairs", False),
    ("zorn", "make_triplet", "triplet.parse", True),
    ("cli", "classify", "triplet.classify", True),
    ("cli", "classify_threshold", "triplet.classify", True),
    ("cli", "find_maximal", "zorn.find_maximal", False),
    ("cli", "verify_report", "zorn.verify_report", False),
)

# span record fields
NAME, START, END, PARENT, OP, CHILD = range(6)


class Tracer:
    """Spans ``[name, start, end, parent, op, child seconds]`` kept in memory.

    ``only``, when set, limits recording to those span names; the re-check
    after each op uses it to time the library verifiers and nothing else.
    """

    def __init__(self) -> None:
        self.active = False
        self.only: frozenset | None = None
        self.op: int | None = None
        self.spans: list[list] = []
        self.leaves: dict[tuple[int | None, str], list] = {}
        self._stack: list[int] = []

    def records(self, name: str) -> bool:
        return self.active and (self.only is None or name in self.only)

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.op, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        record[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent][CHILD] += record[END] - record[START]

    def leaf(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            if self._stack:
                self.spans[self._stack[-1]][CHILD] += elapsed
            total = self.leaves.setdefault((self.op, name), [0, 0.0])
            total[0] += 1
            total[1] += elapsed

    def dump(self, path) -> None:
        """Write every span and leaf total, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, child in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "child": child}) + "\n")
            for (op, name), (count, seconds) in self.leaves.items():
                handle.write(json.dumps({"leaf": name, "op": op, "count": count, "seconds": seconds}) + "\n")


def instrument(tracer: Tracer, modules: dict) -> None:
    """Wrap every call point in ``POINTS``; ``modules`` maps short names to
    the imported library modules."""
    for module_name, attr, span_name, per_call in POINTS:
        module = modules[module_name]
        setattr(module, attr, _wrap(tracer, span_name, getattr(module, attr), per_call))


def _wrap(tracer: Tracer, name: str, fn, per_call: bool):
    record = tracer.leaf if per_call else tracer.span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.records(name):
            return fn(*args, **kwargs)
        return record(name, fn, *args, **kwargs)

    return wrapper
