"""Seeded input corpus for the benchmark workloads.

Stdlib only: nothing here imports neutrochoice, so the inputs never depend
on the code under test.  Every document is drawn from a fixed pool: a
document is named by (workload, class, variant) and generated from a
``random.Random`` seeded with that name, so the seed commit's output digest
of every pool op can be recorded once (``reference.json``).  Every pass of
a run makes the same ops, so each op can be timed several times; the run
seed fixes the order of each pass, so the same seed always gives the same
inputs in the same order.

Feasibility comes from how instances are built, never from trying them:

* family documents mix needy sets (nothing chosen) with rich ones (most
  elements chosen), so the compensation pool dwarfs the empty-choice sets
  (the generator counts both and refuses a document where it would not);
* tree documents are chosen-biased, spine trees give every spine node a
  spur whose chosen nodes sit strictly below the spine's choice
  probability, so every dead step has a backward compensator;
* zorn documents starve only members with large fans and give every other
  fan a chosen entry; a member stays starved only if the generator's own
  matching of starved members to unmarked chosen entries still succeeds.  Infeasible zorn documents add one
  member whose only superset is the top entry of the empty set's fan.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: Denominator of every generated triplet component.
BOUND = 12

_TRIPLES = [
    (a, b, BOUND - a - b)
    for a in range(BOUND + 1)
    for b in range(BOUND + 1 - a)
    if len({a, b, BOUND - a - b}) == 3
]
CHOSEN = [t for t in _TRIPLES if t[0] > t[1] and t[0] > t[2]]
UNCHOSEN = [t for t in _TRIPLES if t not in CHOSEN]
#: Chosen triplets split by choice probability, so a spur always sits below
#: its spine level and one fan entry can be made the unique top.
CHOSEN_HIGH = [t for t in CHOSEN if t[0] >= 8]
CHOSEN_LOW = [t for t in CHOSEN if t[0] <= 7]
CHOSEN_BELOW_TOP = [t for t in CHOSEN if t[0] < BOUND - 1]
TOP = (BOUND - 1, 1, 0)


def _fmt(t: tuple[int, int, int]) -> list[str]:
    return [f"{c}/{BOUND}" for c in t]


def _pick(rng: random.Random, pool: list) -> list[str]:
    return _fmt(rng.choice(pool))


# ---------------------------------------------------------------- families


def family_doc(rng: random.Random, n_sets: int, with_rng: bool = False) -> dict:
    """``n_sets`` sets with tie-free triplets, about half of them needy.

    A needy set has 2-4 elements, none chosen; a rich set has 6-10, each
    chosen with probability 9/10.  The allocator scans its pool of spare
    chosen elements once per needy set, so this mix makes that quadratic
    scan about half of a 200-set ``allocate`` while a set still averages
    about six triplets to parse, as uniform sets of 2-10 elements would.

    With ``with_rng`` the same draws give the same sets, and an ``rng``
    block for ``generate-assignment`` replaces the triplet table.
    """
    sets, assignment = [], []
    empty = capacity = 0
    for _ in range(n_sets):
        needy = rng.random() < 0.5
        elements = [f"x{v}" for v in rng.sample(range(64), rng.randint(2, 4) if needy else rng.randint(6, 10))]
        table = {e: _pick(rng, CHOSEN if not needy and rng.random() < 0.9 else UNCHOSEN) for e in elements}
        chosen = sum(1 for t in table.values() if _is_chosen(t))
        empty += chosen == 0
        capacity += max(chosen - 1, 0)
        sets.append(elements)
        assignment.append(table)
    if empty > capacity:
        raise AssertionError("family generator produced an uncompensatable family")
    if with_rng:
        return {"kind": "family", "sets": sets, "rng": {"seed": rng.randrange(2**31), "denominator_bound": BOUND}}
    return {"kind": "family", "sets": sets, "assignment": assignment}


def _is_chosen(raw: list[str]) -> bool:
    a, b, c = (int(x.split("/")[0]) for x in raw)
    return a > b and a > c


# ------------------------------------------------------------------- trees


def bushy_tree_doc(rng: random.Random, depth: int, dead_level: int | None, bias: float) -> dict:
    """A bushy binary tree whose every branch reaches ``depth``.

    Each node below the horizon keeps both children with probability 0.85
    and one random child otherwise.  Nodes are chosen with probability
    ``bias``; every node at ``dead_level`` is unchosen, which forces one
    dead step and with it the forward-move pair scan under it.  The four
    chains ``ab0...0`` are always present and chosen, so four chosen
    horizon paths exist for ``enumerate-paths``.
    """
    forced = {bits + "0" * k for bits in ("00", "01", "10", "11") for k in range(depth - 1)}
    forced |= {"", "0", "1"}
    nodes, frontier = [""], [""]
    for level in range(depth):
        grown = []
        for node in frontier:
            if level < 2 or rng.random() < 0.85:
                kids = [node + "0", node + "1"]
            else:
                kids = [node + ("0" if node + "0" in forced else rng.choice("01"))]
            grown.extend(kids)
        nodes.extend(grown)
        frontier = grown
    assignment = {}
    for node in nodes:
        if dead_level is not None and len(node) == dead_level:
            assignment[node] = _pick(rng, UNCHOSEN)
        elif node == "" or (dead_level is None and node in forced) or rng.random() < bias:
            assignment[node] = _pick(rng, CHOSEN)
        else:
            assignment[node] = _pick(rng, UNCHOSEN)
    return {"kind": "tree", "strings": frontier, "horizon": depth, "assignment": assignment}


def spine_tree_doc(rng: random.Random, horizon: int, bias: float) -> dict:
    """A spine ``0...0`` to the horizon with a short spur off every level.

    Spine nodes are chosen with probability ``bias`` from the high choice
    probabilities; spur nodes never reach the horizon and, when chosen, use
    the low ones, so a dead spine step can always consume a backward
    compensator beside a chosen spine node.
    """
    assignment = {"": _pick(rng, CHOSEN_HIGH)}
    leaves = ["0" * horizon]
    for level in range(1, horizon + 1):
        spine = "0" * level
        assignment[spine] = _pick(rng, CHOSEN_HIGH if rng.random() < bias else UNCHOSEN)
        if level == horizon:
            continue
        spur = "0" * (level - 1) + "1"
        for _ in range(rng.randint(0, 2)):
            if len(spur) + 1 >= horizon:
                break
            assignment[spur] = _pick(rng, CHOSEN_LOW if rng.random() < 0.7 else UNCHOSEN)
            spur += rng.choice("01")
        assignment[spur] = _pick(rng, CHOSEN_LOW if rng.random() < 0.7 else UNCHOSEN)
        leaves.append(spur)
    return {"kind": "tree", "strings": leaves, "horizon": horizon, "assignment": assignment}


def chain_doc(rng: random.Random, horizon: int) -> dict:
    """An all-chosen chain: the simplest input that needs ``horizon`` stages."""
    assignment = {"0" * level: _pick(rng, CHOSEN) for level in range(horizon + 1)}
    return {"kind": "tree", "strings": ["0" * horizon], "horizon": horizon, "assignment": assignment}


# -------------------------------------------------------------------- zorn


def _zorn_members(rng: random.Random, n: int, atoms: int) -> list[frozenset]:
    seen: set[frozenset] = set()
    members: list[frozenset] = []
    while len(members) < n:
        size = rng.randint(1, atoms - 1)
        member = frozenset(rng.sample(range(atoms), size))
        if member not in seen:
            seen.add(member)
            members.append(member)
    return members


def _fans(members: list[frozenset]) -> list[list[int]]:
    return [[j for j, other in enumerate(members) if base < other] for base in members]


def zorn_doc(rng: random.Random, n: int, atoms: int, starve: float, infeasible: bool = False) -> dict:
    """An inclusion family with up to a share ``starve`` of its large fans
    starved.

    Every fan gets one chosen entry and more with probability 0.3.  Then
    members whose fan holds at least a fifth of the family are starved
    (every fan entry unchosen) one at a time, in random order; a starved
    member is kept only if the generator's own matching can still give
    every starved member a distinct compensator.  With ``infeasible`` the
    empty set joins the family with one member whose only superset is the
    empty set's top entry, so that member can never be compensated.
    """
    members = _zorn_members(rng, n, atoms)
    if infeasible:
        top, trap = next(
            (top, top - {atom})
            for top in sorted(members, key=len, reverse=True)
            for atom in sorted(top)
            if top - {atom} not in members
            and not any(top - {atom} < other for other in members if other != top)
        )
        members = [frozenset()] + members + [trap]
        trap_top = members.index(top)
    fans = _fans(members)
    table: dict[tuple[int, int], tuple] = {}
    for base, fan in enumerate(fans):
        if infeasible and base == len(members) - 1:
            table.update(((base, entry), rng.choice(UNCHOSEN)) for entry in fan)
            continue
        forced = rng.choice(fan) if fan else None
        for entry in fan:
            pool = CHOSEN if entry == forced or rng.random() < 0.3 else UNCHOSEN
            if infeasible and base == 0 and pool is CHOSEN:
                pool = CHOSEN_BELOW_TOP
            table[(base, entry)] = rng.choice(pool)
        if infeasible and base == 0:
            table[(0, trap_top)] = TOP
    large = [i for i, fan in enumerate(fans) if len(fan) * 5 >= len(members) and not (infeasible and i == 0)]
    starved: set[int] = set()
    for base in rng.sample(large, len(large)):
        if len(starved) == round(starve * len(large)):
            break
        kept = {(base, entry): table[(base, entry)] for entry in fans[base]}
        table.update(((base, entry), rng.choice(UNCHOSEN)) for entry in fans[base])
        if _compensable(members, fans, table, starved | {base}):
            starved.add(base)
        else:
            table.update(kept)
    atom_names = [f"a{i}" for i in range(atoms)]
    return {
        "kind": "zorn",
        "members": [[atom_names[a] for a in sorted(m)] for m in members],
        "fan_triplets": [
            {"member": base, "entry": entry, "triplet": _fmt(table[(base, entry)])}
            for base, fan in enumerate(fans)
            for entry in fan
        ],
    }


def _compensable(members, fans, table, starved) -> bool:
    """Whether every starved member can take a distinct unmarked chosen entry
    strictly containing it, after each other fan's top entry is marked."""

    def chosen(t):
        return t[0] > t[1] and t[0] > t[2]

    marked = set()
    for base, fan in enumerate(fans):
        picks = [e for e in fan if chosen(table[(base, e)])]
        if picks:
            marked.add(max(picks, key=lambda e: (table[(base, e)][0], -e)))
    offered = {e for (base, e), t in table.items() if chosen(t) and e not in marked}
    options = {s: [e for e in offered if members[s] < members[e]] for s in starved}
    holder: dict[int, int] = {}

    def assign(s: int, seen: set) -> bool:
        for e in options[s]:
            if e not in seen:
                seen.add(e)
                if e not in holder or assign(holder[e], seen):
                    holder[e] = s
                    return True
        return False

    return all(assign(s, set()) for s in starved)


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Op:
    """One CLI call: ``neutrochoice <argv[0]> <document> <argv[1:]>``.

    ``doc`` names a pool document, or is None for a ``verify-report`` that
    reads the result file of the ``find-maximal`` op just before it.
    """

    doc: str | None
    argv: tuple[str, ...]
    expect_exit: int = 0
    expect_type: str | None = None


@dataclass(frozen=True)
class Workload:
    """A workload's pool and the units of one pass; why each was chosen is
    recorded in ``BENCHMARK.json``."""

    #: class name -> (generator, keyword arguments)
    classes: dict
    #: (count, class, argv, ...) -- ``count`` units of a pass, on variants
    #: ``0 .. count - 1`` of ``class``; a unit runs the first ``argv`` on
    #: its document and each further one on the previous op's result
    slots: tuple
    #: (count, class, argv) run once per run on ``count`` variants, outside
    #: the timed passes
    probes: tuple = ()


def _fm_vr(cls: str) -> tuple:
    return (cls, ("find-maximal",), ("verify-report",))


WORKLOADS = {
    # Half the ops allocate.  The xl allocates set the p90, and the
    # quadratic allocator is most of each; the read-only commands on m,
    # mostly validation and triplet parsing, hold the median.
    "family_mix": Workload(
        classes={
            "s": (family_doc, {"n_sets": 20}),
            "m": (family_doc, {"n_sets": 30}),
            "l": (family_doc, {"n_sets": 100}),
            "xl": (family_doc, {"n_sets": 200}),
            "s_rng": (family_doc, {"n_sets": 20, "with_rng": True}),
            "m_rng": (family_doc, {"n_sets": 30, "with_rng": True}),
            "l_rng": (family_doc, {"n_sets": 100, "with_rng": True}),
        },
        slots=(
            (24, "s", ("allocate",)),
            (12, "m", ("allocate",)),
            (6, "l", ("allocate",)),
            (12, "xl", ("allocate",)),
            *((8, "m", (cmd,)) for cmd in ("check-compensation", "partition", "product-status", "classify")),
            (2, "m", ("classify", "--threshold", "1/2")),
            *((1, "l", (cmd,)) for cmd in ("check-compensation", "partition", "product-status", "classify")),
            (3, "s_rng", ("generate-assignment",)),
            (3, "m_rng", ("generate-assignment",)),
            (2, "l_rng", ("generate-assignment",)),
        ),
    ),
    # b*: one dead level makes find-path scan every chosen pair below it
    # (quadratic in the nodes); sp*: spine trees, where every dead step
    # rescans the levels behind it (quadratic in the horizon); e*:
    # enumerate-paths, which barely searches.  sp60 holds the median and
    # b9 with sp150 the p90.
    "tree_paths": Workload(
        classes={
            "b8": (bushy_tree_doc, {"depth": 8, "dead_level": 2, "bias": 0.9}),
            "b9": (bushy_tree_doc, {"depth": 9, "dead_level": 2, "bias": 0.9}),
            "sp60": (spine_tree_doc, {"horizon": 60, "bias": 0.85}),
            "sp150": (spine_tree_doc, {"horizon": 150, "bias": 0.85}),
            "e7": (bushy_tree_doc, {"depth": 7, "dead_level": None, "bias": 0.9}),
            "e8": (bushy_tree_doc, {"depth": 8, "dead_level": None, "bias": 0.9}),
            "e9": (bushy_tree_doc, {"depth": 9, "dead_level": None, "bias": 0.9}),
            "chain": (chain_doc, {"horizon": 1500}),
        },
        slots=(
            (20, "b8", ("find-path",)),
            (6, "b9", ("find-path",)),
            (30, "sp60", ("find-path",)),
            (6, "sp150", ("find-path",)),
            (20, "e7", ("enumerate-paths", "--count", "4")),
            (14, "e8", ("enumerate-paths", "--count", "4")),
            (4, "e9", ("enumerate-paths", "--count", "4")),
        ),
        probes=((2, "chain", ("find-path",)),),
    ),
    # find-maximal's compensation search grows with the starved members and
    # sets the tail (z100, inf); verify-report on its result is mostly
    # fan_pairs and holds the median (z50); inf families end in
    # CompensationExhausted.
    "zorn_maximal": Workload(
        classes={
            "z30": (zorn_doc, {"n": 30, "atoms": 12, "starve": 0.3}),
            "z50": (zorn_doc, {"n": 50, "atoms": 12, "starve": 0.3}),
            "z100": (zorn_doc, {"n": 100, "atoms": 12, "starve": 0.3}),
            "inf": (zorn_doc, {"n": 80, "atoms": 11, "starve": 0.2, "infeasible": True}),
        },
        slots=(
            (20, *_fm_vr("z30")),
            (24, *_fm_vr("z50")),
            (6, *_fm_vr("z100")),
            (6, "inf", ("find-maximal",)),
        ),
    ),
}

#: Exit status and diagnostic type every op of a class is built to end in.
EXPECTED_FAILURE = {"inf": (1, "CompensationExhausted")}


def pool_document(workload: str, cls: str, variant: int) -> bytes:
    """The JSON bytes of one pool document; depends only on its name.  A
    ``<class>_rng`` document draws from the same stream as ``<class>``."""
    generator, params = WORKLOADS[workload].classes[cls]
    rng = random.Random(f"{workload}/{cls.removesuffix('_rng')}/{variant}")
    return json.dumps(generator(rng, **params)).encode()


def _units(slots: tuple) -> list[tuple[Op, ...]]:
    units = []
    for count, cls, *argvs in slots:
        exit_code, kind = EXPECTED_FAILURE.get(cls, (0, None))
        for variant in range(count):
            first = Op(f"{cls}/{variant}", argvs[0], exit_code, kind)
            units.append((first,) + tuple(Op(None, argv) for argv in argvs[1:]))
    return units


def units(workload: str) -> list[tuple[Op, ...]]:
    """The units of work of one pass, where a unit is an op and the ops that
    read its result.  Together they are every op the workload makes."""
    return _units(WORKLOADS[workload].slots)


def schedule(workload: str, seed: int, number: int) -> list[int]:
    """The order of ``units(workload)`` in pass ``number`` of a run."""
    order = list(range(len(units(workload))))
    random.Random(f"{seed}/{number}").shuffle(order)
    return order


def probes(workload: str) -> list[tuple[Op, ...]]:
    return _units(WORKLOADS[workload].probes)


def pool_sizes(workload: str) -> dict[str, int]:
    """How many variants of each class the workload's pool holds."""
    spec = WORKLOADS[workload]
    variants: dict[str, int] = {}
    for count, cls, *_argvs in spec.slots + spec.probes:
        variants[cls] = max(variants.get(cls, 0), count)
    return variants


def class_documents(workload: str, cls: str) -> dict[str, bytes]:
    """The pool documents of one class, by name."""
    return {f"{cls}/{variant}": pool_document(workload, cls, variant) for variant in range(pool_sizes(workload)[cls])}


def documents(workload: str) -> dict[str, bytes]:
    """Every pool document of the workload, by name."""
    return {name: doc for cls in pool_sizes(workload) for name, doc in class_documents(workload, cls).items()}
