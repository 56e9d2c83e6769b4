"""Record the outcome of every pool op into ``reference.json``.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 bench/record.py --commit <short hash>

Every op of a pass runs once; the outcome of every op must match the exit
status its class is built for and pass its semantic check before it is
recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import corpus
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit whose outcomes are recorded")
    args = parser.parse_args(argv)
    cli, _modules = run._import_library()
    import gates

    outcomes: dict[str, str] = {}
    problems = []
    for workload in corpus.WORKLOADS:
        work = run.ROOT / ".bench_work" / f"record-{workload}"
        runner = run.Runner(workload, cli.main, work, {})
        units = corpus.units(workload)
        try:
            runner.load(corpus.documents(workload))
            for unit in units:
                for result in runner.run_unit(unit):
                    problem = gates.status_failure(result.op, result.exit, result.crash, result.output)
                    if problem is None and result.exit == 0:
                        problem = gates.semantic(result.op.argv, result.document, result.output)
                    if problem is not None:
                        problems.append(f"{workload} {result.op}: {problem}")
                        continue
                    outcomes[result.key] = gates.outcome(result.exit, result.output)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {len(units)} units recorded", file=sys.stderr)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump({"commit": args.commit, "outcomes": dict(sorted(outcomes.items()))}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
