"""Check that two traced runs of one seed repeat every exact count.

    python3 perfbench/run.py --workload analytics_incremental --seed 1 --trace 1
    cp .bench_out/analytics_incremental-seed1-trace1.json first.json
    python3 perfbench/run.py --workload analytics_incremental --seed 1 --trace 1
    python3 perfbench/compare_counts.py first.json .bench_out/analytics_incremental-seed1-trace1.json

The counts (``encode.*`` sizes, ``solve.*`` search counts,
``session.encodes``/``probes``/``learned_kept``, ``synthesis.iterations``)
are taken over the first round of the seeded op sequence, which every
run completes, so they must match exactly.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import sys

EXACT = (
    "encode.clauses", "encode.sat_variables", "encode.theory_atoms", "encode.lattice_lemmas",
    "solve.conflicts", "solve.decisions", "solve.propagations", "solve.pivots",
    "solve.theory_checks", "solve.restarts",
    "session.probes", "session.encodes", "session.learned_kept", "synthesis.iterations",
)


def differences(a: dict, b: dict) -> list:
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"different runs: {a['workload']}/{a['seed']} vs {b['workload']}/{b['seed']}"]
    return [
        f"{name}: {a['per_layer'][name]} != {b['per_layer'][name]}"
        for name in EXACT
        if a["per_layer"][name] != b["per_layer"][name]
    ]


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            reports.append(json.load(handle))
    diffs = differences(*reports)
    for line in diffs:
        print(line)
    if not diffs:
        print(f"{len(EXACT)} exact counts identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
