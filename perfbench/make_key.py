"""Generate ``answer_key.json``: the benchmark's instance pool and answers.

Run from the repository root (takes a while; two worker processes)::

    python3 perfbench/make_key.py [--jobs 2] [--milp-limit 20] [--milp-limit-large 5] [--reuse]

``--reuse`` keeps every entry of the existing key whose instance is
unchanged (its answer, cross-check and ``ref_s``) and answers only the
rest.

Every instance is answered by the default SMT engine and then
cross-checked against the independent MILP backend
(``repro.milp.backend``, the big-M HiGHS mirror):

* a verdict: MILP must reach the same verdict;
* a minimum cost ``c``: MILP must find an attack at budget ``c`` and
  none at ``c - 1``;
* a feasible synthesis problem: MILP must find no attack once the
  synthesized buses are secured;
* an infeasible one: MILP must find an attack against every bus set of
  size ``T_SB`` (securing more buses never helps an attacker, so smaller
  sets need no check).

A MILP solve that exceeds ``--milp-limit`` seconds per HiGHS call
(``--milp-limit-large`` on the 118-bus and larger grids, where the
big-M mirror rarely finishes) is recorded as ``"milp": "timeout"``;
those entries are all SAT verdicts whose SMT witness every benchmark
run replays through the WLS estimator.  Any MILP *disagreement* aborts generation.

The pool is drawn from a fixed pool seed, so regenerating the key gives
the same instances; ``ref_s`` (the op's best-of-two wall time on the
generating machine, timed one op at a time) stratifies the per-run
draw and sizes a run.
"""

from __future__ import annotations

import argparse
import itertools
import multiprocessing
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

POOL_SEED = 20140623
DROP_FRACTION = 0.1

#: ieee30 targets whose min-cost search stays near or under 2 s; the
#: others (3-7 s per op) would set a whole run
IEEE30_TARGETS = (2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 22, 25, 26, 28)
#: cap on the bus sets an infeasible synthesis entry must be checked on
MAX_INFEASIBLE_SUBSETS = 500


def _observable(grid, taken) -> bool:
    import numpy as np

    from repro.estimation.measurement import build_h

    h = build_h(grid, 1, taken=sorted(taken))
    return int(np.linalg.matrix_rank(h)) == grid.num_buses - 1


def _dropped(grid, rng: random.Random) -> List[int]:
    """A seeded 10% measurement drop that keeps the state observable."""
    from repro.estimation.measurement import MeasurementPlan

    potential = sorted(MeasurementPlan(grid).taken)
    while True:
        dropped = sorted(rng.sample(potential, int(len(potential) * DROP_FRACTION)))
        if _observable(grid, set(potential) - set(dropped)):
            return dropped


def build_pool() -> List[Dict[str, Any]]:
    from repro.grid.cases import load_case

    rng = random.Random(POOL_SEED)
    grids = {name: load_case(name) for name in ("ieee14", "ieee30", "ieee57", "ieee118", "ieee300", "synthetic1000")}
    pool: List[Dict[str, Any]] = []

    def add(group: str, kind: str, case: str, target: int, **fields: Any) -> None:
        pool.append(
            {"id": f"{group}-{len([p for p in pool if p['group'] == group]):03d}",
             "group": group, "kind": kind, "case": case, "target": target, **fields}
        )

    # verify_cold: default single-target specs, full plan or 90% of it
    for group, case, count in (("vc118", "ieee118", 16), ("vc300", "ieee300", 16), ("vc1000", "synthetic1000", 1)):
        grid = grids[case]
        targets = rng.sample(range(2, grid.num_buses + 1), count)
        for k, target in enumerate(targets):
            dropped = _dropped(grid, rng) if (k % 2 and group != "vc1000") else []
            add(group, "verify", case, target, dropped=dropped, max_measurements=None)

    # min-cost searches
    for case, group, targets in (("ieee14", "mc14", range(2, 15)), ("ieee30", "mc30", IEEE30_TARGETS)):
        for target in targets:
            add(group, "mincost", case, target)

    # synthesis problems: distinct seeded (target, T_SB) pairs; T_SB
    # stays at 1-2 on ieee57, where larger budgets take 3-8 s per op
    for group, case, count, max_tsb in (("sy14", "ieee14", 12, 6), ("sy30", "ieee30", 12, 8), ("sy57", "ieee57", 6, 2)):
        grid = grids[case]
        pairs = set()
        while len(pairs) < count:
            pairs.add((rng.randint(2, grid.num_buses), rng.randint(1, max_tsb)))
        for target, tsb in sorted(pairs):
            add(group, "synth", case, target, tsb=tsb)

    # served mix: ieee14/ieee30 families (full plan + two 90% plans),
    # every target, unlimited (SAT) or a two-measurement budget
    for case in ("ieee14", "ieee30"):
        grid = grids[case]
        plans = [[], _dropped(grid, rng), _dropped(grid, rng)]
        for dropped in plans:
            for target in range(2, grid.num_buses + 1):
                for budget in (None, 2):
                    add("sv", "verify", case, target, dropped=dropped, max_measurements=budget)
    # twelve more ieee14 plans, drawn last so the draws above stay put
    # (most ieee14 verifies fall under the served mix's cost cap)
    grid = grids["ieee14"]
    for dropped in [_dropped(grid, rng) for _ in range(12)]:
        for target in range(2, grid.num_buses + 1):
            for budget in (None, 2):
                add("sv", "verify", "ieee14", target, dropped=dropped, max_measurements=budget)
    return pool


# ----------------------------------------------------------------------
def _milp(spec, limit: float, secured_buses=()) -> str:
    from repro.core.verification import UfdiEncoder
    from repro.milp.backend import solve_encoder_milp

    encoder = UfdiEncoder(spec, symbolic_security=bool(secured_buses))
    result = solve_encoder_milp(encoder, secured_buses=secured_buses, time_limit=limit)
    return result.outcome.value


def _agree(expected: str, got: str, what: str) -> str:
    if got == "unknown":
        return "timeout"
    if got != expected:
        raise AssertionError(f"MILP disagrees on {what}: smt={expected} milp={got}")
    return "agree"


def answer(task) -> Dict[str, Any]:
    """SMT answer of one instance plus its MILP cross-check."""
    inst, limits = task
    limit = limits[0] if inst["case"] in ("ieee14", "ieee30", "ieee57") else limits[1]
    from repro.core.mincost import minimum_attack_cost
    from repro.core.spec import ResourceLimits
    from repro.core.synthesis import SynthesisSettings, synthesize_architecture
    from repro.grid.cases import load_case
    from repro.runtime import RuntimeOptions, verify_many

    spec = common.build_spec(inst, {inst["case"]: load_case(inst["case"])})
    out = dict(inst)
    kind = inst["kind"]
    if kind == "verify":
        out["verdict"] = verify_many([spec], RuntimeOptions())[0].outcome.value
        out["milp"] = _agree(out["verdict"], _milp(spec, limit), inst["id"])
    elif kind == "mincost":
        cost = out["cost"] = minimum_attack_cost(spec).cost
        checks = [_agree("sat", _milp(spec.with_limits(ResourceLimits(max_measurements=cost)), limit), inst["id"])]
        if cost > 0:
            checks.append(_agree("unsat", _milp(spec.with_limits(ResourceLimits(max_measurements=cost - 1)), limit), inst["id"]))
        out["milp"] = "agree" if all(c == "agree" for c in checks) else "timeout"
    elif kind == "synth":
        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=inst["tsb"]))
        out["feasible"] = result.feasible
        if result.feasible:
            out["milp"] = _agree("unsat", _milp(spec, limit, secured_buses=result.architecture), inst["id"])
        else:
            buses = list(spec.grid.buses)
            subsets = list(itertools.combinations(buses, min(inst["tsb"], len(buses))))
            if len(subsets) > MAX_INFEASIBLE_SUBSETS:
                out["milp"] = "skipped"
            else:
                verdicts = [_milp(spec, limit, secured_buses=list(s)) for s in subsets]
                for got in verdicts:
                    _agree("sat", got, inst["id"])
                out["milp"] = "timeout" if "unknown" in verdicts else "agree"
    else:
        raise ValueError(kind)
    return out


def op_seconds(inst: Dict[str, Any], grids: Dict[str, Any], repeats: int = 2) -> float:
    """Best-of-``repeats`` wall time of the instance's benchmark op."""
    import inprocess

    spec = common.build_spec(inst, grids)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        inprocess.execute(inst, spec)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--milp-limit", type=float, default=20.0)
    parser.add_argument("--milp-limit-large", type=float, default=5.0)
    parser.add_argument("--out", default=common.KEY_PATH)
    parser.add_argument("--reuse", action="store_true",
                        help="keep the existing key's entries for unchanged instances")
    args = parser.parse_args(argv)
    common.require_source_tree()
    common.refuse_engine_overrides()
    from repro.grid.cases import load_case
    from repro.smt.solver import engine_signature

    pool = build_pool()
    log = lambda message: print(message, file=sys.stderr, flush=True)  # noqa: E731
    log(f"{len(pool)} instances")
    answered: Dict[str, Dict[str, Any]] = {}
    if args.reuse and os.path.exists(args.out):
        old = common.load_key(args.out)["instances"]
        for inst in pool:
            kept = old.get(inst["id"])
            if kept is not None and all(kept.get(k) == v for k, v in inst.items()):
                answered[inst["id"]] = kept
        log(f"reusing {len(answered)} answers")
    todo = [inst for inst in pool if inst["id"] not in answered]
    with ProcessPoolExecutor(max_workers=args.jobs, mp_context=multiprocessing.get_context("spawn")) as executor:
        tasks = [(inst, (args.milp_limit, args.milp_limit_large)) for inst in todo]
        for done, out in enumerate(executor.map(answer, tasks), 1):
            answered[out["id"]] = out
            log(f"[{done}/{len(todo)}] {out['id']} "
                f"{out.get('verdict', out.get('cost', out.get('feasible')))} milp={out['milp']}")
    for inst in [o for o in answered.values() if o["milp"] == "skipped"]:
        # an infeasible synthesis entry nobody can cross-check stays out
        del answered[inst["id"]]

    # reference op times, measured one at a time after the MILP work
    grids = {name: load_case(name) for name in sorted({o["case"] for o in answered.values()})}
    for inst in answered.values():
        if "ref_s" not in inst:
            inst["ref_s"] = op_seconds(inst, grids)
    log("timed every op")

    common.write_json(
        args.out,
        {
            "format": 1,
            "engine": engine_signature(),
            "pool_seed": POOL_SEED,
            "default_seed": common.DEFAULT_SEED,
            "held_out_seed": common.HELD_OUT_SEED,
            "instances": {inst["id"]: inst for inst in sorted(answered.values(), key=lambda i: i["id"])},
        },
    )
    counts: Dict[str, int] = {}
    for inst in answered.values():
        counts[inst["milp"]] = counts.get(inst["milp"], 0) + 1
    log(f"wrote {args.out}: {len(answered)} of {len(pool)} instances, milp {counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
