"""The two in-process workloads: one op at a time in this process.

* ``verify_cold`` — each op is a cold
  ``repro.runtime.verify_many([spec], RuntimeOptions())``, the
  ``repro verify`` path;
* ``analytics_incremental`` — each op is ``minimum_attack_cost(spec)``
  or ``synthesize_architecture(spec, SynthesisSettings(T_SB))``.

Ops run in seeded rounds (one draw per cost stratum of each group, see
``common.rounds``); a run holds as many whole rounds as fill
``--seconds`` at the answer key's reference op times.  A round is a
near-complete pass over its pool (strata of one or two instances), so
every run does about the same work whatever the seed, and the first
round's exact counts exist on every run.

A calibration slice (``calibrate.py``) runs before every op, outside its
timing, so ``run.py`` can scale each op to reference machine speed.  In
a traced run every op executes twice, untraced and traced (the order
alternates), so per-layer self times can be set against the untraced
wall of the very same op.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Tuple

import common
import spantree
import verdicts

#: (group, strata) drawn every round; "once" groups are drawn only in
#: the first round
RECIPES: Dict[str, Dict[str, List[Tuple[str, int]]]] = {
    # every ieee118 instance in each round: the median op is then the
    # same ieee118 instance whatever the seed
    "verify_cold": {"rounds": [("vc118", 16), ("vc300", 8)], "once": [("vc1000", 1)]},
    "analytics_incremental": {
        "rounds": [("mc14", 13), ("mc30", 8), ("sy14", 12), ("sy30", 12), ("sy57", 5)],
        "once": [],
    },
}

#: the op loop stops early past this much wall time, whatever the rounds
MAX_LOOP_SECONDS = 120.0
SOLVE_COUNTS = ("conflicts", "decisions", "propagations", "pivots", "theory_checks", "restarts")
ENCODE_COUNTS = ("clauses", "sat_variables", "theory_atoms", "lattice_lemmas")
PHASES = ("bcp", "theory", "decide", "analyze")
#: span name -> layer reported as ``<layer>.self_s`` / ``<layer>.share``
LAYERS = {
    "runtime": "runtime",
    "encode": "encode",
    "solve": "solve",
    "extract": "extract",
    "session.open": "session",
    "session.probe": "session",
    "mincost": "mincost",
    "synthesis": "synthesis",
}


def groups_of(workload: str) -> List[str]:
    recipe = RECIPES[workload]
    return [group for group, _ in recipe["rounds"] + recipe["once"]]


def round_count(key: Dict[str, Any], workload: str, seconds: float) -> int:
    """Rounds whose reference op time best fills ``seconds`` (at least 1).

    Fixed by the answer key's reference times, so a seed always gets the
    same ops, on every commit: a faster program ends its run sooner.
    """
    per_round = sum(
        sum(key["instances"][iid]["ref_s"] for iid in stratum) / len(stratum)
        for group, count in RECIPES[workload]["rounds"]
        for stratum in common.strata(common.group_instances(key, group), count)
    )
    return max(1, round(seconds / per_round))


def op_sequence(key: Dict[str, Any], workload: str, seed: int,
                count: Optional[int] = None) -> Iterator[Tuple[int, str]]:
    """``(round, instance id)`` for ``count`` rounds (default: forever);
    round 0 also holds the once-groups."""
    recipe = RECIPES[workload]
    once_rng = random.Random(seed ^ 0x5EED)
    once = [
        once_rng.choice(stratum)
        for group, count in recipe["once"]
        for stratum in common.strata(common.group_instances(key, group), count)
    ]
    for index, picks in enumerate(common.rounds(key, recipe["rounds"], seed)):
        if index == count:
            return
        if index == 0:
            for pick in once:
                picks.insert(once_rng.randrange(len(picks) + 1), pick)
        for pick in picks:
            yield index, pick


# ----------------------------------------------------------------------
def execute(inst: Dict[str, Any], spec) -> Dict[str, Any]:
    """Run one op through the layer's public entry point."""
    kind = inst["kind"]
    if kind == "verify":
        from repro.runtime import RuntimeOptions, verify_many

        result = verify_many([spec], RuntimeOptions())[0]
        return {"outcome": result.outcome.value, "attack": result.attack}
    if kind == "mincost":
        from repro.core.mincost import minimum_attack_cost

        result = minimum_attack_cost(spec)
        return {"cost": result.cost, "attack": result.attack, "encodes": result.encodes}
    if kind == "synth":
        from repro.core.synthesis import SynthesisSettings, synthesize_architecture

        result = synthesize_architecture(spec, SynthesisSettings(max_secured_buses=inst["tsb"]))
        return {"architecture": result.architecture, "iterations": result.iterations}
    raise ValueError(f"unknown op kind {kind!r}")


def traced_execute(inst: Dict[str, Any], spec, rec: spantree.Recorder, op: int,
                   counts: Dict[str, float]) -> Tuple[Dict[str, Any], float]:
    """``execute`` with spans around every layer call; returns (output, wall)."""
    from repro.core import verification
    from repro.smt.solver import Solver

    sessions: List[Any] = []
    patches = spantree.Patches()

    def spanned(name):
        def make(original):
            def wrapper(self, *args, **kwargs):
                with rec.span(name):
                    return original(self, *args, **kwargs)
            return wrapper
        return make

    def encoder_init(original):
        def wrapper(self, *args, **kwargs):
            with rec.span("encode"):
                original(self, *args, **kwargs)
            stats = self.solver.statistics()
            for name in ENCODE_COUNTS:
                counts[f"encode.{name}"] += stats[name]
            counts["encode.count"] += 1
        return wrapper

    def solver_check(original):
        def wrapper(self, *args, **kwargs):
            self.set_profile(True)
            before = self.statistics()
            with rec.span("solve"):
                result = original(self, *args, **kwargs)
            after = self.statistics()
            for name in SOLVE_COUNTS:
                counts[f"solve.{name}"] += after[name] - before[name]
            for phase in PHASES:
                key = f"time_{phase}"
                counts[f"solve.{phase}_s"] += after.get(key, 0.0) - before.get(key, 0.0)
            return result
        return wrapper

    def session_init(original):
        def wrapper(self, *args, **kwargs):
            with rec.span("session.open"):
                original(self, *args, **kwargs)
            sessions.append(self)
        return wrapper

    patches.wrap(verification.UfdiEncoder, "__init__", encoder_init)
    patches.wrap(verification.UfdiEncoder, "extract_attack", spanned("extract"))
    patches.wrap(verification.VerificationSession, "__init__", session_init)
    patches.wrap(verification.VerificationSession, "probe", spanned("session.probe"))
    patches.wrap(Solver, "check", solver_check)
    outer = {"verify": "runtime", "mincost": "mincost", "synth": "synthesis"}[inst["kind"]]
    try:
        with rec.span("op", op=op, instance=inst["id"]) as root:
            with rec.span(outer):
                out = execute(inst, spec)
    finally:
        patches.restore()
    for session in sessions:
        counts["session.searches"] += 1
        counts["session.encodes"] += session.encodes
        counts["session.probes"] += session.probes
        counts["session.learned_kept"] += session.statistics()["learned_kept"]
    if "iterations" in out:
        counts["synthesis.iterations"] += out["iterations"]
        if out["architecture"] is not None:
            counts["synthesis.feasible"] += 1
            counts["synthesis.arch_buses"] += len(out["architecture"])
    return out, root.end - root.start


def warm_up(key: Dict[str, Any], workload: str, specs: Dict[str, Any]) -> None:
    """One untimed op on the workload's cheapest instance, so lazy
    first-call work lands in set-up rather than in the first timed op."""
    cheapest = min(
        (inst for group in groups_of(workload) for inst in common.group_instances(key, group)),
        key=lambda inst: (inst["ref_s"], inst["id"]),
    )
    execute(cheapest, specs[cheapest["id"]])


def check(inst: Dict[str, Any], spec, out: Dict[str, Any], replay: verdicts.ReplayBench) -> List[str]:
    kind = inst["kind"]
    if kind == "verify":
        return verdicts.check_verdict(inst, spec, out["outcome"], out["attack"], replay)
    if kind == "mincost":
        return verdicts.check_mincost(inst, spec, out["cost"], out["attack"], replay)
    return verdicts.check_architecture(inst, spec, out["architecture"])


# ----------------------------------------------------------------------
def run(ctx: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the raw records for ``run.py``."""
    key, specs, calibrator = ctx["key"], ctx["specs"], ctx["calibrator"]
    rec = spantree.Recorder()
    records: List[Dict[str, Any]] = []
    slices: List[float] = []  # calibration slice before each op, one after
    first_round: Dict[str, float] = defaultdict(float)
    all_counts: Dict[str, float] = defaultdict(float)
    loop_start = time.perf_counter()
    count = round_count(key, workload, seconds)
    for op, (round_index, iid) in enumerate(op_sequence(key, workload, seed, count)):
        if time.perf_counter() - loop_start > MAX_LOOP_SECONDS:
            break  # a pathologically slow build still ends in time
        inst, spec = key["instances"][iid], specs[iid]
        record: Dict[str, Any] = {"op": op, "round": round_index, "id": iid, "failures": []}
        gc.collect()
        slices.append(calibrator.slice())
        attempt = time.perf_counter()  # failed ops still get a wall time
        try:
            if trace:
                counts: Dict[str, float] = defaultdict(float)
                order = ("plain", "traced") if op % 2 == 0 else ("traced", "plain")
                for mode in order:
                    if mode == "plain":
                        start = time.perf_counter()
                        out = execute(inst, spec)
                        record["wall"] = time.perf_counter() - start
                    else:
                        traced_out, record["traced_wall"] = traced_execute(inst, spec, rec, op, counts)
                    gc.collect()
                record["counts"] = dict(counts)
                for name, value in counts.items():
                    all_counts[name] += value
                    if round_index == 0:
                        first_round[name] += value
                record["traced_out"] = traced_out
            else:
                start = time.perf_counter()
                out = execute(inst, spec)
                record["wall"] = time.perf_counter() - start
            record["out"] = out
        except Exception as exc:  # an exception is a failed op, not a crash
            record["failures"].append(f"{type(exc).__name__}: {exc}")
            record.setdefault("wall", time.perf_counter() - attempt)
        records.append(record)
    slices.append(calibrator.slice())

    # every check runs after the timed loop, outside the timed wall
    replay = verdicts.ReplayBench()
    for record in records:
        if record["failures"]:
            continue
        inst, spec = key["instances"][record["id"]], specs[record["id"]]
        try:
            record["failures"] += check(inst, spec, record["out"], replay)
            if trace:
                record["failures"] += check(inst, spec, record["traced_out"], replay)
        except Exception as exc:
            record["failures"].append(f"check raised {type(exc).__name__}: {exc}")
    return {
        "records": records,
        "slices": slices,
        "recorder": rec,
        "first_round_counts": dict(first_round),
        "counts": dict(all_counts),
    }


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of a traced run (see run.py for the catalogue)."""
    records = [r for r in result["records"] if "traced_wall" in r]
    rec: spantree.Recorder = result["recorder"]
    per_span = spantree.self_times(rec.spans)
    by_layer: Dict[str, float] = defaultdict(float)
    session_open = session_probe = 0.0
    for span in rec.spans:
        layer = LAYERS.get(span.name)
        if layer is not None:
            by_layer[layer] += per_span[span.id]
        if span.name == "session.open":
            session_open += span.end - span.start
        elif span.name == "session.probe":
            session_probe += span.end - span.start
    n = max(1, len(records))
    plain = sum(r["wall"] for r in records)
    traced = sum(r["traced_wall"] for r in records)
    out: Dict[str, float] = {}
    for layer in sorted(set(LAYERS.values())):
        out[f"{layer}.self_s"] = by_layer[layer] / n
        out[f"{layer}.share"] = by_layer[layer] / traced if traced else 0.0
    counts = result["counts"]
    first = result["first_round_counts"]
    for name in PHASES:
        out[f"solve.{name}_s"] = counts.get(f"solve.{name}_s", 0.0) / n
    for name in ENCODE_COUNTS:
        out[f"encode.{name}"] = first.get(f"encode.{name}", 0)
    for name in SOLVE_COUNTS:
        out[f"solve.{name}"] = first.get(f"solve.{name}", 0)
    searches = counts.get("session.searches", 0)
    out["session.open_s"] = session_open / searches if searches else 0.0
    probes = counts.get("session.probes", 0)
    out["session.probe_s"] = session_probe / probes if probes else 0.0
    out["session.probes"] = first.get("session.probes", 0)
    first_searches = first.get("session.searches", 0)
    out["session.encodes"] = first.get("session.encodes", 0) / first_searches if first_searches else 0.0
    out["session.learned_kept"] = first.get("session.learned_kept", 0)
    out["synthesis.iterations"] = first.get("synthesis.iterations", 0)
    feasible = first.get("synthesis.feasible", 0)
    out["synthesis.arch_size"] = first.get("synthesis.arch_buses", 0) / feasible if feasible else 0.0
    attributed = sum(by_layer.values())
    out["trace.unattributed_share"] = (plain - attributed) / plain if plain else 0.0
    out["trace.overhead"] = traced / plain - 1.0 if plain else 0.0
    out["trace.ops"] = len(records)
    return out
