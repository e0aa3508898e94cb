"""Shared plumbing of the end-to-end benchmark: paths, the answer key,
spec construction and the seeded op sequence.

The answer key (``answer_key.json``, written by ``make_key.py``) is also
the instance pool: every instance any seed can draw is listed there with
its verdict, its minimum cost or its synthesis feasibility, and a
reference op time (``ref_s``) that stratifies the draw, sizes a run and
keeps the served mix to cheap requests.
"""

from __future__ import annotations

import json
import os
import random
import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
KEY_PATH = os.path.join(HERE, "answer_key.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: seed used while the benchmark was written, and one kept back for
#: confirming later claims on inputs nobody tuned against
DEFAULT_SEED = 1
HELD_OUT_SEED = 90210


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory or environment."""


def require_source_tree() -> None:
    """Put ``<root>/src`` on ``sys.path``; refuse to run without it.

    The benchmark measures the checkout it sits in, never an installed
    copy of the package.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no repro source tree under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def refuse_engine_overrides(environ=os.environ) -> None:
    """Every ``REPRO_*`` switch changes the numbers; measure the default."""
    set_vars = sorted(name for name in environ if name.startswith("REPRO_"))
    if set_vars:
        raise SetupError(
            "unset these before benchmarking the default engine: "
            + ", ".join(set_vars)
        )


def load_key(path: str = KEY_PATH) -> Dict[str, Any]:
    if not os.path.isfile(path):
        raise SetupError(f"answer key missing: {path}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
def build_spec(inst: Dict[str, Any], grids: Dict[str, Any]):
    """The attack spec an instance record describes (single target)."""
    from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
    from repro.estimation.measurement import MeasurementPlan

    grid = grids[inst["case"]]
    plan = MeasurementPlan(grid)
    dropped = inst.get("dropped") or ()
    if dropped:
        plan = MeasurementPlan(grid, taken=set(plan.taken) - set(dropped))
    return AttackSpec(
        grid=grid,
        plan=plan,
        goal=AttackGoal.states(int(inst["target"])),
        limits=ResourceLimits(max_measurements=inst.get("max_measurements")),
    )


# ----------------------------------------------------------------------
# seeded, stratified op sequence
# ----------------------------------------------------------------------
def strata(instances: Sequence[Dict[str, Any]], count: int) -> List[List[str]]:
    """Split a group into ``count`` strata of similar reference cost.

    Sorted by reference op time, costliest first (ties by id), then cut
    into contiguous near-equal slices, so one draw per stratum gives
    every round about the same amount of work whatever the seed; when
    the slices cannot all be equal, the costliest ones are the smaller.
    """
    ordered = sorted(instances, key=lambda inst: (-inst["ref_s"], inst["id"]))
    count = max(1, min(count, len(ordered)))
    out: List[List[str]] = []
    for k in range(count):
        lo = k * len(ordered) // count
        hi = (k + 1) * len(ordered) // count
        out.append([inst["id"] for inst in ordered[lo:hi]])
    return out


def group_instances(key: Dict[str, Any], group: str) -> List[Dict[str, Any]]:
    return [inst for inst in key["instances"].values() if inst["group"] == group]


def rounds(
    key: Dict[str, Any], recipe: Sequence[Tuple[str, int]], seed: int
) -> Iterator[List[str]]:
    """Endless seeded rounds: one draw from every stratum of every group.

    ``recipe`` lists ``(group, strata)`` pairs.  A round holds one
    instance id per stratum, interleaved in a seeded order.
    """
    rng = random.Random(seed)
    layout = [
        stratum
        for group, count in recipe
        for stratum in strata(group_instances(key, group), count)
    ]
    while True:
        picks = [rng.choice(stratum) for stratum in layout]
        rng.shuffle(picks)
        yield picks


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def git_revision(root: str = ROOT) -> Optional[str]:
    """HEAD's commit id read from ``.git``; None outside a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    except OSError:
        pass
    return None
