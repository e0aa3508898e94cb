"""Cooperative solver portfolio: diversified config race with clause exchange.

The perf claims of the PR 9 portfolio overhaul, measured on the
IEEE 30-bus boundary-probe workload — per target, the UNSAT probe one
measurement below the minimum attack cost (``cost - 1``), the
search-dominated instances the paper's verification sweeps spend their
time on:

* ``race_configs`` (two diversified :class:`SolverConfig` contenders
  cooperating through learned-clause exchange) returns
  **bit-identical** verdicts/witnesses/search traces to a solo solve of
  the winning configuration replaying its recorded import schedule
  (:func:`replay_config_solo`) — asserted for every timed repeat;
* the combined speedup of the cooperative race over the pre-overhaul
  reference engine (Fraction simplex, no propagation) meets
  the gate: 2x on top of BENCH_pr4's 2.72x int+prop combined, i.e.
  **5.44x**, in both full and ``--smoke`` mode;
* the solo new engine (sparse simplex + propagation, default config)
  is reported alongside, so the report decomposes the win into
  the kernel share and the cooperative-racing share.

The race is sized at two contenders: the cooperating pair beats either
configuration solo even time-sliced on a single core (clause imports
prune both searches), while wider fleets mostly add contention there.

Results land in ``BENCH_pr9.json`` (``--out`` to relocate).  Run::

    python benchmarks/bench_portfolio.py            # full, 5.44x gate
    python benchmarks/bench_portfolio.py --smoke    # CI perf-smoke
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.analysis.sweeps import spec_for_case  # noqa: E402
from repro.core.mincost import minimum_attack_cost  # noqa: E402
from repro.core.verification import verify_attack  # noqa: E402
from repro.runtime.portfolio import race_configs, replay_config_solo  # noqa: E402

#: the combined-speedup bar: 2x over BENCH_pr4's int+prop 2.72x
GATE = 5.44

#: diversified contenders per race (see module docstring)
RACE_SIZE = 2

#: IEEE 30-bus target states whose boundary probes are search-dominated
#: (the lighter targets are encode-dominated and fork-overhead-bound,
#: which measures process startup, not the solver)
FULL_TARGETS = (8, 17, 21, 24, 27)
SMOKE_TARGETS = (17, 27)

#: engine environments; the race children pin their own
#: REPRO_SAT_CONFIG after the fork
ENGINES = {
    "reference": {
        "REPRO_THEORY_KERNEL": "reference",
        "REPRO_THEORY_PROPAGATION": "0",
    },
    "solo-new": {
        "REPRO_THEORY_KERNEL": "sparse",
        "REPRO_THEORY_PROPAGATION": "1",
    },
    "race-configs": {
        "REPRO_THEORY_KERNEL": "sparse",
        "REPRO_THEORY_PROPAGATION": "1",
    },
}


@contextmanager
def engine_env(overrides):
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def boundary_specs(targets):
    """One UNSAT probe per target at ``minimum attack cost - 1``.

    Cost search runs once at setup (outside all timings) on the default
    engine; verdicts are engine-independent, so the workload is
    identical for every engine under test.
    """
    specs = []
    for target in targets:
        cost = minimum_attack_cost(
            spec_for_case("ieee30", target_bus=target)
        ).cost
        specs.append(
            (
                f"state{target}-m{cost - 1}",
                spec_for_case(
                    "ieee30", target_bus=target, max_measurements=cost - 1
                ),
            )
        )
    return specs


def witness_of(result):
    return (
        None
        if result.attack is None
        else sorted(result.attack.altered_measurements)
    )


def time_solo(engine, specs, repeats):
    """Best-of-``repeats`` per instance under a solo ``verify_attack``."""
    rows = {}
    with engine_env(ENGINES[engine]):
        for name, spec in specs:
            best = None
            outcome = witness = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = verify_attack(spec, backend="smt")
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
                outcome, witness = result.outcome.value, witness_of(result)
            rows[name] = {
                "seconds": round(best, 4),
                "outcome": outcome,
                "witness": witness,
            }
    return rows


def assert_replay_identical(spec, result, capture, name):
    """The determinism contract, enforced on every timed race."""
    replay = replay_config_solo(
        spec, capture["winner_config"], capture["import_log"]
    )
    assert replay.outcome is result.outcome, (
        f"{name}: replay verdict diverged: "
        f"{replay.outcome.value} != {result.outcome.value}"
    )
    assert witness_of(replay) == witness_of(result), (
        f"{name}: replay witness diverged"
    )
    for key in ("conflicts", "decisions", "propagations", "clauses_imported"):
        assert replay.statistics[key] == result.statistics[key], (
            f"{name}: replay {key} diverged: "
            f"{replay.statistics[key]} != {result.statistics[key]}"
        )


def time_race(specs, repeats, race_size=RACE_SIZE):
    """Best-of-``repeats`` races per instance, each replay-verified.

    The replays run outside the timers — they are the bit-identity
    check, not part of the engine under test.
    """
    rows = {}
    with engine_env(ENGINES["race-configs"]):
        for name, spec in specs:
            best = None
            runs = []
            for _ in range(repeats):
                capture = {}
                start = time.perf_counter()
                result = race_configs(spec, n=race_size, capture=capture)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
                runs.append((result, capture))
            for result, capture in runs:
                assert_replay_identical(spec, result, capture, name)
            result = runs[-1][0]
            rows[name] = {
                "seconds": round(best, 4),
                "outcome": result.outcome.value,
                "witness": witness_of(result),
                "winner_config": result.statistics["portfolio_winner_config"],
                "clauses_exchanged": result.statistics[
                    "portfolio_clauses_exchanged"
                ],
            }
    return rows


def assert_verdicts_agree(reference, other, engine):
    for name, ref_row in reference.items():
        row = other[name]
        assert row["outcome"] == ref_row["outcome"], (
            f"{engine}: outcome diverged on {name}: "
            f"{row['outcome']} != {ref_row['outcome']}"
        )


def run_bench(targets, repeats, gate, race_size=RACE_SIZE):
    specs = boundary_specs(targets)
    ref_rows = time_solo("reference", specs, repeats)
    solo_rows = time_solo("solo-new", specs, repeats)
    race_rows = time_race(specs, repeats, race_size)
    assert_verdicts_agree(ref_rows, solo_rows, "solo-new")
    assert_verdicts_agree(ref_rows, race_rows, "race-configs")

    totals = {
        "reference": sum(r["seconds"] for r in ref_rows.values()),
        "solo-new": sum(r["seconds"] for r in solo_rows.values()),
        "race-configs": sum(r["seconds"] for r in race_rows.values()),
    }
    report = {
        "benchmark": "portfolio",
        "system": "ieee30",
        "workload": "boundary probes (minimum attack cost - 1)",
        "targets": list(targets),
        "instances": len(specs),
        "repeats": repeats,
        "race_size": race_size,
        "gate": gate,
        "bit_identity": "replay asserted on every timed race",
        "engines": {
            engine: {
                "seconds": round(totals[engine], 4),
                "speedup": round(totals["reference"] / totals[engine], 2),
                "instances": rows,
            }
            for engine, rows in (
                ("reference", ref_rows),
                ("solo-new", solo_rows),
                ("race-configs", race_rows),
            )
        },
    }
    speedup = report["engines"]["race-configs"]["speedup"]
    report["passed"] = bool(speedup >= gate)
    return report, speedup


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
try:
    import pytest

    from benchmarks.conftest import run_once
except ImportError:  # script mode without pytest
    pytest = None

if pytest is not None:

    def test_race_bit_identical_and_faster(benchmark):
        specs = boundary_specs(SMOKE_TARGETS[-1:])
        ref_rows = time_solo("reference", specs, repeats=1)
        race_rows = run_once(
            benchmark, lambda: time_race(specs, repeats=1)
        )
        assert_verdicts_agree(ref_rows, race_rows, "race-configs")
        ref_s = sum(r["seconds"] for r in ref_rows.values())
        race_s = sum(r["seconds"] for r in race_rows.values())
        assert ref_s / race_s >= 2.0


# ----------------------------------------------------------------------
# script mode (CI perf-smoke + BENCH_pr9.json)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced workload (the two heaviest probes), same 5.44x gate",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=GATE,
        help=f"minimum combined race-configs speedup (default {GATE})",
    )
    parser.add_argument(
        "--race-size", type=int, default=RACE_SIZE, help="contenders per race"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--out",
        default=str(_ROOT / "BENCH_pr9.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    targets = SMOKE_TARGETS if args.smoke else FULL_TARGETS
    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.smoke else 2

    report, speedup = run_bench(targets, repeats, args.gate, args.race_size)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"portfolio race on ieee30 boundary probes "
        f"({report['instances']} instances, best of {repeats}):"
    )
    for engine, row in report["engines"].items():
        print(f"  {engine:<14} {row['seconds']:.3f}s ({row['speedup']:.2f}x)")
    for name, row in report["engines"]["race-configs"]["instances"].items():
        print(
            f"  {name}: {row['seconds']:.3f}s won by {row['winner_config']} "
            f"({row['clauses_exchanged']} clauses exchanged)"
        )
    print(f"report written to {args.out}")
    assert speedup >= args.gate, (
        f"race-configs speedup {speedup:.2f}x below the {args.gate:.2f}x gate"
    )
    print(f"gate passed: {speedup:.2f}x >= {args.gate:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
