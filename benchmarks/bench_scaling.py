"""Large-grid scaling campaign: the sparse kernel from 14 to 3000 buses.

The paper's Figures 4/5 plot verification cost against system size; the
published evaluation stops at 300 buses.  This campaign reproduces the
figure shape on the deterministic scaling ladder
(``ieee14 .. ieee300, synthetic1000/2000/3000``) and measures what the
sparse integer theory kernel (``REPRO_THEORY_KERNEL=sparse``, the
default) buys over the Fraction reference kernel (``reference``) as
grids grow.

Per grid the workload is the boundary-probe shape of
``bench_theory_kernels``: per target state one unconstrained verify
plus UNSAT probes at budgets just below the witness size.  Encoding is
kernel-independent work, so each instance is encoded outside the clock
and only the solve (``UfdiEncoder.check``) phase is timed.  Deep
boundary searches are exact-arithmetic pivot-bound — identical work in
every kernel and exponentially expensive at scale — so probes carry a
fixed ``max_conflicts``: both engines run the *same* bounded search
(bit-identity makes the comparison exact) and the timing isolates the
control-flow cost the sparse kernel removes, which is what dominates
realistic large-grid verification.

Asserted on every run:

* outcomes, witnesses, and search counters identical between kernels
  on every instance (the bit-identity contract, at every size);
* the sparse kernel meets the speedup gate over the reference on the
  large-grid workload (>= 300 buses; ``--gate`` to override);
* no small-grid regression: sparse clears a per-grid floor over the
  reference on the < 300-bus grids;
* a 1000-bus min-cost search (bus dimension, leaf-bus target) completes
  end-to-end on the sparse kernel.

The gates used to compare sparse against the dense-control-flow
``int`` kernel: sparse >= 2x over int at >= 300 buses, >= 0.7x of int
below.  That kernel was folded into ``sparse``, so the gates are
re-based on the reference without loosening them: each is the old
sparse/int bar times the largest reference/int ratio measured on the
parent commit's smoke ladder (``check()`` seconds, two-core container,
three runs with all three kernels in rotating order; the grids below
300 buses once timed in a single pass and again best of
``SMALL_GRID_REPEATS``, the protocol they are gated on now):

==============  ==================  ==================  =======  =============
grid            single pass         best of 5           largest  floor
==============  ==================  ==================  =======  =============
ieee14          1.46 / 1.37 / 1.32  1.64 / 1.79 / 1.75  1.79     0.7x -> 1.25
ieee57          1.53 / 2.17 / 2.74  1.83 / 2.05 / 1.90  2.74     0.7x -> 1.92
ieee118         2.44 / 2.15 / 1.86  2.13 / 2.22 / 1.83  2.44     0.7x -> 1.71
>= 300 buses    4.40 / 4.75 / 5.59  --                  5.59     2.0x -> 11.18
pytest ieee57   2.18 / 1.03 / 2.21  1.95 / 2.22 / 2.05  2.22     0.7x -> 1.56
pytest ieee300  1.90 / 1.79 / 2.10  --                  2.10     1.5x -> 3.15
==============  ==================  ==================  =======  =============

(">= 300 buses" is ieee300 + synthetic1000 summed; the pytest rows are
the workloads of the pytest entry points below.  Floors are rounded
up.)

Results land in ``BENCH_pr6.json`` (``--out`` to relocate).  Run::

    python benchmarks/bench_scaling.py            # full ladder to 3000
    python benchmarks/bench_scaling.py --smoke    # CI: ladder to 1000
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

from repro.analysis.sweeps import default_targets, spec_for_case  # noqa: E402
from repro.core.mincost import minimum_attack_cost  # noqa: E402
from repro.core.verification import UfdiEncoder  # noqa: E402
from repro.grid.cases import load_case  # noqa: E402
from repro.runtime import RuntimeOptions  # noqa: E402
from repro.smt import Result  # noqa: E402

#: kernel configurations compared (propagation off: it may change
#: witnesses, which would break the per-instance identity assertions)
ENGINES = {
    "reference": {
        "REPRO_THEORY_KERNEL": "reference",
        "REPRO_THEORY_PROPAGATION": "0",
    },
    "sparse": {"REPRO_THEORY_KERNEL": "sparse", "REPRO_THEORY_PROPAGATION": "0"},
}

#: the scaling ladder; (case, #targets, probe offsets, max_conflicts).
#: Conflict budgets shrink as grids grow so the full ladder stays
#: CI-sized; both kernels run the identical bounded search either way.
LADDER = (
    ("ieee14", 2, (1,), None),
    ("ieee57", 2, (1,), 16),
    ("ieee118", 2, (1,), 8),
    ("ieee300", 3, (1, 2), 8),
    ("synthetic1000", 2, (1,), 8),
    ("synthetic2000", 1, (1,), 8),
    ("synthetic3000", 1, (1,), 8),
)

#: ladder rows >= this many buses form the large-grid gate workload
LARGE_GRID_BUSES = 300

#: timed passes per engine (best-of) at least, on grids below
#: LARGE_GRID_BUSES: one pass there takes 0.1-0.5 s and varies up to
#: 2.4x from pass to pass on a shared host, more than the floors allow
SMALL_GRID_REPEATS = 5

#: required sparse speedup over the reference on the >= 300-bus
#: workload: 2.0 x the largest reference/int ratio measured there
LARGE_GRID_GATE = 11.18

#: required sparse speedup over the reference per < 300-bus grid:
#: 0.7 x the largest reference/int ratio measured on that grid
SMALL_GRID_FLOORS = {"ieee14": 1.25, "ieee57": 1.92, "ieee118": 1.71}


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


def case_instances(case, ntargets, offsets):
    """The per-grid instance list: per target one unconstrained verify
    plus one boundary probe per offset below the witness size.

    Witness sizes come from one untimed solve on the default kernel;
    outcomes and witnesses are kernel-independent (bit-identity), so
    the instance list — and hence the workload — is identical for every
    engine under test.
    """
    grid = load_case(case)
    instances = []
    for target in default_targets(grid, ntargets):
        spec = spec_for_case(case, target_bus=target)
        encoder = UfdiEncoder(spec)
        result = encoder.check()
        witness = (
            sorted(encoder.extract_attack().altered_measurements)
            if result is Result.SAT
            else None
        )
        instances.append((f"{case}-state{target}", spec, False))
        if not witness:
            continue
        for offset in offsets:
            budget = len(witness) - offset
            if budget < 1:
                break
            instances.append(
                (
                    f"{case}-state{target}-m{budget}",
                    spec_for_case(
                        case, target_bus=target, max_measurements=budget
                    ),
                    True,
                )
            )
    return instances


def run_case_workload(instances, max_conflicts):
    """One engine's pass over one grid's instances.

    Each instance is encoded outside the clock (encoding does not touch
    the kernel's hot path) and its ``check`` is timed; returns
    ``(check_seconds, rows, totals)`` where ``rows`` carries everything
    the identity assertion compares.
    """
    rows = []
    totals = {
        "conflicts": 0,
        "pivots": 0,
        "theory_checks": 0,
        "rows_nnz": 0,
        "refactorizations": 0,
    }
    fill = 0.0
    check_seconds = 0.0
    for name, spec, is_probe in instances:
        encoder = UfdiEncoder(spec)
        bounded = max_conflicts if is_probe else None
        start = time.perf_counter()
        result = encoder.check(max_conflicts=bounded)
        check_seconds += time.perf_counter() - start
        witness = (
            sorted(encoder.extract_attack().altered_measurements)
            if result is Result.SAT
            else None
        )
        stats = encoder.statistics()
        rows.append(
            (
                name,
                result.value,
                witness,
                stats.get("conflicts"),
                stats.get("decisions"),
                stats.get("propagations"),
                stats.get("pivots"),
            )
        )
        for key in totals:
            totals[key] += stats.get(key, 0)
        fill = max(fill, stats.get("fill_ratio", 0.0))
    totals["max_fill_ratio"] = fill
    return check_seconds, rows, totals


def assert_rows_equal(ref_rows, sparse_rows, case):
    assert len(ref_rows) == len(sparse_rows), case
    for ref_row, sparse_row in zip(ref_rows, sparse_rows):
        assert ref_row == sparse_row, (
            f"kernel divergence on {ref_row[0]}: {ref_row} != {sparse_row}"
        )


def bench_case(case, ntargets, offsets, max_conflicts, repeats):
    """Both engines over one grid; solve-phase times and identity check."""
    out = {"case": case, "buses": load_case(case).num_buses, "engines": {}}
    if out["buses"] < LARGE_GRID_BUSES:
        repeats = max(repeats, SMALL_GRID_REPEATS)
    out["repeats"] = repeats
    instances = case_instances(case, ntargets, offsets)
    rows_by_engine = {}
    for engine, overrides in ENGINES.items():
        best = None
        rows = totals = None
        with engine_env(overrides):
            for _ in range(repeats):
                seconds, rows, totals = run_case_workload(
                    instances, max_conflicts
                )
                best = seconds if best is None else min(best, seconds)
        rows_by_engine[engine] = rows
        out["engines"][engine] = {"check_seconds": round(best, 4), **totals}
    assert_rows_equal(rows_by_engine["reference"], rows_by_engine["sparse"], case)
    out["instances"] = len(instances)
    out["speedup"] = round(
        out["engines"]["reference"]["check_seconds"]
        / max(out["engines"]["sparse"]["check_seconds"], 1e-9),
        3,
    )
    return out


def mincost_smoke(case="synthetic1000"):
    """End-to-end min-cost search on the 1000-bus grid (sparse kernel).

    Searches the bus dimension (T_CB) at the grid's first leaf bus: the
    attack surface there is small (a leaf's state is felt by only one
    line), so the witness compromises few buses and every probe in the
    binary search stays CI-sized even at 1000 buses — unlike deep
    measurement-budget boundaries, which are pivot-bound at this scale.
    Probes run cold through the runtime (``jobs=1``) so the smoke also
    covers the encode-per-probe path on a large grid.
    """
    grid = load_case(case)
    target = min(bus for bus in grid.buses if len(grid.lines_at(bus)) == 1)
    with engine_env(ENGINES["sparse"]):
        start = time.perf_counter()
        result = minimum_attack_cost(
            spec_for_case(case, target_bus=target),
            dimension="buses",
            runtime=RuntimeOptions(jobs=1),
        )
        elapsed = time.perf_counter() - start
    return {
        "case": case,
        "target": target,
        "dimension": "buses",
        "cost": result.cost,
        "probes": result.probes,
        "seconds": round(elapsed, 4),
    }


def run_bench(ladder, repeats, gate, with_mincost=True):
    report = {
        "benchmark": "scaling",
        "ladder": [row[0] for row in ladder],
        "repeats": repeats,
        "gate": gate,
        "small_grid_floors": SMALL_GRID_FLOORS,
        "cases": [],
    }
    large_ref = large_sparse = 0.0
    for case, ntargets, offsets, max_conflicts in ladder:
        result = bench_case(case, ntargets, offsets, max_conflicts, repeats)
        report["cases"].append(result)
        if result["buses"] >= LARGE_GRID_BUSES:
            large_ref += result["engines"]["reference"]["check_seconds"]
            large_sparse += result["engines"]["sparse"]["check_seconds"]
        else:
            floor = SMALL_GRID_FLOORS[case]
            assert result["speedup"] >= floor, (
                f"sparse regressed on {case}: {result['speedup']:.2f}x < "
                f"{floor:.2f}x over the reference kernel"
            )
    speedup = large_ref / max(large_sparse, 1e-9)
    report["large_grid"] = {
        "reference_seconds": round(large_ref, 4),
        "sparse_seconds": round(large_sparse, 4),
        "speedup": round(speedup, 3),
    }
    if with_mincost:
        report["mincost_1000"] = mincost_smoke()
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
    FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

    #: 1.5x (ieee300) and 0.7x (ieee57) of the largest reference/int
    #: ratio measured on these pytest workloads (see module docstring)
    PYTEST_FLOORS = {"ieee57": 1.56, "ieee300": 3.15}

    def test_scaling_bit_identical_and_faster(benchmark):
        case, ntargets, offsets, mc = (
            ("ieee300", 3, (1, 2, 3), 16) if FULL else ("ieee57", 3, (1, 2), 16)
        )
        result = run_once(
            benchmark, lambda: bench_case(case, ntargets, offsets, mc, 1)
        )
        # the hard gate runs on the >=300-bus script workload; here
        # pin identity (asserted inside bench_case) plus a per-workload
        # floor
        assert result["speedup"] >= PYTEST_FLOORS[case]

    @pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
    def test_mincost_completes_at_1000_buses(benchmark):
        result = run_once(benchmark, mincost_smoke)
        assert result["cost"] >= 1


# ----------------------------------------------------------------------
# script mode (CI perf-smoke + BENCH_pr6.json)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI ladder: stop at synthetic1000, 1 repeat",
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=LARGE_GRID_GATE,
        help="required sparse speedup over reference on the >=300-bus workload",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--skip-mincost",
        action="store_true",
        help="skip the 1000-bus min-cost end-to-end check",
    )
    parser.add_argument(
        "--out",
        default=str(_ROOT / "BENCH_pr6.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        ladder = tuple(
            row
            for row in LADDER
            if row[0] not in ("synthetic2000", "synthetic3000")
        )
        repeats = 1 if args.repeats is None else args.repeats
    else:
        ladder = LADDER
        repeats = 2 if args.repeats is None else args.repeats

    report, speedup = run_bench(
        ladder, repeats, args.gate, with_mincost=not args.skip_mincost
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(
        f"scaling ladder ({len(report['cases'])} grids, best of {repeats}; "
        f"below {LARGE_GRID_BUSES} buses best of "
        f"{max(repeats, SMALL_GRID_REPEATS)}):"
    )
    for row in report["cases"]:
        eng = row["engines"]
        print(
            f"  {row['case']:<14} {row['buses']:>5} buses  "
            f"reference {eng['reference']['check_seconds']:7.3f}s  "
            f"sparse {eng['sparse']['check_seconds']:7.3f}s  "
            f"({row['speedup']:.2f}x, fill {eng['sparse']['max_fill_ratio']})"
        )
    large = report["large_grid"]
    print(
        f"  >=300-bus workload: reference {large['reference_seconds']:.3f}s, "
        f"sparse {large['sparse_seconds']:.3f}s ({large['speedup']:.2f}x)"
    )
    if "mincost_1000" in report:
        mc = report["mincost_1000"]
        print(
            f"  mincost {mc['case']} state{mc['target']} "
            f"({mc['dimension']}): cost={mc['cost']} "
            f"({mc['probes']} probes, {mc['seconds']:.1f}s)"
        )
    print(f"report written to {args.out}")
    assert speedup >= args.gate, (
        f"sparse speedup {speedup:.2f}x below the {args.gate:.2f}x gate"
    )
    print(f"gate passed: {speedup:.2f}x >= {args.gate:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
