"""End-to-end benchmark of verification, analytics and serving.

Run from the repository root::

    python3 perfbench/run.py --workload verify_cold --seed 1 --seconds 12 --trace 0

Workloads (each measured in a fresh process; see BENCHMARK.json):

* ``verify_cold``           cold ``verify_many`` on ieee118/ieee300 plus
                            one synthetic1000 instance (encoder-bound);
* ``analytics_incremental`` ``minimum_attack_cost`` and
                            ``synthesize_architecture`` (warm-solver
                            incremental solving);
* ``served_cluster``        two closed-loop ``ServiceClient`` threads
                            against ``repro serve --replicas 2``.

``--seconds`` sizes a run: the in-process workloads run as many seeded
rounds as fill it at the answer key's reference op times, the served
loop sends a fixed number of requests per second of it (at least 100).  Either way a seed gets the same ops on every commit.  On
the in-process workloads every end-to-end timing is scaled to reference
machine speed by calibration slices taken between ops (``calibrate.py``);
``served_cluster`` takes its slices between chunks of requests, while
the cluster is idle, and re-times only the busy share of each chunk
(``served.busy_scale``).  The report keeps the raw timings too.
``setup_s`` is the median of
three set-ups, each in a fresh process (this one and two
``--setup-probe`` children).

Every op is checked against ``perfbench/answer_key.json`` (generated by
``perfbench/make_key.py``) after the timed loop.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A full report (provenance, sample counts, failures) is
written to ``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced
run also writes its spans to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The benchmark refuses to run with any ``REPRO_*`` variable set, and
without the ``src/`` tree next to this directory.  Default seed 1,
held-out seed 90210 (``common.DEFAULT_SEED``/``HELD_OUT_SEED``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

T0 = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("verify_cold", "analytics_incremental", "served_cluster")
SETUP_SAMPLES = 3

#: (name, unit) of every per-layer metric a traced run prints; layers a
#: workload does not exercise read 0
PER_LAYER = [
    ("grid.load_s", "s"), ("service.boot_s", "s"),
    ("encode.self_s", "s"), ("encode.share", "ratio"),
    ("encode.clauses", "count"), ("encode.sat_variables", "count"),
    ("encode.theory_atoms", "count"), ("encode.lattice_lemmas", "count"),
    ("solve.self_s", "s"), ("solve.share", "ratio"),
    ("solve.bcp_s", "s"), ("solve.theory_s", "s"), ("solve.decide_s", "s"), ("solve.analyze_s", "s"),
    ("solve.conflicts", "count"), ("solve.decisions", "count"), ("solve.propagations", "count"),
    ("solve.pivots", "count"), ("solve.theory_checks", "count"), ("solve.restarts", "count"),
    ("extract.self_s", "s"), ("extract.share", "ratio"),
    ("runtime.self_s", "s"), ("runtime.share", "ratio"), ("runtime.cache_hit_ratio", "ratio"),
    ("session.self_s", "s"), ("session.share", "ratio"),
    ("session.open_s", "s"), ("session.probe_s", "s"), ("session.probes", "count"),
    ("session.encodes", "count"), ("session.learned_kept", "count"),
    ("mincost.self_s", "s"), ("mincost.share", "ratio"),
    ("synthesis.self_s", "s"), ("synthesis.share", "ratio"),
    ("synthesis.iterations", "count"), ("synthesis.arch_size", "count"),
    ("service.queue_wait_ms", "ms"), ("service.dispatch_ms", "ms"), ("service.solve_ms", "ms"),
    ("service.client_ms", "ms"), ("service.polls_per_request", "count"),
    ("service.batch_size_mean", "count"), ("service.retries", "count"),
    ("router.forward_ms", "ms"), ("router.failovers", "count"),
    ("trace.unattributed_share", "ratio"), ("trace.overhead", "ratio"), ("trace.ops", "count"),
    ("error_rate", "ratio"),
]
END_TO_END = [
    ("setup_s", "s"), ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"),
]


def process_age() -> float:
    """Seconds since this process started (exec of the interpreter)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        if 0.0 < age < 3600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - T0


def error_rate(records) -> float:
    """Failed ops over attempted ops."""
    return sum(1 for r in records if r["failures"]) / len(records) if records else 0.0


def percentile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


# ----------------------------------------------------------------------
def setup(workload: str, calibrator):
    """Imports, grid loads, answer key, specs and one warm-up op (on
    ``served_cluster``: the cluster boot and one request per replica)."""
    from repro.grid.cases import load_case
    from repro.runtime import spec_to_payload

    import inprocess
    import served

    key = common.load_key()
    groups = ["sv", "sy14"] if workload == "served_cluster" else inprocess.groups_of(workload)
    instances = {iid: inst for iid, inst in key["instances"].items() if inst["group"] in groups}
    start = time.perf_counter()
    grids = {case: load_case(case) for case in sorted({inst["case"] for inst in instances.values()})}
    grid_load_s = time.perf_counter() - start
    specs = {iid: common.build_spec(inst, grids) for iid, inst in instances.items()}
    ctx = {"key": key, "specs": specs, "grid_load_s": grid_load_s, "cluster": None,
           "calibrator": calibrator}
    if workload == "served_cluster":
        ctx["payloads"] = {iid: spec_to_payload(spec) for iid, spec in specs.items()}
        served.become_subreaper()
        cluster = ctx["cluster"] = served.Cluster(os.path.join(common.OUT_DIR, "tmp"))
        try:
            cluster.start()
            cluster.warm_up()
        except BaseException:
            cluster.stop()
            raise
    else:
        inprocess.warm_up(key, workload, specs)
    return ctx


def setup_seconds(calibrator) -> float:
    """Seconds since process start, less the calibration heap's build,
    at reference machine speed (calibrated right after set-up)."""
    raw = process_age() - calibrator.build_s
    return raw / calibrator.factor([calibrator.slice() for _ in range(15)])


def setup_probe(workload: str) -> int:
    """``--setup-probe``: set up once in this fresh process, report, exit."""
    import calibrate

    calibrator = calibrate.Calibrator()
    ctx = None
    try:
        ctx = setup(workload, calibrator)
        seconds = setup_seconds(calibrator)
    finally:
        if ctx is not None and ctx["cluster"] is not None:
            ctx["cluster"].stop()
    print(json.dumps({"setup_s": seconds}))
    return 0


def extra_setup_samples(workload: str, count: int) -> list:
    """Set up again in ``count`` fresh processes, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            cwd=common.ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool):
    import calibrate

    calibrator = calibrate.Calibrator()  # first, so set-up can leave it out
    import inprocess
    import served

    ctx = setup(workload, calibrator)
    setup_main = setup_seconds(calibrator)
    samples: dict = {}
    try:
        if workload == "served_cluster":
            result = served.run(ctx, seed, seconds, trace)
            records, rss, boot_s = result["plain"]["records"], result["rss"], result["boot_s"]
            samples["distinct_wrapped"] = result["wrapped"]
            if trace:
                rec = result["recorder"]
        else:
            result = inprocess.run(ctx, workload, seed, seconds, trace)
            records, rec, slices = result["records"], result["recorder"], result["slices"]
            rss = served.vm_hwm_mb() - calibrator.heap_mb
            boot_s = 0.0
    finally:
        if ctx["cluster"] is not None:
            ctx["cluster"].stop()
    if workload == "served_cluster":
        served.check(ctx, records)
        if trace:
            served.check(ctx, result["traced"]["records"])
            records = [dict(r, failures=r["failures"] + t["failures"])
                       for r, t in zip(records, result["traced"]["records"])]
    setup_all = [setup_main] + extra_setup_samples(workload, SETUP_SAMPLES - 1)

    failed = sum(1 for r in records if r["failures"])
    ok = [not r["failures"] for r in records]
    if workload == "served_cluster":
        latencies = [r["wall"] if not r["failures"] else max(r["wall"], served.REQUEST_TIMEOUT)
                     for r in records]
        chunks = result["plain"]["chunks"]
        factors = [1.0 / chunks[r["chunk"]]["scale"] for r in records]
        wall, scaled_wall = result["plain"]["wall"], result["plain"]["scaled_wall"]
        samples["chunks"] = chunks
    else:
        latencies = [r["wall"] for r in records]
        factors = calibrate.local_factors(slices, len(records))
        wall = sum(latencies)
        scaled_wall = sum(v / f for v, f in zip(latencies, factors))
    scaled = [v / f for v, f in zip(latencies, factors)]
    samples["ops"] = len(records)
    samples["latency_samples"] = len(latencies)
    samples["beyond_p90"] = sum(1 for v in latencies if v > percentile(latencies, 90))
    samples["setup_samples"] = setup_all
    samples["speed_factor_median"] = statistics.median(factors)
    end_to_end = {
        "setup_s": statistics.median(setup_all),
        "throughput_ops_s": sum(ok) / scaled_wall,
        "latency_p50_ms": 1000 * percentile(scaled, 50),
        "latency_p90_ms": 1000 * percentile(scaled, 90),
        "peak_rss_mb": rss,
    }
    raw_end_to_end = {
        "throughput_ops_s": sum(ok) / wall,
        "latency_p50_ms": 1000 * percentile(latencies, 50),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
    }
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers["grid.load_s"] = ctx["grid_load_s"]
    layers["service.boot_s"] = boot_s
    layers["error_rate"] = error_rate(records)
    if trace:
        if workload == "served_cluster":
            layers.update(served.layer_metrics(result))
        else:
            layers.update(inprocess.layer_metrics(result))
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(),
        "end_to_end": end_to_end, "raw_end_to_end": raw_end_to_end,
        "per_layer": layers, "samples": samples,
        "attempted": len(records), "failed": failed,
        "failures": [{"id": r["id"], "failures": r["failures"]} for r in records if r["failures"]][:50],
        "ops": [{**{k: r.get(k) for k in ("id", "round", "wall", "traced_wall", "counts")}, "speed": f}
                for r, f in zip(records, factors)],
    }
    os.makedirs(common.OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    common.write_json(os.path.join(common.OUT_DIR, f"{stem}-trace{int(trace)}.json"), report)
    if trace:
        rec.write_jsonl(os.path.join(common.OUT_DIR, f"spans-{stem}.jsonl"))
    chosen = layers if trace else end_to_end
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }, report


def provenance() -> dict:
    from repro.smt.solver import engine_signature

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "engine_signature": engine_signature(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": common.git_revision(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print {\"setup_s\": ...} and exit (a run takes "
                             "two such extra set-up samples in fresh processes)")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the cluster is always torn down
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # the result line must be the last stdout line: anything else written
    # to stdout (HiGHS prints from C) goes to stderr instead
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        common.refuse_engine_overrides()
        common.require_source_tree()
        if args.setup_probe:
            os.dup2(result_fd, 1)
            return setup_probe(args.workload)
        line, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    summary = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in line["metrics"].items())
    print(f"perfbench {args.workload} seed={args.seed}: {line['attempted']} ops, "
          f"{line['failed']} failed; {summary}; samples {report['samples']}", file=sys.stderr)
    sys.stderr.flush()
    os.write(result_fd, (json.dumps(line) + "\n").encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
