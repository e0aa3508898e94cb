"""Self-tests of the benchmark's checks, arithmetic and bookkeeping.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
from collections import defaultdict

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.require_source_tree()

import inprocess  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import spantree  # noqa: E402
import verdicts  # noqa: E402
from repro.grid.cases import load_case  # noqa: E402

KEY = common.load_key()


def instance(group, **where):
    for inst in common.group_instances(KEY, group):
        if all(inst.get(k) == v for k, v in where.items()):
            return inst
    raise LookupError(group)


def spec_of(inst):
    return common.build_spec(inst, {inst["case"]: load_case(inst["case"])})


def error_rate(inst, out):
    record = {"id": inst["id"], "failures": [], "out": out}
    record["failures"] += inprocess.check(inst, spec_of(inst), out, verdicts.ReplayBench())
    return run.error_rate([record])


# ----------------------------------------------------------------------
# checks: each defect must raise error_rate
# ----------------------------------------------------------------------
def solved(inst):
    return inprocess.execute(inst, spec_of(inst))


def test_valid_outputs_pass():
    sat = instance("sv", case="ieee14", max_measurements=None, verdict="sat")
    assert error_rate(sat, solved(sat)) == 0.0
    unsat = instance("sv", case="ieee14", verdict="unsat")
    assert error_rate(unsat, solved(unsat)) == 0.0


def test_flipped_verdict_is_an_error():
    sat = instance("sv", case="ieee14", max_measurements=None, verdict="sat")
    assert error_rate(sat, {"outcome": "unsat", "attack": None}) == 1.0
    unsat = instance("sv", case="ieee14", verdict="unsat")
    witness = solved(sat)["attack"]
    assert error_rate(unsat, {"outcome": "sat", "attack": witness}) == 1.0
    assert error_rate(unsat, {"outcome": "unknown", "attack": None}) == 1.0


def test_tampered_witness_is_an_error():
    from repro.attacks.vector import AttackVector

    sat = instance("sv", case="ieee14", max_measurements=None, verdict="sat")
    out = solved(sat)
    attack = out["attack"]
    first = attack.altered_measurements[0]
    deltas = dict(attack.measurement_deltas)
    deltas[first] *= 1.5
    tampered = AttackVector(deltas, attack.state_deltas, attack.excluded_lines, attack.included_lines)
    assert error_rate(sat, {"outcome": "sat", "attack": tampered}) == 1.0


def test_wrong_min_cost_is_an_error():
    inst = instance("mc14")
    out = solved(inst)
    assert error_rate(inst, out) == 0.0
    assert error_rate(inst, {**out, "cost": out["cost"] + 1}) == 1.0


def test_over_budget_or_leaky_architecture_is_an_error():
    inst = next(i for i in common.group_instances(KEY, "sy14") if i["feasible"])
    out = solved(inst)
    assert error_rate(inst, out) == 0.0
    too_big = list(range(1, inst["tsb"] + 2))
    assert error_rate(inst, {**out, "architecture": too_big}) == 1.0
    assert error_rate(inst, {**out, "architecture": []}) == 1.0
    assert error_rate(inst, {**out, "architecture": None}) == 1.0


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
class FakeSpan:
    def __init__(self, id, name, start, end, parent=None):
        self.id, self.name, self.start, self.end, self.parent = id, name, start, end, parent


def test_self_time_on_a_hand_built_tree():
    spans = [
        FakeSpan(1, "op", 0.0, 10.0),
        FakeSpan(2, "runtime", 1.0, 9.0, parent=1),
        FakeSpan(3, "encode", 2.0, 5.0, parent=2),
        FakeSpan(4, "solve", 4.0, 7.0, parent=2),  # overlaps encode (threads)
        FakeSpan(5, "solve", 5.5, 6.0, parent=4),
        FakeSpan(6, "extract", 8.5, 12.0, parent=2),  # runs past its parent
    ]
    self_time = spantree.self_times(spans)
    assert self_time[1] == pytest.approx(2.0)  # 10 - 8
    assert self_time[2] == pytest.approx(8.0 - 5.0 - 0.5)  # union [2,7] + [8.5,9]
    assert self_time[3] == pytest.approx(3.0)
    assert self_time[4] == pytest.approx(2.5)
    assert self_time[5] == pytest.approx(0.5)


def test_recorder_nests_and_writes_jsonl(tmp_path):
    rec = spantree.Recorder()
    with rec.span("op", op=7):
        with rec.span("encode"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["op", "encode"]
    assert rows[1]["parent"] == rows[0]["id"] and rows[1]["op"] == 7


# ----------------------------------------------------------------------
# served loop: a timed-out request is a failure
# ----------------------------------------------------------------------
class TimeoutClient:
    def __init__(self):
        self.retry_stats = {"attempts": 0, "retries": 0, "failovers": 0}

    def verify(self, **kwargs):
        self.retry_stats["attempts"] += 1
        raise TimeoutError("job still running after 60s")

    synthesize = verify


def test_served_timeout_counts_as_failure():
    sv = {iid: inst for iid, inst in KEY["instances"].items() if inst["group"] in ("sv", "sy14")}
    ctx = {"key": KEY, "payloads": {iid: {} for iid in sv}, "specs": {}}
    ids, _ = served.request_ids(KEY, seed=1, count=served.MIN_REQUESTS)
    records = served.closed_loop(
        None, ctx, ids, trace=False, rec=spantree.Recorder(),
        client_factory=lambda index: TimeoutClient(),
    )
    assert [r["id"] for r in records] == ids
    assert run.error_rate(records) == 1.0
    assert all("TimeoutError" in r["failures"][0] for r in records)


def test_served_chunk_scale_retimes_only_the_busy_share():
    # idle (timers only): kept as measured
    assert served.busy_scale(wall=2.0, cpu=0.0, factor=2.0) == 1.0
    # every stream computing all the time, machine twice as slow: halved
    assert served.busy_scale(wall=2.0, cpu=2.0 * served.CLIENTS, factor=2.0) == 0.5
    # half busy at half speed: the busy half is halved
    assert served.busy_scale(wall=2.0, cpu=1.0 * served.CLIENTS, factor=2.0) == 0.75


# ----------------------------------------------------------------------
# determinism and bookkeeping
# ----------------------------------------------------------------------
def test_same_seed_gives_same_ops_and_exact_counts():
    def first_ops(seed):
        out = []
        for round_index, iid in inprocess.op_sequence(KEY, "analytics_incremental", seed):
            if round_index > 0:
                return out
            out.append(iid)

    assert first_ops(3) == first_ops(3)
    assert first_ops(3) != first_ops(4)

    def counts():
        totals = defaultdict(float)
        for iid in [instance("sv", verdict="unsat")["id"], instance("mc14")["id"], instance("sy14")["id"]]:
            inst = KEY["instances"][iid]
            inprocess.traced_execute(inst, spec_of(inst), spantree.Recorder(), 0, totals)
        return {k: v for k, v in totals.items() if not k.endswith("_s")}

    first, second = counts(), counts()
    assert first == second
    assert first["encode.clauses"] > 0 and first["solve.conflicts"] > 0
    assert first["session.encodes"] == first["session.searches"]


def test_served_requests_are_fixed_by_seed_and_seconds():
    count = served.request_count(12)
    ids, wrapped = served.request_ids(KEY, seed=3, count=count)
    assert count >= served.MIN_REQUESTS and len(ids) == count and wrapped == 0
    assert served.request_ids(KEY, seed=3, count=count) == (ids, 0)
    assert served.request_ids(KEY, seed=4, count=count)[0] != ids


def test_rounds_draw_one_per_stratum():
    picks = next(common.rounds(KEY, [("mc14", 4), ("mc30", 2)], seed=5))
    assert len(picks) == 6
    strata = common.strata(common.group_instances(KEY, "mc14"), 4)
    assert sum(1 for stratum in strata for iid in picks if iid in stratum) == 4


def test_refuses_engine_overrides():
    with pytest.raises(common.SetupError):
        common.refuse_engine_overrides({"REPRO_THEORY_KERNEL": "int"})
    common.refuse_engine_overrides({"PATH": "/bin"})


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {u for _, u in run.PER_LAYER} | {u for _, u in run.END_TO_END} >= {
        m["unit"] for m in spec["per_layer"] + spec["end_to_end"]
    }
