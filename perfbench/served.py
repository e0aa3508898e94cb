"""The ``served_cluster`` workload: a closed loop against a real cluster.

``python3 -m repro.cli serve --replicas 2`` runs as a subprocess with a
fresh cache directory; two client threads (one ``ServiceClient`` each)
send a fixed, seeded sequence of requests, each thread issuing its next
request only after the previous one returned.  The mix: mostly distinct
cheap verify requests (ieee14, and the few ieee30 ones under
``MAX_REF_S``; SAT, and two-measurement-budget UNSAT), about a quarter
exact repeats of earlier requests (cache and dedup "reads"), and about
one in twenty an ieee14 synthesize job.  The
request count is fixed by ``--seconds`` (``REQUESTS_PER_SECOND``), so
every commit sends the same sequence: a faster service ends sooner.

The loop runs in chunks of ``CHUNK`` requests and drains between them;
while the cluster is idle the client times calibration slices
(``calibrate.py``), so no slice shares the cores with the replicas.
Only the busy part of a chunk's wall follows machine speed: the fixed
timers (the 50 ms batch window, the client's 50 ms polls) do not.  So a
chunk is scaled by ``busy_scale``: its measured CPU share (client,
router and replicas, per client stream) is re-timed at reference speed,
the rest is kept as measured.

A traced run runs the untraced loop as usual, then sends the same
sequence again, on a second fresh cluster, with client-side spans around
each submit and wait; the two loops give the tracing overhead, and the
untraced one the unattributed share.  Afterwards it replays the answered
requests' polls through the router and straight to each request's owning
replica, so the router's forwarding cost shows as the difference between
the two.
"""

from __future__ import annotations

import ctypes
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import spantree
import verdicts

CLIENTS = 2
REPLICAS = 2
MIN_REQUESTS = 100
REQUEST_TIMEOUT = 60.0
BOOT_TIMEOUT = 60.0
SYNTH_SHARE = 0.05
REPEAT_SHARE = 0.25
#: verify requests whose reference solve exceeds this are left out of
#: the mix: the workload measures the service around cheap solves, not
#: the search.  Most requests under it finish before the client's second
#: poll, so the median sits inside that poll step, not between two steps
#: (where a few ms of solve time moves it by a whole 50 ms poll)
MAX_REF_S = 0.045
#: requests a run sends per second of ``--seconds`` (fixed, so every
#: commit sends the same sequence; the seed code serves about 13/s on a
#: 2-vCPU host, so a run's loop takes longer than ``--seconds`` there)
REQUESTS_PER_SECOND = 30
#: a loop stops sending requests past this much wall time, so a
#: pathologically slow build still ends in time (two loops when traced)
MAX_LOOP_SECONDS = 60.0
#: requests per chunk of the loop (calibration slices run between chunks)
CHUNK = 20
SLICES_PER_GAP = 3
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (replicas), so teardown can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def get_json(port: int, path: str, timeout: float = 10.0) -> Dict[str, Any]:
    import http.client
    import json

    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)
    finally:
        connection.close()


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Cluster:
    """``repro serve --replicas N`` as a subprocess; always torn down."""

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.replicas: Dict[str, Dict[str, Any]] = {}
        self.ring: Dict[str, Any] = {}
        self.cache_dir = ""
        self.boot_s = 0.0
        self.stopped = False

    def start(self) -> "Cluster":
        os.makedirs(self.scratch, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = common.SRC
        env["TMPDIR"] = self.scratch
        self.port = _free_port()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(self.port),
             "--replicas", str(REPLICAS), "--cache-dir", self.cache_dir],
            env=env, cwd=common.ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"cluster exited with {self.proc.returncode} during boot")
            try:
                topology = get_json(self.port, "/clusterz", timeout=5.0)
                self.replicas = {r["replica_id"]: r for r in topology["replicas"]}
                self.ring = topology["ring"]
                if len(self.replicas) == REPLICAS and all(r["alive"] for r in self.replicas.values()):
                    break
            except Exception:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("cluster not ready in time")
            time.sleep(0.02)
        self.boot_s = time.perf_counter() - start
        return self

    def warm_up(self) -> None:
        """One verify per replica, on a spec outside the request pool
        (a one-measurement budget), so no pool answer is cached early."""
        from repro.core.spec import AttackGoal, AttackSpec, ResourceLimits
        from repro.grid.cases import load_case
        from repro.service.client import ServiceClient

        spec = AttackSpec.default(load_case("ieee14"), goal=AttackGoal.states(2),
                                  limits=ResourceLimits(max_measurements=1))
        for replica in self.replicas.values():
            ServiceClient(port=replica["port"], timeout=REQUEST_TIMEOUT).verify(spec, timeout=REQUEST_TIMEOUT)

    def stats(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        return get_json(self.port, "/statsz"), get_json(self.port, "/clusterz")

    def pids(self) -> List[int]:
        """The router and its replicas."""
        return [self.proc.pid] + [r["pid"] for r in self.replicas.values() if r.get("pid")]

    def peak_rss_mb(self) -> float:
        """Largest VmHWM among the replica processes."""
        peak = 0.0
        for replica in self.replicas.values():
            peak = max(peak, vm_hwm_mb(replica["pid"]))
        return peak

    def stop(self) -> None:
        """SIGTERM the router (it drains and stops its replicas), then
        kill and reap anything still alive; a second call does nothing."""
        if self.stopped:
            return
        self.stopped = True
        pids = [r["pid"] for r in self.replicas.values() if r.get("pid")]
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10.0)
        # replicas orphaned by a killed router were adopted by this process
        pids = sorted(set(pids) | set(adopted_children()))
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        reap_children(pids)
        if self.cache_dir:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def adopted_children() -> List[int]:
    """Live child processes of this process (scanned from /proc)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            out.append(int(entry))
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def reap_children(pids: List[int], timeout: float = 10.0) -> None:
    """Wait until every pid has ended; reap those adopted by this process."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        if not any(_alive(pid) for pid in pids) or time.monotonic() > deadline:
            return
        time.sleep(0.02)


def cpu_s(pids: List[int]) -> float:
    """CPU seconds (user + system, every thread) the processes used so far."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            pass
    return total / os.sysconf("SC_CLK_TCK")


def busy_scale(wall: float, cpu: float, factor: float) -> float:
    """Scale that re-times a chunk at reference machine speed.

    ``cpu`` is what every process of the loop used in the chunk's
    ``wall``; per client stream, ``cpu / (CLIENTS * wall)`` (at most 1)
    of the wall was computing and ran ``factor`` times slower than at
    reference speed, the rest was timers and waits and is kept.
    """
    busy = min(1.0, cpu / (CLIENTS * wall)) if wall > 0 else 0.0
    return 1.0 - busy * (1.0 - 1.0 / factor)


def vm_hwm_mb(pid: Any = "self") -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
def request_count(seconds: float) -> int:
    """Requests a run of ``seconds`` sends (at least ``MIN_REQUESTS``)."""
    return max(MIN_REQUESTS, round(seconds * REQUESTS_PER_SECOND))


def request_ids(key: Dict[str, Any], seed: int, count: int) -> Tuple[List[str], int]:
    """Seeded request order (instance ids; repeats are exact), and how
    many "distinct" requests repeated an id because the pool ran out.

    Every seed gets the same number of each kind of request, and its
    distinct and synthesize requests are drawn one per stratum of similar
    reference cost, so seeds differ in which requests they send, not in
    how much work those requests are.
    """
    rng = random.Random(seed)
    n_synth = round(count * SYNTH_SHARE)
    n_repeat = round(count * REPEAT_SHARE)
    n_distinct = count - n_synth - n_repeat
    pool = [inst for inst in common.group_instances(key, "sv") if inst["ref_s"] <= MAX_REF_S]
    layout = common.strata(pool, n_distinct)
    distinct = [rng.choice(stratum) for stratum in layout]
    rng.shuffle(distinct)
    wrapped = n_distinct - len(distinct)
    distinct += [distinct[i % len(distinct)] for i in range(wrapped)]
    if wrapped:
        print(f"perfbench: {wrapped} of {n_distinct} distinct requests repeat an id "
              f"(pool of {len(pool)}); use fewer --seconds", file=sys.stderr)
    synth = [rng.choice(stratum) for stratum in common.strata(common.group_instances(key, "sy14"), n_synth)]
    synth = [synth[i % len(synth)] for i in range(n_synth)]
    rng.shuffle(synth)
    kinds = ["distinct"] * n_distinct + ["synth"] * n_synth + ["repeat"] * n_repeat
    rng.shuffle(kinds)
    first = next(i for i, kind in enumerate(kinds) if kind != "repeat")
    kinds[0], kinds[first] = kinds[first], kinds[0]  # a repeat needs an earlier request
    sources = {"distinct": iter(distinct), "synth": iter(synth)}
    issued: List[str] = []
    for kind in kinds:
        issued.append(rng.choice(issued) if kind == "repeat" else next(sources[kind]))
    return issued, wrapped


def send(client, inst: Dict[str, Any], payload: Dict[str, Any],
         rec: Optional[spantree.Recorder]) -> Dict[str, Any]:
    """One request, as ``ServiceClient.verify``/``.synthesize`` compose it."""
    synth = inst["kind"] == "synth"
    if rec is None:
        if synth:
            return client.synthesize(spec=payload, budget=inst["tsb"], timeout=REQUEST_TIMEOUT)
        return client.verify(spec=payload, timeout=REQUEST_TIMEOUT)
    from repro.service.client import ServiceError

    with rec.span("service.submit"):
        if synth:
            job = client.submit_synthesize(spec=payload, budget=inst["tsb"])
        else:
            job = client.submit_verify(spec=payload)
    with rec.span("service.wait"):
        job = client.wait(job["id"], timeout=REQUEST_TIMEOUT)
    if job["state"] == "failed":
        raise ServiceError(500, {"error": job.get("error", "job failed")})
    return job


def closed_loop(cluster: Optional[Cluster], ctx: Dict[str, Any], ids: List[str], trace: bool,
                rec: spantree.Recorder, client_factory=None,
                deadline: Optional[float] = None) -> List[Dict[str, Any]]:
    """Two closed-loop clients sending the requests ``ids`` between them
    (none is sent past ``deadline``, a ``perf_counter`` time)."""
    from repro.service.client import ServiceClient

    key, payloads = ctx["key"], ctx["payloads"]
    lock = threading.Lock()
    records: List[Dict[str, Any]] = []
    if deadline is None:
        deadline = time.perf_counter() + MAX_LOOP_SECONDS

    def worker(index: int) -> None:
        if client_factory is not None:
            client = client_factory(index)
        else:
            client = ServiceClient(port=cluster.port, timeout=REQUEST_TIMEOUT, client_id=f"bench{index}")
        while True:
            with lock:
                if len(records) == len(ids) or time.perf_counter() > deadline:
                    return
                iid = ids[len(records)]
                record: Dict[str, Any] = {"id": iid, "client": index, "failures": []}
                records.append(record)
            inst = key["instances"][iid]
            before = dict(client.retry_stats)
            t0 = time.perf_counter()
            try:
                if trace:
                    with rec.span("request", op=iid):
                        job = send(client, inst, payloads[iid], rec)
                else:
                    job = send(client, inst, payloads[iid], None)
                record["job"] = job
            except Exception as exc:  # timeouts and HTTP errors are failures
                record["failures"].append(f"{type(exc).__name__}: {exc}")
            record["wall"] = time.perf_counter() - t0
            record["attempts"] = client.retry_stats["attempts"] - before["attempts"]
            record["retries"] = client.retry_stats["retries"] - before["retries"]

    threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def timed_pass(cluster: Cluster, ctx: Dict[str, Any], ids: List[str], trace: bool,
               rec: spantree.Recorder) -> Dict[str, Any]:
    """One closed loop over ``ids``, chunk by chunk: its records (each
    with its chunk's index) and each chunk's wall, CPU, speed and scale."""
    calibrator = ctx["calibrator"]
    pids = cluster.pids()
    deadline = time.perf_counter() + MAX_LOOP_SECONDS
    records: List[Dict[str, Any]] = []
    chunks: List[Dict[str, float]] = []
    before = [calibrator.slice() for _ in range(SLICES_PER_GAP)]
    for first in range(0, len(ids), CHUNK):
        part = ids[first:first + CHUNK]
        cpu0 = cpu_s(pids) + time.process_time()
        start = time.perf_counter()
        done = closed_loop(cluster, ctx, part, trace, rec, deadline=deadline)
        wall = time.perf_counter() - start
        cpu = cpu_s(pids) + time.process_time() - cpu0
        after = [calibrator.slice() for _ in range(SLICES_PER_GAP)]
        factor = calibrator.factor(before + after)
        for record in done:
            record["chunk"] = len(chunks)
        chunks.append({"wall": wall, "cpu": cpu, "speed": factor,
                       "scale": busy_scale(wall, cpu, factor)})
        records += done
        before = after
        if len(done) < len(part):
            break
    return {"records": records, "chunks": chunks, "wall": sum(c["wall"] for c in chunks),
            "scaled_wall": sum(c["wall"] * c["scale"] for c in chunks)}


def run(ctx: Dict[str, Any], seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure the workload on ``ctx["cluster"]`` (booted by set-up); a
    traced run then repeats it, traced, on a second fresh cluster."""
    ids, wrapped = request_ids(ctx["key"], seed, request_count(seconds))
    cluster = ctx["cluster"]
    plain = timed_pass(cluster, ctx, ids, False, spantree.Recorder())
    out = {"plain": plain, "wrapped": wrapped, "rss": cluster.peak_rss_mb(),
           "boot_s": cluster.boot_s}
    if not trace:
        return out
    cluster.stop()
    second = ctx["cluster"] = Cluster(cluster.scratch)
    second.start()
    second.warm_up()
    rec = spantree.Recorder()
    out["traced"] = timed_pass(second, ctx, ids, True, rec)
    out["recorder"] = rec
    out["stats"], out["topology"] = second.stats()
    out["forward_ms"] = forward_ms(second, ctx, out["traced"]["records"])
    return out


def forward_ms(cluster: Cluster, ctx: Dict[str, Any], records: List[Dict[str, Any]],
               replays: int = 60) -> float:
    """Router cost per request.

    Replays answered requests' job polls through the router and straight
    to the replica owning the request's family (alternating which goes
    first); the per-call p50 difference times the HTTP calls a request
    made is what routing added to it.
    """
    from repro.runtime import family_fingerprint
    from repro.service.router import HashRing

    answered = [r for r in records if not r["failures"]]
    if not answered or not cluster.replicas:
        return 0.0
    ring = HashRing(sorted(cluster.replicas), vnodes=cluster.ring.get("vnodes", 64))
    routed: List[float] = []
    direct: List[float] = []
    for i, record in enumerate(answered[:replays]):
        owner = ring.owner(family_fingerprint(ctx["specs"][record["id"]]))
        legs = [(cluster.port, routed), (cluster.replicas[owner]["port"], direct)]
        for port, sink in legs if i % 2 == 0 else legs[::-1]:
            start = time.perf_counter()
            get_json(port, f"/v1/jobs/{record['job']['id']}")
            sink.append(time.perf_counter() - start)
    calls = sum(r["attempts"] for r in answered) / len(answered)
    return 1000 * (statistics.median(routed) - statistics.median(direct)) * calls


def check(ctx: Dict[str, Any], records: List[Dict[str, Any]]) -> None:
    """Validity of every answered request (after the loop, untimed)."""
    from repro.runtime import attack_from_payload

    key, specs = ctx["key"], ctx["specs"]
    replay = verdicts.ReplayBench()
    for record in records:
        if record["failures"]:
            continue
        inst, spec = key["instances"][record["id"]], specs[record["id"]]
        result = record["job"].get("result") or {}
        try:
            if inst["kind"] == "synth":
                record["failures"] += verdicts.check_architecture(inst, spec, result.get("architecture"))
            else:
                record["failures"] += verdicts.check_verdict(
                    inst, spec, result.get("outcome"), attack_from_payload(result.get("attack")), replay)
        except Exception as exc:
            record["failures"].append(f"check raised {type(exc).__name__}: {exc}")


def split(record: Dict[str, Any]) -> Dict[str, float]:
    """Client wall split into replica queue, dispatch, solve and client parts."""
    job = record["job"]
    result = job.get("result") or {}
    queue = job.get("queue_wait_seconds") or 0.0
    run = job.get("run_seconds") or 0.0
    cached = bool((result.get("statistics") or {}).get("cache_hit"))
    solve = 0.0 if cached else min(run, result.get("runtime_seconds") or 0.0)
    return {"queue": queue, "dispatch": run - solve, "solve": solve,
            "client": record["wall"] - queue - run}


def throughput(timed: Dict[str, Any]) -> float:
    """Correct requests per second of a pass, at reference speed."""
    ok = sum(1 for r in timed["records"] if not r["failures"])
    return ok / timed["scaled_wall"]


def layer_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of a traced run (the output of ``run``), from job
    timings, ``/statsz``, ``/clusterz`` and the router replay."""
    records = result["traced"]["records"]
    ok = [r for r in records if not r["failures"]]
    parts = [split(r) for r in ok]
    n = max(1, len(parts))
    out: Dict[str, float] = {
        "service.queue_wait_ms": 1000 * sum(p["queue"] for p in parts) / n,
        "service.dispatch_ms": 1000 * sum(p["dispatch"] for p in parts) / n,
        "service.solve_ms": 1000 * sum(p["solve"] for p in parts) / n,
        "service.client_ms": 1000 * sum(p["client"] for p in parts) / n,
        "service.polls_per_request": sum(r["attempts"] - 1 for r in ok) / n,
        "service.retries": sum(r.get("retries", 0) for r in records),
        "router.forward_ms": result["forward_ms"],
    }
    batches = jobs = hits = 0
    for replica in (result["stats"].get("replicas") or {}).values():
        batching = replica.get("batching") or {}
        batches += batching.get("batches", 0)
        jobs += batching.get("jobs", 0)
        hits += batching.get("cache_hits", 0) + batching.get("dedup_hits", 0)
    out["service.batch_size_mean"] = jobs / batches if batches else 0.0
    out["runtime.cache_hit_ratio"] = hits / jobs if jobs else 0.0
    out["router.failovers"] = (result["topology"].get("counters") or {}).get("failovers", 0)
    # unattributed: untraced client wall that neither the replicas'
    # reported queue and run times nor the router's forwarding explain
    # (HTTP round trips and the client's poll gaps)
    plain_ok = [r for r in result["plain"]["records"] if not r["failures"]]
    walls = sum(r["wall"] for r in plain_ok)
    if walls:
        replica_s = sum((r["job"].get("queue_wait_seconds") or 0.0) + (r["job"].get("run_seconds") or 0.0)
                        for r in plain_ok)
        routed_s = len(plain_ok) * result["forward_ms"] / 1000
        out["trace.unattributed_share"] = 1.0 - (replica_s + routed_s) / walls
    traced_rate = throughput(result["traced"])
    out["trace.overhead"] = throughput(result["plain"]) / traced_rate - 1.0 if traced_rate else 0.0
    out["trace.ops"] = len(ok)
    return out
