"""Smoke-test the verification service end to end, across processes.

Starts ``python -m repro.cli serve`` as a real subprocess on a free
port, submits a verification job through the blocking client, asserts a
conclusive (sat/unsat) result within 60 seconds, prints the ``/statsz``
counters, then SIGTERMs the server and checks it drains cleanly.

It also gates the **served overhead**: for 13 ieee14 specs (goal bus
2..14) it times an in-process ``verify_many`` and a served
``client.verify`` back to back, and requires the median of served wall
minus in-process wall to be at most ``MAX_OVERHEAD_P50_MS``.  An idle
server adds one HTTP exchange and no timer, so the gap is a few ms; a
batch window held open on an idle queue, or a client sleeping between
polls, shows up here as tens of ms.

Used by CI (the "service smoke" step) and as a copy-pasteable example::

    PYTHONPATH=src python examples/service_smoke.py
"""

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.runtime import verify_many
from repro.service.client import ServiceClient

RESULT_BUDGET_SECONDS = 60.0
MAX_OVERHEAD_P50_MS = 10.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def served_overhead_ms(client: ServiceClient) -> list:
    """Served minus in-process wall per ieee14 spec, in milliseconds."""
    grid = ieee14()
    overhead = []
    for bus in range(2, 15):
        spec = AttackSpec.default(grid, goal=AttackGoal.states(bus))
        started = time.perf_counter()
        (local,) = verify_many([spec])
        local_s = time.perf_counter() - started
        started = time.perf_counter()
        job = client.verify(spec, timeout=RESULT_BUDGET_SECONDS)
        served_s = time.perf_counter() - started
        assert job["result"]["outcome"] == local.outcome.value, (job, local)
        overhead.append(1000 * (served_s - local_s))
    return overhead


def main() -> int:
    port = free_port()
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" if not existing else "src" + os.pathsep + existing
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(port),
            "--batch-window",
            "0.02",
        ],
        env=env,
    )
    try:
        client = ServiceClient(port=port)
        client.wait_until_ready(timeout=30.0)
        print(f"server up on port {port}")

        overhead_ms = served_overhead_ms(client)
        p50 = statistics.median(overhead_ms)
        print(
            "served overhead ms (served - in-process): "
            + " ".join(f"{ms:.1f}" for ms in overhead_ms)
            + f"; p50 {p50:.1f}"
        )
        assert p50 <= MAX_OVERHEAD_P50_MS, (
            f"served p50 overhead {p50:.1f} ms > {MAX_OVERHEAD_P50_MS} ms"
        )

        spec = AttackSpec.default(ieee14(), goal=AttackGoal.states(9))
        job = client.verify(spec, timeout=RESULT_BUDGET_SECONDS)
        outcome = job["result"]["outcome"]
        print(f"job {job['id']}: state={job['state']} outcome={outcome}")
        assert job["state"] == "done", job
        assert outcome in ("sat", "unsat"), job

        stats = client.stats()
        print("statsz:", json.dumps(stats, indent=2))
        assert stats["queue"]["done"] >= 1, stats
        assert stats["batching"]["solver_calls"] >= 1, stats
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            returncode = server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            server.kill()
            print("FAIL: server did not drain within 30 s", file=sys.stderr)
            return 1
    if returncode != 0:
        print(f"FAIL: server exited with {returncode}", file=sys.stderr)
        return 1
    print(
        "OK: verify round-trip conclusive, served overhead within budget, "
        "server drained cleanly"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
