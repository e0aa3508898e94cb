"""Batching scheduler: coalescing, dedup, retries, stats, shared sweep path."""

import asyncio
import time

import pytest

import repro.runtime.executor as executor_module
import repro.service.batching as batching_module
from repro.core.spec import AttackGoal, AttackSpec
from repro.grid.cases import ieee14
from repro.runtime import ResultCache, RuntimeOptions
from repro.runtime.serialize import spec_to_payload
from repro.service.batching import (
    BatchingScheduler,
    BatchStats,
    verify_specs_batched,
)
from repro.service.jobs import JobQueue, JobState


def make_spec(bus=9):
    return AttackSpec.default(ieee14(), goal=AttackGoal.states(bus))


def verify_payload(spec, **extra):
    return {"spec": spec_to_payload(spec), **extra}


async def run_jobs(scheduler, queue, jobs, timeout=60.0):
    """Start the scheduler, wait for every given job to turn terminal."""
    task = asyncio.create_task(scheduler.run())
    try:
        await asyncio.wait_for(
            asyncio.gather(*(job.done.wait() for job in jobs)), timeout
        )
    finally:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


class TestSchedulerLifecycle:
    @pytest.mark.parametrize("window", [0.01, 5.0])
    def test_queue_batch_done(self, window):
        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), window=window)
            job = await queue.submit("verify", verify_payload(make_spec()))
            assert job.state is JobState.QUEUED
            started = time.monotonic()
            await run_jobs(scheduler, queue, [job])
            # an idle queue dispatches at once: the window only bounds
            # lingering while arrivals keep coming
            assert time.monotonic() - started < 2.5
            assert job.state is JobState.DONE
            assert job.result["outcome"] in ("sat", "unsat")
            assert scheduler.stats.batches == 1
            assert scheduler.stats.jobs == 1

        asyncio.run(body())

    def test_unknown_kind_fails_cleanly(self):
        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), window=0.01)
            job = await queue.submit("frobnicate", {})
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.FAILED
            assert "unknown job kind" in job.error

        asyncio.run(body())

    def test_synthesize_job(self):
        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), window=0.01)
            payload = verify_payload(
                make_spec(), settings={"max_secured_buses": 6, "excluded_buses": []}
            )
            job = await queue.submit("synthesize", payload)
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.DONE
            assert job.result["feasible"] is True
            assert isinstance(job.result["architecture"], list)

        asyncio.run(body())


class TestDedup:
    def test_identical_concurrent_jobs_one_solver_call(self, monkeypatch):
        calls = []
        real = executor_module.verify_attack

        def counting(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "verify_attack", counting)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(
                queue,
                RuntimeOptions(cache=ResultCache()),
                window=0.05,
                max_batch=16,
                stats=stats,
            )
            spec = make_spec()
            jobs = [
                await queue.submit("verify", verify_payload(spec)) for _ in range(5)
            ]
            await run_jobs(scheduler, queue, jobs)
            assert all(job.state is JobState.DONE for job in jobs)
            outcomes = {job.result["outcome"] for job in jobs}
            assert len(outcomes) == 1
            return stats

        stats = asyncio.run(body())
        assert len(calls) == 1
        assert stats.solver_calls == 1
        assert stats.dedup_hits + stats.cache_hits == 4

    def test_different_specs_not_deduped(self):
        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(
                queue, RuntimeOptions(), window=0.05, max_batch=16, stats=stats
            )
            jobs = [
                await queue.submit("verify", verify_payload(make_spec(bus)))
                for bus in (4, 9, 13)
            ]
            await run_jobs(scheduler, queue, jobs)
            assert stats.solver_calls == 3
            assert stats.dedup_hits == 0

        asyncio.run(body())

    def test_per_job_backend_split_into_groups(self):
        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(
                queue, RuntimeOptions(), window=0.05, max_batch=16, stats=stats
            )
            spec = make_spec()
            smt = await queue.submit("verify", verify_payload(spec, backend="smt"))
            milp = await queue.submit("verify", verify_payload(spec, backend="milp"))
            await run_jobs(scheduler, queue, [smt, milp])
            assert smt.result["backend"] != milp.result["backend"]
            assert smt.result["outcome"] == milp.result["outcome"]
            # different backends are different fingerprints: no dedup
            assert stats.solver_calls == 2

        asyncio.run(body())


class TestRetry:
    def test_transient_failure_retried_then_done(self, monkeypatch):
        real = batching_module.verify_many
        failures = {"left": 1}

        def flaky(specs, options):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("worker pool died")
            return real(specs, options)

        monkeypatch.setattr(batching_module, "verify_many", flaky)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(
                queue, RuntimeOptions(), window=0.01, stats=stats
            )
            job = await queue.submit("verify", verify_payload(make_spec()))
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.DONE
            assert job.attempts == 2
            assert stats.retries == 1

        asyncio.run(body())

    def test_persistent_failure_exhausts_retries(self, monkeypatch):
        def broken(specs, options):
            raise RuntimeError("backend permanently broken")

        monkeypatch.setattr(batching_module, "verify_many", broken)

        async def body():
            queue = JobQueue()
            stats = BatchStats()
            scheduler = BatchingScheduler(
                queue, RuntimeOptions(), window=0.01, stats=stats
            )
            job = await queue.submit(
                "verify", verify_payload(make_spec()), max_retries=1
            )
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.FAILED
            assert "permanently broken" in job.error
            assert job.attempts == 2
            assert stats.failures == 1

        asyncio.run(body())


class TestDeadline:
    def test_expired_job_never_reaches_solver(self, monkeypatch):
        calls = []
        real = executor_module.verify_attack

        def counting(spec, **kwargs):
            calls.append(spec)
            return real(spec, **kwargs)

        monkeypatch.setattr(executor_module, "verify_attack", counting)

        async def body():
            queue = JobQueue()
            scheduler = BatchingScheduler(queue, RuntimeOptions(), window=0.01)
            job = await queue.submit(
                "verify", verify_payload(make_spec()), deadline=0.0
            )
            await asyncio.sleep(0.005)
            await run_jobs(scheduler, queue, [job])
            assert job.state is JobState.TIMEOUT

        asyncio.run(body())
        assert calls == []


class TestBatchStats:
    def test_histogram_and_percentiles(self):
        stats = BatchStats()
        stats.observe_batch(3)
        stats.observe_batch(3)
        stats.observe_batch(1)
        for latency in (0.1, 0.2, 0.3, 0.4):
            stats.observe_latency(latency)
        snap = stats.snapshot()
        assert snap["batch_size_histogram"] == {"1": 1, "3": 2}
        assert snap["jobs"] == 7
        assert snap["latency_p50"] == pytest.approx(0.2, abs=0.11)
        assert snap["latency_p95"] == pytest.approx(0.4, abs=0.11)

    def test_empty_percentiles_are_none(self):
        snap = BatchStats().snapshot()
        assert snap["latency_p50"] is None and snap["latency_p95"] is None

    def test_rejects_bad_config(self):
        queue = JobQueue.__new__(JobQueue)  # no loop needed for ctor checks
        with pytest.raises(ValueError):
            BatchingScheduler(queue, window=-1.0)
        with pytest.raises(ValueError):
            BatchingScheduler(queue, max_batch=0)


class TestSharedOfflinePath:
    def test_matches_verify_many(self):
        from repro.runtime import verify_many

        specs = [make_spec(bus) for bus in (4, 9, 13)]
        direct = verify_many(specs, RuntimeOptions())
        batched = verify_specs_batched(specs, RuntimeOptions(), max_batch=2)
        for a, b in zip(direct, batched):
            assert a.outcome == b.outcome
            assert a.attack == b.attack

    def test_chunking_and_stats(self):
        specs = [make_spec(9), make_spec(9), make_spec(13)]
        stats = BatchStats()
        cache = ResultCache()
        results = verify_specs_batched(
            specs, RuntimeOptions(cache=cache), max_batch=2, stats=stats
        )
        assert len(results) == 3
        # chunk 1 = [9, 9]: one solve + one in-batch dedup;
        # chunk 2 = [13]: one solve
        assert stats.solver_calls == 2
        assert stats.dedup_hits == 1

    def test_sweep_goes_through_batching(self):
        from repro.analysis.sweeps import verification_sweep

        rows_one_batch = verification_sweep(["ieee14"], targets_per_case=2)
        rows_chunked = verification_sweep(
            ["ieee14"], targets_per_case=2, max_batch=1
        )
        assert [(n, t, r.outcome) for n, t, r in rows_one_batch] == [
            (n, t, r.outcome) for n, t, r in rows_chunked
        ]

    def test_empty_specs(self):
        assert verify_specs_batched([], RuntimeOptions()) == []
