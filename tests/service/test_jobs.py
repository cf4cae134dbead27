"""Job model, option validation, queue admission, store lifecycle."""

import pytest

from repro.service.jobs import (
    Job,
    JobOptions,
    JobQueue,
    JobState,
    JobStore,
    OptionsError,
    QueueClosed,
    QueueFull,
)


def _job(**options) -> Job:
    return Job.new(
        "(C);", JobOptions.from_payload(options or None), "d" * 64, "k" * 64
    )


class TestJobOptions:
    def test_defaults(self):
        options = JobOptions.from_payload(None)
        assert options.name == "layout.cif"
        assert options.timeout is None
        assert not options.hext and not options.lint

    def test_full_payload_round_trips(self):
        payload = {
            "name": "chip.cif",
            "lambda": 300,
            "deck": "cmos",
            "hext": True,
            "lint": True,
            "keep_geometry": True,
            "timeout": 12.5,
            "stream": False,
            "band_height": None,
        }
        options = JobOptions.from_payload(payload)
        assert options.to_payload() == payload

    def test_unknown_key_rejected(self):
        with pytest.raises(OptionsError, match="unknown option"):
            JobOptions.from_payload({"jbos": 2})
        # The worker-count option of earlier versions is refused, not
        # accepted and ignored: extraction runs on one thread.
        with pytest.raises(OptionsError, match=r"unknown option\(s\): jobs"):
            JobOptions.from_payload({"hext": True, "jobs": 2})

    @pytest.mark.parametrize(
        "payload",
        [
            {"hext": "yes"},
            {"lambda": -1},
            {"lambda": 2.5},
            {"lambda": True},
            {"lambda": "250"},
            {"name": ""},
            {"name": 7},
            {"timeout": "fast"},
            {"timeout": -1},
            {"deck": ""},
            {"deck": 3},
            {"deck": "tungsten"},
            ["not", "an", "object"],
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(OptionsError):
            JobOptions.from_payload(payload)

    def test_cache_facet_excludes_execution_knobs(self):
        bounded = JobOptions.from_payload({"name": "a.cif", "timeout": 5})
        serial = JobOptions.from_payload({"name": "a.cif"})
        assert serial.cache_facet() == bounded.cache_facet()
        # ... but everything result-affecting is present.
        assert set(serial.cache_facet()) == {
            "name", "lambda", "deck", "hext", "lint", "keep_geometry"
        }
        # Two decks over the same payload must never share an entry.
        cmos = JobOptions.from_payload({"name": "a.cif", "deck": "cmos"})
        assert cmos.cache_facet() != serial.cache_facet()

    def test_timeout_sets_deadline(self):
        job = _job(timeout=30)
        assert job.deadline == pytest.approx(
            job.submitted_monotonic + 30.0
        )
        assert _job().deadline is None


class TestJobQueue:
    def test_fifo_order(self):
        queue = JobQueue(4)
        jobs = [_job() for _ in range(3)]
        for job in jobs:
            queue.put(job)
        assert [queue.get(timeout=0.1) for _ in jobs] == jobs

    def test_admission_refuses_when_full(self):
        queue = JobQueue(2)
        queue.put(_job())
        queue.put(_job())
        with pytest.raises(QueueFull) as info:
            queue.put(_job(), retry_after=7.0)
        assert info.value.depth == 2
        assert info.value.capacity == 2
        assert info.value.retry_after == 7.0
        assert queue.depth == 2  # the refused job was never admitted

    def test_get_times_out_empty(self):
        assert JobQueue(1).get(timeout=0.01) is None

    def test_close_refuses_and_drains(self):
        queue = JobQueue(4)
        queue.put(_job())
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(_job())
        assert queue.get(timeout=0.1) is not None  # drain what was admitted
        assert queue.get(timeout=0.1) is None  # closed-and-empty: no wait

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            JobQueue(0)


class TestJobStore:
    def test_claim_is_single_shot(self):
        store = JobStore()
        job = _job()
        store.add(job)
        assert store.claim(job)
        assert job.state is JobState.RUNNING
        assert not store.claim(job)

    def test_finish_requires_terminal_state(self):
        store = JobStore()
        job = _job()
        store.add(job)
        with pytest.raises(ValueError):
            store.finish(job, JobState.RUNNING)
        store.finish(job, JobState.DONE, result={"ok": True})
        assert job.latency_seconds is not None
        # A terminal job never changes again.
        store.finish(job, JobState.FAILED, error="late")
        assert job.state is JobState.DONE and job.error is None

    def test_cancel_queued_is_immediate(self):
        store = JobStore()
        job = _job()
        store.add(job)
        cancelled = store.cancel(job.ident)
        assert cancelled is job
        assert job.state is JobState.CANCELLED
        assert not store.claim(job)  # a worker can no longer pick it up

    def test_cancel_running_is_cooperative(self):
        store = JobStore()
        job = _job()
        store.add(job)
        store.claim(job)
        store.cancel(job.ident)
        assert job.state is JobState.RUNNING  # worker finishes it
        assert job.cancel_event.is_set()

    def test_cancel_unknown_job(self):
        assert JobStore().cancel("nope") is None

    def test_retention_evicts_oldest_terminal(self):
        store = JobStore(retain=2)
        jobs = [_job() for _ in range(3)]
        for job in jobs:
            store.add(job)
            store.finish(job, JobState.DONE, result={})
        assert store.get(jobs[0].ident) is None  # evicted
        assert store.get(jobs[1].ident) is jobs[1]
        assert store.get(jobs[2].ident) is jobs[2]

    def test_pending_counts_queued_and_running(self):
        store = JobStore()
        queued, running, done = _job(), _job(), _job()
        for job in (queued, running, done):
            store.add(job)
        store.claim(running)
        store.claim(done)
        store.finish(done, JobState.DONE, result={})
        assert store.pending() == 2
        assert store.in_flight() == 1
