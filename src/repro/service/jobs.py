"""Job model, options, and the bounded admission-controlled queue.

A *job* is one extraction request: a CIF payload plus
:class:`~repro.pipeline.JobOptions` (defined with the pipeline that runs
it, re-exported here).  Jobs move through a strict lifecycle::

    queued -> running -> done | failed
    queued -> cancelled            (cancel before a worker claims it)
    running -> cancelled           (at once: the daemon kills the worker)

The queue is deliberately dumb: a bounded FIFO whose only policy is
admission control — when full it refuses immediately with
:class:`QueueFull` rather than blocking the submitter, and the HTTP
layer turns that into ``429`` plus a ``Retry-After`` estimate.  The
store admits jobs into it, and merges a submission whose result is
already queued or running into that job.  The worker processes live in
:mod:`repro.service.engine`.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from ..pipeline import JobOptions, OptionsError  # noqa: F401 - re-exported
from ..pipeline import Trace


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a job can never move again.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class Job:
    """One extraction request and everything observed about it."""

    ident: str
    cif: str
    options: JobOptions
    digest: str  #: sha256 of the CIF payload
    cache_key: str  #: result-cache key (digest + option facet)
    state: JobState = JobState.QUEUED
    stage: "str | None" = None  #: current engine stage while running
    submitted_monotonic: float = field(default_factory=time.monotonic)
    submitted_wall: float = field(default_factory=time.time)
    started_monotonic: "float | None" = None
    finished_monotonic: "float | None" = None
    deadline: "float | None" = None  #: monotonic per-job deadline
    cached: bool = False  #: served straight from the result cache
    #: the extraction's timing record; held here, never in the result
    #: cache, so a cache hit (no extraction) has none
    trace: "Trace | None" = None
    result: "dict | None" = None
    error: "str | None" = None
    error_kind: "str | None" = None  #: "timeout" | "cancelled" | "error"
    cancel_event: threading.Event = field(default_factory=threading.Event)

    @classmethod
    def new(
        cls,
        cif: str,
        options: JobOptions,
        digest: str,
        cache_key: str,
        *,
        default_timeout: "float | None" = None,
    ) -> "Job":
        job = cls(
            ident=uuid.uuid4().hex[:12],
            cif=cif,
            options=options,
            digest=digest,
            cache_key=cache_key,
        )
        timeout = (
            options.timeout if options.timeout is not None else default_timeout
        )
        if timeout is not None:
            job.deadline = job.submitted_monotonic + timeout
        return job

    @property
    def latency_seconds(self) -> "float | None":
        """Submit-to-finish wall time, once the job is terminal."""
        if self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.submitted_monotonic

    def status_payload(self) -> dict:
        """The JSON body of ``GET /jobs/<id>``."""
        payload: dict = {
            "job": self.ident,
            "state": self.state.value,
            "digest": self.digest,
            "cached": self.cached,
            "options": self.options.to_payload(),
            "submitted_at": self.submitted_wall,
        }
        if self.stage is not None and self.state is JobState.RUNNING:
            payload["stage"] = self.stage
        if self.started_monotonic is not None:
            payload["queue_seconds"] = round(
                self.started_monotonic - self.submitted_monotonic, 6
            )
        latency = self.latency_seconds
        if latency is not None:
            payload["latency_seconds"] = round(latency, 6)
        if self.error is not None:
            payload["error"] = self.error
            payload["error_kind"] = self.error_kind
        if self.trace is not None and self.state is JobState.DONE:
            payload["trace"] = [
                [depth, name, round(seconds, 6)]
                for depth, name, seconds in self.trace.rows()
            ]
        return payload


class QueueFull(RuntimeError):
    """Admission control refused the job; retry after ``retry_after``."""

    def __init__(self, depth: int, capacity: int, retry_after: float) -> None:
        super().__init__(
            f"job queue full ({depth}/{capacity}); "
            f"retry after {retry_after:.1f}s"
        )
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after


class QueueClosed(RuntimeError):
    """The daemon is draining; no new work is admitted."""


class JobQueue:
    """Bounded FIFO of queued jobs with immediate-refusal admission."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._items: "deque[Job]" = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(self, job: Job, *, retry_after: float = 1.0) -> None:
        """Admit ``job`` or refuse: QueueFull / QueueClosed, never block."""
        with self._lock:
            if self._closed:
                raise QueueClosed("daemon is draining")
            if len(self._items) >= self.capacity:
                raise QueueFull(
                    len(self._items), self.capacity, retry_after
                )
            self._items.append(job)
            self._not_empty.notify()

    def get(self, timeout: "float | None" = None) -> "Job | None":
        """Next queued job, or None on timeout / closed-and-empty."""
        with self._lock:
            while not self._items:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            return self._items.popleft()

    def discard(self, job: Job) -> None:
        """Drop ``job`` if it is still queued: it was cancelled."""
        with self._lock:
            if job in self._items:
                self._items.remove(job)

    def close(self) -> None:
        """Stop admitting; wake every waiting worker."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()


class JobStore:
    """Thread-safe registry of every job the daemon has seen.

    Finished jobs are retained (result included) up to ``retain``
    entries so clients can poll after completion; beyond that the oldest
    terminal jobs are evicted and their ids answer 404.  Queued and
    running jobs are also indexed by result-cache key, so an identical
    submission joins the job already under way.
    """

    def __init__(self, retain: int = 256) -> None:
        self.retain = retain
        self._jobs: "dict[str, Job]" = {}
        self._finished: "deque[str]" = deque()
        self._in_flight: "dict[str, Job]" = {}  #: cache key -> live job
        self._lock = threading.Lock()

    def admit(self, job: Job, queue: JobQueue, *, retry_after: float) -> Job:
        """Queue ``job``, unless a live job has its cache key: return that.

        Raises what :meth:`JobQueue.put` raises, admitting nothing.
        """
        with self._lock:
            live = self._in_flight.get(job.cache_key)
            if live is not None:
                return live
            queue.put(job, retry_after=retry_after)
            self._jobs[job.ident] = job
            self._in_flight[job.cache_key] = job
            return job

    def add(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.ident] = job

    def get(self, ident: str) -> "Job | None":
        with self._lock:
            return self._jobs.get(ident)

    def claim(self, job: Job) -> bool:
        """Atomically move QUEUED -> RUNNING; False if no longer queued."""
        with self._lock:
            if job.state is not JobState.QUEUED:
                return False
            job.state = JobState.RUNNING
            job.started_monotonic = time.monotonic()
            return True

    def finish(
        self,
        job: Job,
        state: JobState,
        *,
        result: "dict | None" = None,
        error: "str | None" = None,
        error_kind: "str | None" = None,
    ) -> None:
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state} is not terminal")
        with self._lock:
            if job.state not in TERMINAL_STATES:
                self._retire(job, state, result, error, error_kind)

    def cancel(self, ident: str) -> "Job | None":
        """Request cancellation; returns the job, or None if unknown.

        A queued job is cancelled outright.  A running job gets its
        cancel event set; the daemon then kills the worker running it.
        """
        with self._lock:
            job = self._jobs.get(ident)
            if job is None:
                return None
            job.cancel_event.set()
            if job.state is JobState.QUEUED:
                self._retire(
                    job,
                    JobState.CANCELLED,
                    None,
                    "cancelled while queued",
                    "cancelled",
                )
        return job

    def _retire(
        self,
        job: Job,
        state: JobState,
        result: "dict | None",
        error: "str | None",
        error_kind: "str | None",
    ) -> None:
        """Make ``job`` terminal and evict beyond ``retain`` (lock held)."""
        job.state = state
        job.result = result
        job.error = error
        job.error_kind = error_kind
        job.finished_monotonic = time.monotonic()
        job.stage = None
        if self._in_flight.get(job.cache_key) is job:
            del self._in_flight[job.cache_key]
        self._finished.append(job.ident)
        while len(self._finished) > self.retain:
            self._jobs.pop(self._finished.popleft(), None)

    def in_flight(self) -> int:
        with self._lock:
            return sum(
                1 for j in self._jobs.values() if j.state is JobState.RUNNING
            )

    def pending(self) -> int:
        """Jobs not yet terminal (queued + running)."""
        with self._lock:
            return sum(
                1
                for j in self._jobs.values()
                if j.state not in TERMINAL_STATES
            )
