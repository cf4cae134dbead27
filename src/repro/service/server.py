"""The extraction daemon: HTTP front end, worker processes, graceful drain.

JSON API (see docs/SERVICE.md for the full reference)::

    POST   /jobs            submit {"cif": ...| "path": ..., "options": {...}}
    GET    /jobs/<id>       job status
    GET    /jobs/<id>/result  the wirelist + diagnostics payload
    DELETE /jobs/<id>       cancel (a running job's worker is killed)
    GET    /metrics         the metrics plane (one JSON document)
    GET    /healthz         liveness + drain state

Backpressure contract: admission control happens at submit time and
never blocks.  A full queue answers ``429`` with a ``Retry-After``
header estimated from observed mean latency; a draining daemon answers
``503``.  Accepted jobs are never dropped: SIGTERM closes admission,
the workers finish every queued and in-flight job (bounded by the drain
grace period), and only then does the process exit — a result either
appears complete or not at all, never torn.

Job bodies run in worker processes (:mod:`repro.service.engine`), one
job at a time each; one daemon thread per worker claims jobs, waits on
its worker, and records the outcome.  Identical submissions that arrive
while one is queued or running share its job.  The HTTP layer is the
stdlib ``ThreadingHTTPServer``; handler threads only touch the queue,
the store, and the result cache, so a slow extraction can never starve
status polls or metrics scrapes.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Any

from .cache import ResultCache, payload_digest, result_cache_key
from .engine import (
    REPLACEMENT_CAUSES,
    JobCancelled,
    JobError,
    JobTimeout,
    Outcome,
    Worker,
    WorkerDied,
    preload,
    run_job,
)
from .jobs import (
    Job,
    JobOptions,
    JobQueue,
    JobState,
    JobStore,
    OptionsError,
    QueueClosed,
    QueueFull,
)
from .metrics import Metrics

#: Default TCP port; pass 0 to bind an ephemeral port (tests, bench).
DEFAULT_PORT = 8731

#: Largest request body accepted, bytes.  CIF is compact; a layout
#: bigger than this should go through the "path" submission form.
MAX_BODY_BYTES = 64 * 1024 * 1024


@dataclass
class ServiceConfig:
    """Everything tunable about one daemon instance."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2  #: worker processes (0 = admit but never run: tests)
    queue_capacity: int = 64
    result_cache_dir: "str | None" = None
    memory_cache_entries: int = 256
    cache_max_entries: "int | None" = None  #: disk store entry budget
    cache_max_bytes: "int | None" = None  #: disk store byte budget
    cache_ttl: "float | None" = None  #: disk entry max idle, seconds
    default_timeout: "float | None" = 300.0  #: per-job seconds
    drain_grace: float = 30.0  #: max seconds to wait for drain
    retain_jobs: int = 256
    allow_paths: bool = True  #: accept {"path": ...} submissions
    engine: str = "auto"  #: strip-batch engine for every extraction
    log_stream: "IO[str] | None" = field(default=None, repr=False)
    quiet: bool = False  #: suppress structured logs entirely


class ExtractionService:
    """A long-lived extraction daemon bound to one TCP port."""

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = Metrics()
        self.results = ResultCache(
            self.config.result_cache_dir,
            memory_entries=self.config.memory_cache_entries,
            max_entries=self.config.cache_max_entries,
            max_bytes=self.config.cache_max_bytes,
            ttl_seconds=self.config.cache_ttl,
        )
        self.queue = JobQueue(self.config.queue_capacity)
        self.store = JobStore(retain=self.config.retain_jobs)
        #: what each worker runs; a test may swap it before :meth:`start`
        self.job_body = run_job
        self.draining = threading.Event()
        self._drained = threading.Event()
        self._workers: "list[Worker]" = []
        self._log_lock = threading.Lock()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd.daemon_threads = True
        self._serve_thread: "threading.Thread | None" = None

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Fork the workers, then serve HTTP in the background."""
        # Fork before this process starts any thread, with the modules
        # the job body needs already imported: every worker shares them.
        preload(self.config.engine)
        self._workers = [
            Worker(self.job_body, engine=self.config.engine)
            for _ in range(self.config.workers)
        ]
        for index, worker in enumerate(self._workers):
            threading.Thread(
                target=self._worker_loop,
                args=(worker,),
                name=f"extract-worker-{index}",
                daemon=True,
            ).start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        self._serve_thread.start()
        self.log(
            event="ready",
            address=self.address,
            workers=self.config.workers,
            queue_capacity=self.config.queue_capacity,
        )

    def serve_forever(self) -> None:
        """Start, then block until :meth:`drain` completes (CLI path)."""
        self.start()
        self._drained.wait()

    def drain(self, grace: "float | None" = None) -> bool:
        """Stop admitting, finish outstanding jobs, stop the server.

        Returns True when every admitted job reached a terminal state
        within the grace period; False means the period expired with
        work still in flight.  Either way the workers are then stopped,
        so a job still running ends cancelled, never with a partial
        result.
        """
        grace = self.config.drain_grace if grace is None else grace
        self.draining.set()
        self.queue.close()
        deadline = time.monotonic() + grace
        clean = True
        while self.store.pending():
            if time.monotonic() > deadline:
                clean = False
                break
            time.sleep(0.02)
        if self._serve_thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        for worker in self._workers:
            worker.stop()
        self.log(event="drained", clean=clean)
        self._drained.set()
        return clean

    def close(self) -> None:
        """Immediate teardown for tests: drain with a short grace."""
        if not self._drained.is_set():
            self.drain(grace=5.0)

    # -- submission ------------------------------------------------------

    def submit(self, body: dict) -> "tuple[int, dict, dict[str, str]]":
        """Admit one submission; returns (status, payload, headers)."""
        if self.draining.is_set():
            self.metrics.count("rejected_draining")
            return 503, {"error": "daemon is draining"}, {}
        try:
            cif, options = self._parse_submission(body)
        except OptionsError as exc:
            return 400, {"error": str(exc)}, {}

        digest = payload_digest(cif)
        cache_key = result_cache_key(digest, options)
        self.metrics.count("submitted")

        cached = self.results.get(cache_key)
        self.metrics.count("cache_hits" if cached is not None else "cache_misses")
        if cached is not None:
            job = Job.new(
                cif="",  # the payload is not retained for cached answers
                options=options,
                digest=digest,
                cache_key=cache_key,
                default_timeout=None,
            )
            job.cached = True
            self.store.add(job)
            self.store.finish(job, JobState.DONE, result=cached)
            self.metrics.count("completed")
            self.metrics.observe_completion(0.0, 0.0)
            self.log(event="job", job=job.ident, state="done", cached=True)
            payload = job.status_payload()
            return 200, payload, {}

        job = Job.new(
            cif,
            options,
            digest,
            cache_key,
            default_timeout=self.config.default_timeout,
        )
        try:
            admitted = self.store.admit(
                job, self.queue, retry_after=self._retry_after()
            )
        except QueueClosed:
            self.metrics.count("rejected_draining")
            return 503, {"error": "daemon is draining"}, {}
        except QueueFull as exc:
            self.metrics.count("rejected_full")
            return (
                429,
                {
                    "error": str(exc),
                    "queue_depth": exc.depth,
                    "queue_capacity": exc.capacity,
                    "retry_after_seconds": exc.retry_after,
                },
                {"Retry-After": str(max(1, round(exc.retry_after)))},
            )
        if admitted is not job:
            # The same result is already queued or running: share it.
            self.metrics.count("coalesced")
            return 202, admitted.status_payload(), {}
        self.log(
            event="job",
            job=job.ident,
            state="queued",
            digest=digest[:12],
            hext=options.hext,
        )
        return 202, job.status_payload(), {}

    def cancel(self, ident: str) -> "Job | None":
        """Cancel a job: drop it from the queue, or kill its worker."""
        job = self.store.cancel(ident)
        if job is not None:
            self.queue.discard(job)
            for worker in self._workers:
                if worker.kill(job, "cancelled"):
                    break
        return job

    def _parse_submission(self, body: dict) -> "tuple[str, JobOptions]":
        if not isinstance(body, dict):
            raise OptionsError("submission must be a JSON object")
        unknown = sorted(set(body) - {"cif", "path", "options"})
        if unknown:
            raise OptionsError(f"unknown field(s): {', '.join(unknown)}")
        cif = body.get("cif")
        path = body.get("path")
        if (cif is None) == (path is None):
            raise OptionsError("provide exactly one of 'cif' or 'path'")
        options = JobOptions.from_payload(body.get("options"))
        if path is not None:
            if not self.config.allow_paths:
                raise OptionsError("path submissions are disabled")
            if not isinstance(path, str):
                raise OptionsError("'path' must be a string")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    cif = handle.read()
            except OSError as exc:
                raise OptionsError(f"cannot read {path!r}: {exc}") from exc
            if options.name == "layout.cif":
                options = JobOptions.from_payload(
                    {**options.to_payload(), "name": path.rsplit("/", 1)[-1]}
                )
        if not isinstance(cif, str):
            raise OptionsError("'cif' must be a string")
        return cif, options

    def _retry_after(self) -> float:
        """Estimated seconds until a queue slot frees up."""
        mean = self.metrics.mean_latency() or 1.0
        workers = max(1, self.config.workers)
        return max(1.0, self.queue.depth * mean / workers)

    # -- the worker loop -------------------------------------------------

    def _worker_loop(self, worker: Worker) -> None:
        while True:
            job = self.queue.get(timeout=0.1)
            if job is None:
                if self.draining.is_set() and self.queue.depth == 0:
                    return
                continue
            if not self.store.claim(job):
                continue  # cancelled while queued
            started = time.monotonic()
            try:
                outcome = self._run(worker, job)
            except JobCancelled as exc:
                self.store.finish(
                    job,
                    JobState.CANCELLED,
                    error=str(exc),
                    error_kind="cancelled",
                )
                self.metrics.count("cancelled")
            except JobTimeout as exc:
                self.store.finish(
                    job,
                    JobState.FAILED,
                    error=str(exc),
                    error_kind="timeout",
                )
                self.metrics.count("timed_out")
            except Exception as exc:  # noqa: BLE001 - recorded verbatim
                self.store.finish(
                    job,
                    JobState.FAILED,
                    error=(
                        str(exc)
                        if isinstance(exc, JobError)
                        else f"{type(exc).__name__}: {exc}"
                    ),
                    error_kind="error",
                )
                self.metrics.count("failed")
            else:
                self._record(job, outcome)
                self.store.finish(job, JobState.DONE, result=outcome.result)
                self.metrics.count("completed")
                finished = time.monotonic()
                self.metrics.observe_completion(
                    finished - job.submitted_monotonic, finished - started
                )
            self.log(
                event="job",
                job=job.ident,
                state=job.state.value,
                ms=round(1000 * (time.monotonic() - started), 1),
            )

    def _run(self, worker: Worker, job: Job) -> Outcome:
        """Run ``job`` on ``worker``, once more if the worker dies."""

        def progress(kind: str, *values: Any) -> None:
            if kind == "band":
                band, bands = values
                job.stage = f"extract band {band}/{bands}"
                self.metrics.stream_progress(job.ident, band, bands)
            else:
                job.stage = values[0]

        if job.options.stream:
            self.metrics.count("stream_jobs")
        try:
            try:
                return worker.run(job, progress)
            except WorkerDied as exc:
                # Same input, same bytes: a fresh worker runs it again.
                self.log(event="worker_died", job=job.ident, error=str(exc))
                return worker.run(job, progress)
        finally:
            self.metrics.stream_finished(job.ident)

    def _record(self, job: Job, outcome: Outcome) -> None:
        """Cache a finished job's result and fold its counters in."""
        self.results.put(job.cache_key, outcome.result)
        self.metrics.count("cache_stores")
        job.trace = outcome.trace
        if job.options.hext:
            self.metrics.fold_hext_stats(outcome.stats)
        else:
            self.metrics.fold_scan_stats(outcome.stats)
        self.metrics.fold_trace(
            outcome.trace, "hext" if job.options.hext else "scan"
        )

    # -- observability ---------------------------------------------------

    def metrics_payload(self) -> dict:
        memos: "dict[str, int]" = {}
        for worker in self._workers:
            for key, size in worker.memos.items():
                memos[key] = memos.get(key, 0) + size
        return self.metrics.snapshot(
            queue={
                "depth": self.queue.depth,
                "capacity": self.queue.capacity,
                "in_flight": self.store.in_flight(),
                "workers": self.config.workers,
            },
            workers={
                "pids": [worker.pid for worker in self._workers],
                "replaced": {
                    cause: sum(w.replaced[cause] for w in self._workers)
                    for cause in REPLACEMENT_CAUSES
                },
            },
            result_cache=self.results.stats_snapshot(),
            warm={"window_memos": memos},
            draining=self.draining.is_set(),
        )

    def log(self, **fields: Any) -> None:
        """One structured JSON log line (stderr unless redirected)."""
        if self.config.quiet:
            return
        stream = self.config.log_stream or sys.stderr
        line = json.dumps({"ts": round(time.time(), 3), **fields})
        with self._log_lock:
            try:
                print(line, file=stream, flush=True)
            except ValueError:
                pass  # stream closed during interpreter shutdown


def _make_handler(service: ExtractionService) -> type:
    """Bind a BaseHTTPRequestHandler subclass to one service."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1.0"

        # -- plumbing ----------------------------------------------------

        def log_message(self, format: str, *args: Any) -> None:
            pass  # replaced by the structured request log below

        def _respond(
            self,
            status: int,
            payload: dict,
            headers: "dict[str, str] | None" = None,
        ) -> None:
            body = (json.dumps(payload, indent=1) + "\n").encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass
            service.log(
                event="request",
                method=self.command,
                path=self.path,
                status=status,
            )

        def _read_body(self) -> "dict | None":
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                self._respond(413, {"error": "request body too large"})
                return None
            raw = self.rfile.read(length) if length else b""
            if not raw:
                self._respond(400, {"error": "empty request body"})
                return None
            try:
                body = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                self._respond(400, {"error": "request body is not JSON"})
                return None
            if not isinstance(body, dict):
                self._respond(400, {"error": "request body must be an object"})
                return None
            return body

        # -- routes ------------------------------------------------------

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            if self.path != "/jobs":
                self._respond(404, {"error": f"no such route {self.path}"})
                return
            body = self._read_body()
            if body is None:
                return
            status, payload, headers = service.submit(body)
            self._respond(status, payload, headers)

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            if self.path == "/metrics":
                self._respond(200, service.metrics_payload())
                return
            if self.path == "/healthz":
                self._respond(
                    200,
                    {
                        "ok": True,
                        "draining": service.draining.is_set(),
                        "uptime_seconds": round(
                            time.monotonic()
                            - service.metrics.started_monotonic,
                            3,
                        ),
                    },
                )
                return
            parts = self.path.strip("/").split("/")
            if len(parts) >= 2 and parts[0] == "jobs":
                job = service.store.get(parts[1])
                if job is None:
                    self._respond(404, {"error": f"unknown job {parts[1]!r}"})
                    return
                if len(parts) == 2:
                    self._respond(200, job.status_payload())
                    return
                if len(parts) == 3 and parts[2] == "result":
                    if job.state is JobState.DONE:
                        assert job.result is not None
                        self._respond(
                            200,
                            {**job.status_payload(), "result": job.result},
                        )
                    elif job.state in (JobState.QUEUED, JobState.RUNNING):
                        self._respond(202, job.status_payload())
                    else:
                        self._respond(409, job.status_payload())
                    return
            self._respond(404, {"error": f"no such route {self.path}"})

        def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
            parts = self.path.strip("/").split("/")
            if len(parts) == 2 and parts[0] == "jobs":
                job = service.cancel(parts[1])
                if job is None:
                    self._respond(404, {"error": f"unknown job {parts[1]!r}"})
                else:
                    self._respond(200, job.status_payload())
                return
            self._respond(404, {"error": f"no such route {self.path}"})

    return Handler
