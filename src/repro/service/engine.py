"""The job body, and the worker processes that run it.

A daemon job is one :func:`run_job` call: one :func:`repro.pipeline.run`
plus the result payload.  It is a plain function of the CIF text and
the options, so tests call it in-process.  The daemon runs it in a
:class:`Worker`, a process forked when the daemon starts, one job at a
time.  Each worker keeps its own warm state between jobs: one
:class:`~repro.hext.incremental.IncrementalExtractor` per technology,
so a hierarchical job recognizes the windows that any earlier job on
the same worker extracted.

Cancellation and timeouts are immediate: the daemon kills the worker
running the job and forks a fresh one for the next.  A worker that
dies without the daemon killing it (SIGKILL, OOM, a segfault) is
replaced the same way; the daemon then runs its job once more, which
under the determinism contract yields the same bytes.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..core.stripengine import load_strip_engine
from ..diagnostics.writers import diagnostic_to_json
from ..hext.incremental import IncrementalExtractor
from ..pipeline import JobOptions, Trace, run
from ..tech import DEFAULT_LAMBDA, technology_by_name
from .jobs import Job

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from ..cif import Layout
    from ..hext import HextResult


class JobCancelled(Exception):
    """The job was cancelled (or the daemon stopped) before it finished."""


class JobTimeout(Exception):
    """The job's deadline passed before it finished."""


class JobError(Exception):
    """The job body raised; the message is the error, recorded verbatim."""


class WorkerDied(JobError):
    """The worker process died running a job the daemon did not kill."""


#: Why a worker gets replaced, as counted in ``/metrics``.
REPLACEMENT_CAUSES = ("cancelled", "timeout", "died")


@dataclass
class Outcome:
    """What one job body returns to the daemon."""

    result: dict  #: the payload served to clients and cached
    trace: Trace
    stats: Any  #: ScanStats, or HextStats for a hierarchical job


def run_job(
    cif: str,
    options: JobOptions,
    digest: str,
    memos: "dict[str, IncrementalExtractor]",
    *,
    engine: str = "auto",
    report: "Callable[..., None] | None" = None,
) -> Outcome:
    """The job body: extract ``cif`` under ``options``.

    ``memos`` is the caller's warm state, one incremental extractor per
    ``deck:lambda``, which a hierarchical job extends.  ``report(kind,
    *values)`` receives progress: ``("stage", name)`` as each pipeline
    stage begins and ``("band", band, bands)`` after each streamed band.
    """
    send = report or (lambda *message: None)
    tech = technology_by_name(
        options.deck,
        DEFAULT_LAMBDA if options.lambda_ is None else options.lambda_,
    )

    def hext(layout: "Layout") -> "HextResult":
        # Decks with equal lambda must never share a memo.
        key = f"{options.deck}:{tech.lambda_}"
        extractor = memos.get(key)
        if extractor is None:
            extractor = memos[key] = IncrementalExtractor(tech)
        return extractor.extract(layout)

    result = run(
        cif,
        tech,
        options,
        engine=engine,
        on_stage=lambda stage: send("stage", stage),
        hext=hext,
        progress=lambda band, bands, stats: send("band", band, bands),
    )
    lint = result.lint
    payload = {
        "name": options.name,
        "digest": digest,
        "wirelist": result.text,
        "diagnostics": (
            [diagnostic_to_json(d) for d in lint.diagnostics]
            if lint is not None
            else []
        ),
        "lint_errors": len(lint.errors) if lint is not None else 0,
        "warnings": result.warnings,
        "devices": result.devices,
        "nets": result.nets,
    }
    return Outcome(payload, result.trace, result.stats)


def preload(engine: str) -> None:
    """Import what the job body imports lazily; call before any fork.

    A replacement worker is forked from a daemon that already runs
    threads, and one of them may hold an import lock at that instant,
    so a worker must never need one.  Clients that import this package
    only to talk to a daemon never call this, and never pay for it.
    That is ``engine``'s strip engine and, under every setting, the
    python one: hierarchical and keep-geometry jobs run on it.
    """
    from .. import drc, streaming  # noqa: F401

    load_strip_engine(engine)
    load_strip_engine("python")


def _serve(conn: "Connection", body: Callable, engine: str) -> None:
    """A worker process: run one job per request until the daemon goes."""
    # The daemon's SIGTERM handler came with the fork; a worker dies on
    # SIGTERM, and leaves Ctrl-C to the daemon.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Close every inherited descriptor but this pipe and stdio: holding
    # the listening socket or a sibling's pipe would keep both alive
    # after the daemon dies.  Frozen objects are never collected here,
    # so no inherited socket object can close a number reused later.
    gc.freeze()
    keep = conn.fileno()
    os.closerange(3, keep)
    os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
    memos: "dict[str, IncrementalExtractor]" = {}
    while True:
        try:
            cif, options, digest = conn.recv()
        except (EOFError, OSError):
            return  # the daemon closed the pipe, or died
        try:
            outcome = body(
                cif,
                options,
                digest,
                memos,
                engine=engine,
                report=lambda *message: conn.send(message),
            )
            sizes = {key: len(memo) for key, memo in memos.items()}
            message: tuple = ("done", outcome, sizes)
        except Exception as exc:  # noqa: BLE001 - recorded verbatim
            message = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(message)
        except OSError:
            return


def _raise_if_aborted(job: Job) -> None:
    if job.cancel_event.is_set():
        raise JobCancelled(f"job {job.ident} cancelled")
    if job.deadline is not None and time.monotonic() > job.deadline:
        raise JobTimeout(f"job {job.ident} exceeded its deadline")


class Worker:
    """One worker process and the daemon's end of its pipe.

    One daemon thread owns the worker and calls :meth:`run`; any thread
    may call :meth:`kill` to cancel the job it is running.
    """

    def __init__(self, body: Callable, *, engine: str = "auto") -> None:
        self._args = (body, engine)
        self._lock = threading.Lock()
        self._job: "Job | None" = None
        #: why the process is gone, once the daemon knows it is
        self._lost: "str | None" = None
        self.replaced: Counter = Counter()  #: replacements by cause
        self.memos: "dict[str, int]" = {}  #: memo sizes, last reported
        self._fork()

    def _fork(self) -> None:
        # Forked, never spawned: a fork shares the daemon's imported
        # modules and starts in milliseconds.  (Imported here, so that
        # clients of this package do not load multiprocessing.)
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(child, *self._args), daemon=True
        )
        self.process.start()
        child.close()
        self._lost = None
        self.memos = {}

    def _replace(self, cause: str) -> "int | None":
        """Reap the lost process and fork another; returns its exit code."""
        self.process.kill()
        self.process.join()
        exitcode = self.process.exitcode
        self.process.close()
        self._conn.close()
        self.replaced[cause] += 1
        self._fork()
        return exitcode

    @property
    def pid(self) -> "int | None":
        return None if self._lost == "stopped" else self.process.pid

    def kill(self, job: Job, cause: str) -> bool:
        """Kill the process if it is running ``job``; True if it was."""
        with self._lock:
            if self._job is not job or self._lost is not None:
                return False
            self._lost = cause
            self.process.kill()
            return True

    def stop(self) -> None:
        """Kill the process for good: the daemon is shutting down."""
        with self._lock:
            self._lost = "stopped"
            self.process.kill()
        self.process.join()

    def run(self, job: Job, progress: "Callable[..., None]") -> Outcome:
        """Run ``job`` in the process.

        ``progress(kind, *values)`` receives the body's reports.  Raises
        :class:`JobCancelled` or :class:`JobTimeout` when the job was
        killed for that reason, :class:`JobError` when the body raised,
        and :class:`WorkerDied` when the process died on its own.  A
        lost process is replaced before this returns or raises.
        """
        with self._lock:
            if self._lost == "stopped":
                raise JobCancelled(f"job {job.ident}: the daemon stopped")
            if self._lost is not None or not self.process.is_alive():
                self._replace(self._lost or "died")  # lost while idle
            self._job = job
        try:
            _raise_if_aborted(job)
            self._conn.send((job.cif, job.options, job.digest))
            while True:
                remaining = (
                    None
                    if job.deadline is None
                    else max(0.0, job.deadline - time.monotonic())
                )
                if not self._conn.poll(remaining):
                    self.kill(job, "timeout")
                    continue  # the kill makes the pipe read EOF
                kind, *values = self._conn.recv()
                if kind == "done":
                    outcome, self.memos = values
                    return outcome
                if kind == "error":
                    raise JobError(values[0])
                progress(kind, *values)
        except (EOFError, OSError):
            with self._lock:
                cause = self._lost or "died"
                if cause == "stopped":
                    raise JobCancelled(
                        f"job {job.ident}: the daemon stopped"
                    ) from None
                pid = self.process.pid
                exitcode = self._replace(cause)
            if cause == "cancelled":
                raise JobCancelled(f"job {job.ident} cancelled") from None
            if cause == "timeout":
                raise JobTimeout(
                    f"job {job.ident} exceeded its deadline"
                ) from None
            raise WorkerDied(
                f"worker {pid} died (exit code {exitcode}) "
                f"running job {job.ident}"
            ) from None
        finally:
            with self._lock:
                self._job = None
