"""The asyncio front door: one port, N shards, the same JSON job API.

The router multiplexes any number of client connections on a single
event loop (keep-alive HTTP/1.1, hand-rolled on ``asyncio`` streams —
no frameworks, no threads per connection) and speaks the extraction
daemon's API *unchanged*: a client cannot tell a router from a daemon.
What it adds, per request:

**Sharding.**  Every submission is routed by consistent hash of its
payload digest (:mod:`repro.fleet.hashring`), so repeat submissions of
the same layout always land on the same shard and hit that shard's
result cache and warm window memo.  A shard that is unhealthy, breaker-
open, or full is skipped in ring-preference order — bounded failover,
deterministic for every observer.

**Coalescing.**  Concurrent submissions with identical ``(payload
digest, option facet)`` collapse onto one upstream job: the first
claims the coalescing slot, the rest get the *same* fleet job ident
back and fan in on its one result.  The facet is the daemon's own
result-cache facet, so coalescing can never merge two requests the
cache itself would distinguish.

**Failover.**  The router remembers each in-flight job's original
submission body.  When a shard dies mid-job (poll fails, or the health
checker notices first), the body is resubmitted to the next ring
sibling and the client keeps polling the same fleet ident.  Results
are byte-identical by the engine's determinism guarantees; with a
shared artifact store the resubmission is usually a disk cache hit.

**Aggregation.**  ``GET /metrics`` returns the router's own counters
(coalesce hits, failovers, per-shard upstream latency rings) plus each
shard's full metrics document and a fleet-wide jobs/cache rollup;
``GET /healthz`` is the shard membership health view.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any

from ..service.cache import payload_digest, result_cache_key
from ..service.jobs import JobOptions, OptionsError
from ..service.server import MAX_BODY_BYTES
from .hashring import HashRing
from .state import (
    TERMINAL_STATES,
    FleetJob,
    FleetJobTable,
    RouterMetrics,
    ShardState,
)

#: Default router TCP port (the daemon default is 8731; keep them apart
#: so a fleet and a solo daemon coexist on one box).
DEFAULT_FLEET_PORT = 8700

#: Idle seconds before a silent keep-alive connection is dropped.
KEEPALIVE_IDLE = 120.0


@dataclass
class RouterConfig:
    """Everything tunable about one router instance."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_FLEET_PORT
    upstream_timeout: float = 30.0  #: per upstream request, seconds
    health_interval: float = 1.0  #: seconds between shard health probes
    health_timeout: float = 3.0  #: per health probe
    retain_jobs: int = 512
    drain_grace: float = 30.0
    #: upstream submissions per job before it fails terminally; None
    #: derives 3 attempts per shard from the membership size.
    max_attempts: "int | None" = None
    log_stream: "IO[str] | None" = field(default=None, repr=False)
    quiet: bool = False


class UpstreamError(RuntimeError):
    """One upstream request could not produce an HTTP response."""

    def __init__(self, shard: ShardState, cause: BaseException) -> None:
        super().__init__(
            f"shard {shard.name} ({shard.address}): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard = shard


class FleetRouter:
    """The async front-end for a set of extraction daemons."""

    def __init__(
        self,
        shards: "list[tuple[str, str, int]]",
        config: "RouterConfig | None" = None,
    ) -> None:
        self.config = config or RouterConfig()
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        self.shards: "dict[str, ShardState]" = {
            name: ShardState(name=name, host=host, port=port)
            for name, host, port in shards
        }
        self.ring = HashRing(list(self.shards))
        self.table = FleetJobTable(retain=self.config.retain_jobs)
        self.metrics = RouterMetrics()
        self.draining = False
        self.max_attempts = (
            self.config.max_attempts
            if self.config.max_attempts is not None
            else 3 * len(self.shards)
        )
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._health_task: "asyncio.Task | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None
        self._port: int = 0
        self._log_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self._port}"

    def start(self) -> None:
        """Run the event loop (server + health checker) in a thread."""
        self._thread = threading.Thread(
            target=self._run_loop, name="fleet-router", daemon=True
        )
        self._thread.start()
        self._started.wait(15.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"router failed to start: {self._startup_error}"
            )
        if not self._started.is_set():
            raise RuntimeError("router did not start within 15s")
        self.log(
            event="ready",
            address=self.address,
            shards={s.name: s.address for s in self.shards.values()},
        )

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._serve_connection,
                    self.config.host,
                    self.config.port,
                )
            )
            self._server = server
            self._port = server.sockets[0].getsockname()[1]
            self._health_task = loop.create_task(self._health_loop())
            self._started.set()
            loop.run_forever()
        except BaseException as exc:  # noqa: BLE001 - surfaced to start()
            self._startup_error = exc
            self._started.set()
        finally:
            if self._health_task is not None:
                self._health_task.cancel()
            if self._server is not None:
                self._server.close()
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def drain(self, grace: "float | None" = None) -> bool:
        """Stop admitting, wait out in-flight fleet jobs, stop serving.

        Returns True when every fleet job reached a terminal state
        (observed from its shard) within the grace period.  The shards
        themselves keep running — draining them is the supervisor's
        job, *after* the router has gone quiet.
        """
        if self._closed:
            return True
        grace = self.config.drain_grace if grace is None else grace
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self._drain_async(grace), self._loop
        )
        clean = future.result(timeout=grace + 15.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(timeout=10.0)
        self._closed = True
        self.log(event="drained", clean=clean)
        return clean

    def close(self) -> None:
        if not self._closed and self._loop is not None:
            self.drain(grace=5.0)

    def update_shard(self, name: str, host: str, port: int) -> None:
        """Point a shard at a new address (rolling restart handoff)."""
        shard = self.shards[name]
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(
                shard.update_address, host, port
            )
        else:
            shard.update_address(host, port)
        self.log(event="shard_updated", shard=name, address=f"{host}:{port}")

    async def _drain_async(self, grace: float) -> bool:
        self.draining = True
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            pending = self.table.pending()
            if not pending:
                break
            for job in pending:
                await self._refresh(job)
            await asyncio.sleep(0.05)
        return not self.table.pending()

    # -- logging ---------------------------------------------------------

    def log(self, **fields: Any) -> None:
        if self.config.quiet:
            return
        stream = self.config.log_stream or sys.stderr
        line = json.dumps({"ts": round(time.time(), 3), **fields})
        with self._log_lock:
            try:
                print(line, file=stream, flush=True)
            except ValueError:
                pass  # stream closed during interpreter shutdown

    # -- the HTTP front end ----------------------------------------------

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, target, headers, body = request
                status, payload, extra = await self._dispatch(
                    method, target, body
                )
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(
                    writer, status, payload, extra, keep_alive
                )
                self.log(
                    event="request",
                    method=method,
                    path=target,
                    status=status,
                )
                if not keep_alive:
                    break
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled the connection task.  Finish
            # normally after closing the socket: a task that ends
            # cancelled makes asyncio's stream callback log a spurious
            # traceback when it asks for the task's exception.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> "tuple[str, str, dict[str, str], bytes] | None":
        line = await asyncio.wait_for(
            reader.readline(), timeout=KEEPALIVE_IDLE
        )
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: "dict[str, str]" = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), timeout=10.0)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY_BYTES:
            await self._write_response(
                writer, 413, {"error": "request body too large"}, {}, False
            )
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: "dict[str, str]",
        keep_alive: bool,
    ) -> None:
        body = (json.dumps(payload, indent=1) + "\n").encode("utf-8")
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 409: "Conflict", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
            "Server: repro-fleet/1.0",
        ]
        for name, value in extra_headers.items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> "tuple[int, dict, dict[str, str]]":
        try:
            if method == "POST" and target == "/jobs":
                parsed = self._parse_body(body)
                if isinstance(parsed, tuple):
                    return parsed
                return await self._submit(parsed)
            parts = target.strip("/").split("/")
            if method == "GET":
                if target == "/metrics":
                    return 200, await self._metrics_payload(), {}
                if target == "/healthz":
                    return 200, self._health_payload(), {}
                if len(parts) == 2 and parts[0] == "jobs":
                    return await self._job_status(parts[1], False)
                if (
                    len(parts) == 3
                    and parts[0] == "jobs"
                    and parts[2] == "result"
                ):
                    return await self._job_status(parts[1], True)
            if method == "DELETE" and len(parts) == 2 and parts[0] == "jobs":
                return await self._cancel(parts[1])
            return 404, {"error": f"no such route {target}"}, {}
        except Exception as exc:  # noqa: BLE001 - the router must not die
            self.log(
                event="handler_error",
                error=f"{type(exc).__name__}: {exc}",
                path=target,
            )
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    @staticmethod
    def _parse_body(
        raw: bytes,
    ) -> "dict | tuple[int, dict, dict[str, str]]":
        if not raw:
            return 400, {"error": "empty request body"}, {}
        try:
            body = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "request body is not JSON"}, {}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be an object"}, {}
        return body

    # -- submission, coalescing, failover --------------------------------

    @staticmethod
    def _submission_key(body: dict) -> "tuple[str, str]":
        """(payload digest, coalescing key) for one submission body.

        Validation mirrors the daemon's so a malformed request is
        refused at the front door without an upstream hop.  ``path``
        submissions route by the digest of the path string — their
        contents are the shard's business, not the router's.
        """
        unknown = sorted(set(body) - {"cif", "path", "options"})
        if unknown:
            raise OptionsError(f"unknown field(s): {', '.join(unknown)}")
        cif = body.get("cif")
        path = body.get("path")
        if (cif is None) == (path is None):
            raise OptionsError("provide exactly one of 'cif' or 'path'")
        options = JobOptions.from_payload(body.get("options"))
        if cif is not None:
            if not isinstance(cif, str):
                raise OptionsError("'cif' must be a string")
            digest = payload_digest(cif)
        else:
            if not isinstance(path, str):
                raise OptionsError("'path' must be a string")
            digest = payload_digest(f"path:{path}")
        return digest, result_cache_key(digest, options)

    async def _submit(
        self, body: dict
    ) -> "tuple[int, dict, dict[str, str]]":
        if self.draining:
            self.metrics.count("rejected_draining")
            return 503, {"error": "fleet is draining"}, {}
        try:
            digest, key = self._submission_key(body)
        except OptionsError as exc:
            return 400, {"error": str(exc)}, {}

        self.metrics.count("submitted")
        existing = self.table.coalesce(key)
        if existing is not None:
            # Identical payload+facet already in flight: fan in on it.
            self.metrics.count("coalesced")
            return 202, {
                **existing.placeholder_status(),
                "coalesced": True,
            }, {}

        job = self.table.create(body, key, digest)
        return await self._submit_upstream(job)

    async def _submit_upstream(
        self, job: FleetJob
    ) -> "tuple[int, dict, dict[str, str]]":
        """First submission walk: owner shard, then ring siblings."""
        backpressure: "tuple[int, dict, dict[str, str]] | None" = None
        for name in self.ring.preference(job.digest):
            shard = self.shards[name]
            if not shard.available():
                continue
            try:
                status, payload = await self._upstream(
                    shard, "POST", "/jobs", job.body
                )
            except UpstreamError:
                self.metrics.count("upstream_errors")
                continue
            if status in (200, 202):
                await self._register_upstream(job, shard, payload)
                return status, {**payload, "job": job.ident}, {}
            if status == 429:
                # This shard is full; remember the backpressure answer
                # but let a sibling with headroom take the job first.
                retry = payload.get("retry_after_seconds")
                headers = (
                    {"Retry-After": str(max(1, round(float(retry))))}
                    if retry is not None
                    else {}
                )
                backpressure = (429, payload, headers)
                continue
            if status == 400:
                self.table.discard(job)
                return status, payload, {}
            # 5xx / 503: draining or broken — count it against the shard.
            shard.breaker.record_failure()
            self.metrics.count("upstream_errors")
        # No shard accepted.  Waiters may have coalesced onto this job
        # already; they hold its ident, so fail it terminally rather
        # than leaving them polling a ghost.
        if job.waiters > 1:
            job.final = {
                **job.placeholder_status(),
                "state": "failed",
                "error": "no shard admitted the job",
                "error_kind": "rejected",
            }
            self.table.mark_terminal(job, "failed")
        else:
            self.table.discard(job)
        if backpressure is not None:
            self.metrics.count("rejected_busy")
            return backpressure
        self.metrics.count("rejected_busy")
        return 503, {"error": "no healthy shard available"}, {}

    async def _register_upstream(
        self, job: FleetJob, shard: ShardState, payload: dict
    ) -> None:
        job.shard = shard
        job.upstream = payload.get("job")
        job.attempts += 1
        shard.routed += 1
        self.metrics.count("routed")
        state = payload.get("state", "queued")
        if state in TERMINAL_STATES:
            # Only _finalize may flip a job terminal: it sets job.final
            # (fetching the result first) before the state change, so a
            # concurrent poll never observes a terminal job without its
            # final payload.  Assigning a terminal state here would open
            # exactly that window across the result-fetch await.
            await self._finalize(job, payload)
        else:
            job.state = state

    async def _finalize(self, job: FleetJob, status_payload: dict) -> None:
        """Terminal transition: cache the result, retire the job.

        For a completed job the result payload is fetched eagerly (one
        upstream call) so every later ``/result`` poll — including the
        coalesced waiters' — is answered from the router without
        touching the shard again.
        """
        out = {**status_payload, "job": job.ident}
        result = out.pop("result", None)
        if result is not None:
            job.result = result
        state = out.get("state", "failed")
        if state == "done" and job.result is None and job.shard is not None:
            try:
                rstatus, rpayload = await self._upstream(
                    job.shard, "GET", f"/jobs/{job.upstream}/result"
                )
            except UpstreamError:
                rstatus, rpayload = 0, {}
            if rstatus == 200:
                job.result = rpayload.get("result")
        job.final = out
        self.table.mark_terminal(job, state)

    async def _rescue(self, job: FleetJob) -> None:
        """Failover: resubmit a job whose shard lost it (or died)."""
        if job.terminal or job.resubmitting:
            return
        if job.attempts >= self.max_attempts:
            job.final = {
                **job.placeholder_status(),
                "state": "failed",
                "error": (
                    f"gave up after {job.attempts} shard attempts"
                ),
                "error_kind": "failover-exhausted",
            }
            self.table.mark_terminal(job, "failed")
            return
        job.resubmitting = True
        try:
            for name in self.ring.preference(job.digest):
                shard = self.shards[name]
                if not shard.available():
                    continue
                try:
                    status, payload = await self._upstream(
                        shard, "POST", "/jobs", job.body
                    )
                except UpstreamError:
                    self.metrics.count("upstream_errors")
                    continue
                if status in (200, 202):
                    await self._register_upstream(job, shard, payload)
                    self.metrics.count("failover")
                    self.log(
                        event="failover",
                        job=job.ident,
                        shard=shard.name,
                        attempts=job.attempts,
                    )
                    return
            # Nobody took it this round; the next poll tries again.
        finally:
            job.resubmitting = False

    # -- status / result / cancel ----------------------------------------

    async def _job_status(
        self, ident: str, want_result: bool
    ) -> "tuple[int, dict, dict[str, str]]":
        job = self.table.get(ident)
        if job is None:
            return 404, {"error": f"unknown job {ident!r}"}, {}
        if job.terminal:
            return self._terminal_answer(job, want_result)
        refreshed = await self._refresh(job)
        if job.terminal:
            return self._terminal_answer(job, want_result)
        payload = (
            refreshed
            if refreshed is not None
            else job.placeholder_status()
        )
        return (202 if want_result else 200), payload, {}

    def _terminal_answer(
        self, job: FleetJob, want_result: bool
    ) -> "tuple[int, dict, dict[str, str]]":
        assert job.final is not None
        if not want_result:
            return 200, job.final, {}
        if job.state == "done":
            if job.result is not None:
                return 200, {**job.final, "result": job.result}, {}
            # The shard died between completion and the result fetch;
            # resubmitting is the recovery (cheap when the fleet shares
            # an artifact store), but that needs the event loop — tell
            # the client to keep polling and rescue on the next pass.
            return 202, job.final, {}
        return 409, job.final, {}

    async def _refresh(self, job: FleetJob) -> "dict | None":
        """One upstream status poll; drives failover when it fails.

        Returns the rewritten status payload when the shard answered,
        None when the job is between shards (resubmission pending).
        """
        if job.upstream is None or job.shard is None or job.resubmitting:
            return None
        shard = job.shard
        try:
            status, payload = await self._upstream(
                shard, "GET", f"/jobs/{job.upstream}"
            )
        except UpstreamError:
            self.metrics.count("upstream_errors")
            await self._shard_down(shard)
            if job.shard is shard:
                await self._rescue(job)
            return None
        if status == 404:
            # The shard restarted and forgot the job: same as death.
            await self._shard_down(shard)
            if job.shard is shard:
                await self._rescue(job)
            return None
        if status != 200:
            return None
        state = payload.get("state")
        if state in TERMINAL_STATES:
            await self._finalize(job, payload)
            return job.final
        if isinstance(state, str):
            job.state = state
        return {**payload, "job": job.ident}

    async def _cancel(
        self, ident: str
    ) -> "tuple[int, dict, dict[str, str]]":
        job = self.table.get(ident)
        if job is None:
            return 404, {"error": f"unknown job {ident!r}"}, {}
        if job.terminal:
            assert job.final is not None
            return 200, job.final, {}
        if job.upstream is None or job.shard is None:
            job.final = {
                **job.placeholder_status(),
                "state": "cancelled",
                "error": "cancelled before a shard accepted the job",
                "error_kind": "cancelled",
            }
            self.table.mark_terminal(job, "cancelled")
            return 200, job.final, {}
        try:
            status, payload = await self._upstream(
                job.shard, "DELETE", f"/jobs/{job.upstream}"
            )
        except UpstreamError:
            self.metrics.count("upstream_errors")
            return 200, job.placeholder_status(), {}
        if status != 200:
            return status, payload, {}
        state = payload.get("state")
        if state in TERMINAL_STATES:
            await self._finalize(job, payload)
            assert job.final is not None
            return 200, job.final, {}
        return 200, {**payload, "job": job.ident}, {}

    # -- upstream transport ----------------------------------------------

    async def _upstream(
        self,
        shard: ShardState,
        method: str,
        path: str,
        body: "dict | None" = None,
        timeout: "float | None" = None,
    ) -> "tuple[int, dict]":
        """One request to a shard daemon; (status, JSON payload).

        Any transport-level failure raises :class:`UpstreamError` and
        counts against the shard's breaker; an HTTP answer — any status
        — counts as the shard being alive.
        """
        timeout = self.config.upstream_timeout if timeout is None else timeout
        started = time.perf_counter()
        writer = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port),
                timeout=timeout,
            )
            encoded = (
                json.dumps(body).encode("utf-8") if body is not None else b""
            )
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {shard.host}:{shard.port}",
                "Connection: close",
                "Accept: application/json",
            ]
            if encoded:
                head.append("Content-Type: application/json")
            head.append(f"Content-Length: {len(encoded)}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + encoded
            )
            await writer.drain()

            status_line = await asyncio.wait_for(
                reader.readline(), timeout=timeout
            )
            status = int(status_line.split()[1])
            length: "int | None" = None
            while True:
                raw = await asyncio.wait_for(
                    reader.readline(), timeout=timeout
                )
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            if length is not None:
                raw_body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=timeout
                )
            else:
                raw_body = await asyncio.wait_for(
                    reader.read(), timeout=timeout
                )
        except (
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ValueError,
            IndexError,
        ) as exc:
            shard.breaker.record_failure()
            raise UpstreamError(shard, exc) from exc
        finally:
            if writer is not None:
                writer.close()
            self.metrics.observe_upstream(
                shard.name, time.perf_counter() - started
            )
        shard.breaker.record_success()
        shard.healthy = True
        try:
            payload = json.loads(raw_body) if raw_body else {}
        except ValueError:
            payload = {"error": raw_body.decode("utf-8", "replace")[:200]}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        return status, payload

    # -- health + metrics -------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            await self._check_health()

    async def _check_health(self) -> None:
        """Probe every shard's ``/healthz`` once."""
        for shard in list(self.shards.values()):
            was_healthy = shard.healthy
            try:
                status, _ = await self._upstream(
                    shard,
                    "GET",
                    "/healthz",
                    timeout=self.config.health_timeout,
                )
            except UpstreamError:
                status = 0
            if status != 200:
                # Any HTTP answer marks the shard healthy in _upstream; an
                # error answer is no recovery, so judge the transition
                # from the state before the probe.
                shard.healthy = was_healthy
                await self._shard_down(shard)

    async def _shard_down(self, shard: ShardState) -> None:
        """The healthy-to-down transition, wherever it is noticed.

        Counted and logged once per transition, however many health
        probes and failed polls agree afterwards.  Jobs still pending on
        the shard are rescued right away rather than when a client next
        polls them.
        """
        if not shard.healthy:
            return
        shard.healthy = False
        self.metrics.count("shard_down")
        self.log(event="shard_down", shard=shard.name)
        for job in self.table.pending_on(shard):
            if job.shard is shard:  # a concurrent poll may have moved it
                await self._rescue(job)

    def _health_payload(self) -> dict:
        return {
            "ok": any(s.healthy for s in self.shards.values()),
            "role": "fleet-router",
            "draining": self.draining,
            "pending_jobs": len(self.table.pending()),
            "shards": [s.snapshot() for s in self.shards.values()],
        }

    async def _metrics_payload(self) -> dict:
        async def fetch(shard: ShardState) -> "tuple[str, dict]":
            try:
                status, payload = await self._upstream(
                    shard, "GET", "/metrics", timeout=5.0
                )
            except UpstreamError as exc:
                return shard.name, {"error": str(exc)}
            if status != 200:
                return shard.name, {"error": f"status {status}"}
            return shard.name, payload

        gathered = await asyncio.gather(
            *(fetch(shard) for shard in self.shards.values())
        )
        shard_metrics = dict(gathered)
        aggregate: "dict[str, dict[str, int]]" = {"jobs": {}, "cache": {}}
        for payload in shard_metrics.values():
            for section in ("jobs", "cache"):
                for key, value in payload.get(section, {}).items():
                    if isinstance(value, (int, float)) and key != "hit_rate":
                        bucket = aggregate[section]
                        bucket[key] = bucket.get(key, 0) + value
        return {
            "fleet": {
                **self.metrics.snapshot(),
                "draining": self.draining,
                "pending_jobs": len(self.table.pending()),
                "shards": [s.snapshot() for s in self.shards.values()],
            },
            "aggregate": aggregate,
            "shards": shard_metrics,
        }
