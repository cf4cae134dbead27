#!/usr/bin/env python3
"""End-to-end smoke test of the extraction daemon as a real process.

What CI's ``service-smoke`` job runs (and anyone can run locally)::

    PYTHONPATH=src python tools/service_smoke.py

The script starts ``repro-serve --workers 2`` as a subprocess on an
ephemeral port and drills it in order:

1. ``examples/layouts/nand2.cif`` twice: the second response must be a
   result-cache hit with byte-identical wirelist, and ``/metrics`` must
   agree (hit counter, zero failures);
2. a 6-way identical burst must yield one job id, the other five
   submissions merged into it;
3. a first pass extracts six suite chips; a second pass submits them
   again under ``lint`` (another result-cache key, so every job runs
   again), one worker is SIGKILLed with that backlog in flight, and
   every job must still complete with the wirelist bytes of the first
   pass;
4. SIGTERM must drain the daemon to exit 0, leaving no worker alive.

This covers what the in-process suite cannot: the signal-driven
shutdown path and worker processes dying from real signals.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LAYOUT = REPO / "examples" / "layouts" / "nand2.cif"
WAIT = 120.0


def fail(message: str) -> int:
    print(f"SMOKE FAILURE: {message}", file=sys.stderr)
    return 1


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: ask the kernel
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def burst(client_factory, cif: str, submitters: int) -> "list[dict]":
    """``submitters`` threads submit ``cif`` at one instant."""
    barrier = threading.Barrier(submitters)
    receipts: "list[dict]" = []
    lock = threading.Lock()

    def one() -> None:
        client = client_factory()
        barrier.wait()
        receipt = client.submit(cif, name="burst.cif")
        with lock:
            receipts.append(receipt)

    threads = [threading.Thread(target=one) for _ in range(submitters)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return receipts


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.cif import write as write_cif
    from repro.service import ServiceClient
    from repro.workloads.chips import build_chip

    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}:{env.get('PYTHONPATH', '')}"
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--port", "0", "--workers", "2", "--drain-grace", "30",
        ],
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env=env,
    )
    try:
        # The first structured log line announces the bound address.
        assert daemon.stderr is not None
        ready = json.loads(daemon.stderr.readline())
        if ready.get("event") != "ready":
            return fail(f"expected a ready line, got {ready!r}")
        # Keep reading the log so the daemon never blocks on a full pipe.
        threading.Thread(target=daemon.stderr.read, daemon=True).start()
        match = re.search(r":(\d+)$", ready["address"])
        if match is None:
            return fail(f"unparseable address {ready['address']!r}")
        port = int(match.group(1))

        def new_client() -> ServiceClient:
            return ServiceClient(port=port, timeout=WAIT)

        client = new_client()

        # 1. Submit twice: the second is a result-cache hit.
        cif = LAYOUT.read_text()
        first = client.extract(cif, name="nand2.cif", wait_timeout=WAIT)
        receipt = client.submit(cif, name="nand2.cif")
        if not receipt.get("cached"):
            return fail(f"second submission was not a cache hit: {receipt}")
        second = client.result(receipt["job"])
        if second["wirelist"] != first["wirelist"]:
            return fail("cache hit returned different wirelist bytes")
        metrics = client.metrics()
        if metrics["cache"]["hits"] < 1:
            return fail(f"metrics counted no cache hit: {metrics['cache']}")
        jobs = metrics["jobs"]
        if jobs["failed"] or jobs["timed_out"]:
            return fail(f"daemon recorded failures: {jobs}")
        if jobs["completed"] < 2:
            return fail(f"expected >= 2 completed jobs: {jobs}")
        print(
            f"submitted={jobs['submitted']} completed={jobs['completed']} "
            f"cache_hits={metrics['cache']['hits']} "
            f"p95={metrics['latency']['p95_seconds'] * 1000:.1f}ms"
        )

        # 2. A 6-way identical burst merges into one job.
        receipts = burst(new_client, write_cif(build_chip("riscb", 1 / 8)), 6)
        idents = {receipt["job"] for receipt in receipts}
        if len(idents) != 1:
            return fail(f"6-way burst made {len(idents)} jobs: {idents}")
        coalesced = client.metrics()["jobs"]["coalesced"]
        if coalesced != 5:
            return fail(f"expected 5 merged submissions, counted {coalesced}")
        client.wait(idents.pop(), timeout=WAIT)
        print("burst: 6 submitters, 1 job, 5 merged")

        # 3. Kill a worker with a backlog in flight.
        chips = ("cherry", "dchip", "schip2", "testram", "psc", "scheme81")
        payloads = {
            f"{chip}.cif": write_cif(build_chip(chip, 1 / 12)) for chip in chips
        }
        reference = {
            name: client.extract(text, name=name, wait_timeout=WAIT)["wirelist"]
            for name, text in payloads.items()
        }
        backlog = {
            name: client.submit(text, name=name, lint=True)["job"]
            for name, text in payloads.items()
        }
        deadline = time.monotonic() + WAIT
        while not any(
            client.status(job)["state"] == "running" for job in backlog.values()
        ):
            if time.monotonic() > deadline:
                return fail("no backlog job ever started")
            time.sleep(0.01)
        victim = client.metrics()["workers"]["pids"][0]
        os.kill(victim, signal.SIGKILL)
        mismatched = []
        for name, job in backlog.items():
            status = client.wait(job, timeout=WAIT)
            if status["state"] != "done":
                return fail(f"{name} ended {status['state']}: {status}")
            if client.result(job)["wirelist"] != reference[name]:
                mismatched.append(name)
        if mismatched:
            return fail(f"post-kill wirelists diverged: {mismatched}")
        metrics = client.metrics()
        replaced = metrics["workers"]["replaced"]
        if replaced["died"] != 1 or victim in metrics["workers"]["pids"]:
            return fail(f"worker {victim} was not replaced: {metrics['workers']}")
        print(
            f"kill drill: worker {victim} SIGKILLed, "
            f"{len(backlog)}/{len(backlog)} byte-identical"
        )

        # 4. SIGTERM drains to exit 0, and no worker outlives the daemon.
        pids = metrics["workers"]["pids"]
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=60)
        if code != 0:
            return fail(f"daemon exited {code} after SIGTERM, wanted 0")
        deadline = time.monotonic() + 30.0
        while any(alive(pid) for pid in pids):
            if time.monotonic() > deadline:
                return fail(f"workers outlived the daemon: {pids}")
            time.sleep(0.01)
        print("graceful shutdown: exit 0, no worker left")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
