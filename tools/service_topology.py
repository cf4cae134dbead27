#!/usr/bin/env python3
"""Time one serving topology on a fixed job set; the rows of BENCH_service.json.

Each run starts a fresh server from ``--command`` (any process that
speaks the daemon's JSON API and announces ``{"event": "ready",
"address": ...}`` on stderr), sends it 21 distinct jobs -- the 7 suite
chips at scale 1/16, under three names each -- from 2 closed-loop
clients, checks every reply byte for byte against in-process
``repro.pipeline.run``, and stops the server with SIGTERM.  A run's
wall is first submission to last result.  The flat and the hext sets
each get a fresh server per run, so no run sees another's result cache
or window memo.

    PYTHONPATH=src python tools/service_topology.py --label "2 processes" \\
        --command "python -m repro.service --port 0 --workers 2" \\
        --runs 6 --out BENCH_service.json

``--pythonpath`` points the server at another checkout's ``src`` (to
time a parent commit's topology against this checkout's references).
``--drills`` also runs, once per set, a 6-way identical burst (how many
job ids come back) and, on a server that lists its worker pids in
``/metrics``, a SIGKILL of one worker with the whole set in flight.
Runs accumulate in ``--out`` under their label (so alternating labels
in a shell loop interleaves topologies), with each run's wall and the
server's peak RSS (VmHWM) beside the peak of each of its child
processes, and the median and interquartile range of all the label's
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cif import write as write_cif  # noqa: E402
from repro.pipeline import JobOptions, run  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.tech import NMOS  # noqa: E402
from repro.workloads import CHIP_SPECS  # noqa: E402
from repro.workloads.chips import build_chip  # noqa: E402

SCALE = 1 / 16
NAMES = 3
CLIENTS = 2
WAIT = 300.0


def job_set(hext: bool) -> "list[tuple[str, str, str]]":
    """(name, cif, expected wirelist) for every job, in submission order."""
    cifs = {spec.name: write_cif(build_chip(spec.name, SCALE)) for spec in CHIP_SPECS}
    jobs = []
    for copy in range(NAMES):
        for chip, cif in cifs.items():
            name = f"{chip}-{copy}.cif"
            expected = run(cif, NMOS(), JobOptions(name=name, hext=hext)).text
            jobs.append((name, cif, expected))
    return jobs


def vm_hwm_mb(pid: int) -> "float | None":
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def children(pid: int) -> "list[int]":
    """Every descendant of ``pid`` (Linux /proc)."""
    found = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as handle:
            direct = [int(p) for p in handle.read().split()]
    except OSError:
        return found
    for child in direct:
        found.append(child)
        found.extend(children(child))
    return found


class Server:
    def __init__(self, command: "list[str]", pythonpath: str) -> None:
        env = dict(os.environ, PYTHONPATH=pythonpath)
        self.proc = subprocess.Popen(
            command, env=env, stderr=subprocess.PIPE, text=True,
            stdout=subprocess.DEVNULL,
        )
        ready = threading.Event()
        threading.Thread(target=self._log, args=(ready,), daemon=True).start()
        if not ready.wait(60.0):
            self.stop()
            raise RuntimeError("the server announced no ready line in 60 s")

    def _log(self, ready: threading.Event) -> None:
        """Find the ready line, then keep draining the log."""
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            if ready.is_set():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue
            if event.get("event") == "ready" and "address" in event:
                self.port = int(event["address"].rsplit(":", 1)[1])
                ready.set()

    def peaks(self) -> dict:
        return {
            "server_mb": vm_hwm_mb(self.proc.pid),
            "children_mb": sorted(
                filter(None, (vm_hwm_mb(pid) for pid in children(self.proc.pid)))
            ),
        }

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def closed_loop(port: int, jobs, hext: bool, during=None) -> dict:
    """Send ``jobs`` from ``CLIENTS`` closed-loop clients; time and check."""
    pending = iter(jobs)
    lock = threading.Lock()
    errors: "list[str]" = []

    def client_loop() -> None:
        client = ServiceClient(port=port, timeout=WAIT, retries=4)
        while True:
            with lock:
                job = next(pending, None)
            if job is None:
                return
            name, cif, expected = job
            try:
                result = client.extract(cif, name=name, hext=hext, wait_timeout=WAIT)
                if result["wirelist"] != expected:
                    raise AssertionError("differs from pipeline.run")
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                with lock:
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if during is not None:
        during()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return {"wall_s": round(wall, 4), "jobs": len(jobs), "errors": errors}


def burst(port: int, name: str, cif: str, hext: bool, submitters: int = 6) -> dict:
    barrier = threading.Barrier(submitters)
    idents: "list[str]" = []
    lock = threading.Lock()

    def one() -> None:
        client = ServiceClient(port=port, timeout=WAIT, retries=4)
        barrier.wait()
        receipt = client.submit(cif, name=name, hext=hext)
        with lock:
            idents.append(receipt["job"])

    threads = [threading.Thread(target=one) for _ in range(submitters)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    client = ServiceClient(port=port, timeout=WAIT)
    for ident in set(idents):
        client.wait(ident, timeout=WAIT)
    return {"submitters": submitters, "job_ids": len(set(idents))}


def kill_drill(port: int, jobs, hext: bool) -> dict:
    """The whole set in flight; SIGKILL one worker once the first job runs."""
    client = ServiceClient(port=port, timeout=WAIT)
    pids = client.metrics().get("workers", {}).get("pids")
    if not pids:
        return {"skipped": "the server lists no worker pids"}
    done = client.metrics()["jobs"]["completed"]

    def kill_when_busy() -> None:
        while client.metrics()["queue"]["in_flight"] < 1:
            time.sleep(0.005)
        os.kill(pids[0], signal.SIGKILL)

    outcome = closed_loop(port, jobs, hext, during=kill_when_busy)
    metrics = client.metrics()
    outcome.update(
        killed_pid=pids[0],
        completed=metrics["jobs"]["completed"] - done,
        replaced=metrics["workers"]["replaced"],
    )
    return outcome


def summarize(walls: "list[float]") -> dict:
    ordered = sorted(walls)
    q1, _, q3 = (
        statistics.quantiles(ordered, n=4, method="inclusive")
        if len(ordered) > 1
        else ordered * 3
    )
    return {
        "median_s": round(statistics.median(ordered), 4),
        "q1_s": round(q1, 4),
        "q3_s": round(q3, 4),
        "iqr_s": round(q3 - q1, 4),
        "min_s": ordered[0],
        "max_s": ordered[-1],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="row name in --out")
    parser.add_argument("--command", required=True, help="server command line")
    parser.add_argument(
        "--pythonpath", default=str(REPO / "src"),
        help="PYTHONPATH for the server (default: this checkout's src)",
    )
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--drills", action="store_true")
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    command = shlex.split(args.command)
    if command[0] == "python":
        command[0] = sys.executable
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {}
    report.setdefault(
        "benchmark",
        f"{len(CHIP_SPECS) * NAMES} distinct jobs (the {len(CHIP_SPECS)} suite "
        f"chips at scale 1/{round(1 / SCALE)} under {NAMES} names each) from "
        f"{CLIENTS} closed-loop clients, a fresh server per run; a run's wall "
        "is first submission to last result",
    )
    report.setdefault(
        "host",
        {"cpus": os.cpu_count(), "python": platform.python_version()},
    )
    row = report.setdefault("topologies", {}).setdefault(args.label, {})
    row["command"] = args.command
    failures = 0
    for set_name in ("flat", "hext"):
        hext = set_name == "hext"
        jobs = job_set(hext)
        entry = row.setdefault("sets", {}).setdefault(set_name, {"runs": []})
        for _ in range(args.runs):
            server = Server(command, args.pythonpath)
            try:
                outcome = closed_loop(server.port, jobs, hext)
                outcome.update(server.peaks())
            finally:
                server.stop()
            failures += len(outcome["errors"])
            entry["runs"].append(outcome)
            print(
                f"{args.label} {set_name} run {len(entry['runs'])}: "
                f"{outcome['wall_s']:.3f} s, {len(outcome['errors'])} errors",
                flush=True,
            )
        entry.update(summarize([run["wall_s"] for run in entry["runs"]]))
        if args.drills:
            server = Server(command, args.pythonpath)
            try:
                name, cif, _ = jobs[0]
                entry["burst"] = burst(server.port, "burst-" + name, cif, hext)
                entry["kill"] = kill_drill(server.port, jobs, hext)
            finally:
                server.stop()
            print(f"{args.label} {set_name} drills: {entry['burst']} {entry['kill']}")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.label} to {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
