"""Worker processes: cancel, timeout, death and shutdown, deterministically.

To hold a job inside a worker, these tests swap in a job body that
reports ``held <pid>`` as its stage and then blocks.  Each test waits on
a state it can observe -- a job's stage or state, a process's exit --
never on a sleep that hopes something happened first.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cif import write as write_cif
from repro.pipeline import JobOptions, run
from repro.service import ExtractionService, ServiceClient, ServiceConfig
from repro.service.engine import run_job
from repro.tech import NMOS
from repro.workloads import inverter, transistor_array

REPO = Path(__file__).resolve().parents[2]
CIF = write_cif(transistor_array(4))


def hold(report):
    report("stage", f"held {os.getpid()}")
    threading.Event().wait()


def hold_named(cif, options, digest, memos, *, report, **kwargs):
    """Hold jobs named ``held*``; run every other job for real."""
    if options.name.startswith("held"):
        hold(report)
    return run_job(cif, options, digest, memos, report=report, **kwargs)


def reference(name, cif=CIF):
    return run(cif, NMOS(), JobOptions(name=name)).text


def held_pid(client, job, *, other_than=None, timeout=30.0):
    """Wait until ``job`` is held in a worker; return that worker's pid."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stage = client.status(job).get("stage") or ""
        match = re.fullmatch(r"held (\d+)", stage)
        if match and int(match.group(1)) != other_than:
            return int(match.group(1))
        time.sleep(0.01)
    raise AssertionError(f"job {job} was never held in a worker")


def alive(pid):
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


def wait_gone(pids, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(alive(pid) for pid in pids):
            return
        time.sleep(0.01)
    raise AssertionError(f"worker(s) still alive: {[p for p in pids if alive(p)]}")


def daemon(body=hold_named, **config):
    service = ExtractionService(
        ServiceConfig(port=0, quiet=True, default_timeout=60.0, **config)
    )
    service.job_body = body
    service.start()
    return service, ServiceClient(port=service.port, timeout=30.0)


@pytest.fixture()
def one_worker():
    service, client = daemon(workers=1)
    yield service, client
    service.close()


def test_cancel_running_job_replaces_its_worker(one_worker):
    service, client = one_worker
    receipt = client.submit(CIF, name="held.cif")
    pid = held_pid(client, receipt["job"])
    client.cancel(receipt["job"])
    status = client.wait(receipt["job"], timeout=30.0)
    assert status["state"] == "cancelled"
    assert status["error_kind"] == "cancelled"
    assert not alive(pid)
    workers = client.metrics()["workers"]
    assert workers["replaced"] == {"cancelled": 1, "timeout": 0, "died": 0}
    assert workers["pids"] != [pid]
    # The next job on that slot runs on the fresh worker, byte-exact.
    result = client.extract(CIF, name="after.cif", wait_timeout=30.0)
    assert result["wirelist"] == reference("after.cif")


def test_timeout_kills_the_worker_at_the_deadline(one_worker):
    service, client = one_worker
    # Long enough for the job to reach its worker on a loaded host: the
    # deadline must fall while the worker holds it.
    receipt = client.submit(CIF, name="held.cif", timeout=2.0)
    held_pid(client, receipt["job"])
    status = client.wait(receipt["job"], timeout=30.0)
    assert status["state"] == "failed"
    assert status["error_kind"] == "timeout"
    metrics = client.metrics()
    assert metrics["jobs"]["timed_out"] == 1
    assert metrics["workers"]["replaced"]["timeout"] == 1


def test_worker_death_reruns_the_job_once(tmp_path):
    marker = tmp_path / "held-once"

    def hold_once(cif, options, digest, memos, *, report, **kwargs):
        if not marker.exists():
            marker.touch()
            hold(report)
        return run_job(cif, options, digest, memos, report=report, **kwargs)

    service, client = daemon(hold_once, workers=1)
    try:
        receipt = client.submit(CIF, name="chip.cif")
        os.kill(held_pid(client, receipt["job"]), signal.SIGKILL)
        status = client.wait(receipt["job"], timeout=30.0)
        assert status["state"] == "done"
        assert client.result(receipt["job"])["wirelist"] == reference(
            "chip.cif"
        )
        metrics = client.metrics()
        assert metrics["workers"]["replaced"]["died"] == 1
        assert metrics["jobs"]["completed"] == 1
    finally:
        service.close()


def test_second_worker_death_fails_the_job(one_worker):
    service, client = one_worker
    receipt = client.submit(CIF, name="held.cif")
    first = held_pid(client, receipt["job"])
    os.kill(first, signal.SIGKILL)
    second = held_pid(client, receipt["job"], other_than=first)
    os.kill(second, signal.SIGKILL)
    status = client.wait(receipt["job"], timeout=30.0)
    assert status["state"] == "failed"
    assert status["error_kind"] == "error"
    assert f"worker {second} died" in status["error"]
    assert client.metrics()["workers"]["replaced"]["died"] == 2


def test_two_workers_hold_two_jobs_in_two_processes():
    service, client = daemon(workers=2)
    try:
        jobs = [client.submit(CIF, name=f"held{i}.cif")["job"] for i in (0, 1)]
        pids = {held_pid(client, job) for job in jobs}
        assert len(pids) == 2
        assert os.getpid() not in pids
        assert pids == set(client.metrics()["workers"]["pids"])
        for job in jobs:
            client.cancel(job)
        for job in jobs:
            assert client.wait(job, timeout=30.0)["state"] == "cancelled"
    finally:
        service.close()


class TestServeProcess:
    """``repro-serve`` as a real process: signals, exit, no orphans."""

    def start(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--workers", "2", "--drain-grace", "10",
            ],
            cwd=tmp_path,
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        ready = json.loads(proc.stderr.readline())
        assert ready["event"] == "ready", ready
        threading.Thread(target=proc.stderr.read, daemon=True).start()
        port = int(ready["address"].rsplit(":", 1)[1])
        client = ServiceClient(port=port, timeout=30.0)
        result = client.extract(write_cif(inverter()), name="inv.cif")
        assert result["wirelist"] == reference("inv.cif", write_cif(inverter()))
        pids = client.metrics()["workers"]["pids"]
        assert len(pids) == 2 and proc.pid not in pids
        return proc, pids

    def test_sigterm_exits_zero_and_reaps_workers(self, tmp_path):
        proc, pids = self.start(tmp_path)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10.0) == 0
        wait_gone(pids)

    def test_sigkill_of_the_daemon_leaves_no_worker(self, tmp_path):
        proc, pids = self.start(tmp_path)
        proc.kill()
        proc.wait(timeout=10.0)
        wait_gone(pids)
