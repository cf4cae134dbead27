"""The async front-end: API parity, coalescing, failover, admission."""

import asyncio
import threading

import pytest

from repro.cif import write as write_cif
from repro.fleet import FleetRouter, RouterConfig
from repro.service import (
    ExtractionService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.client import JobFailed, ServiceError
from repro.workloads import dram_column, inverter, poly_diff_mesh, transistor_array

INVERTER = write_cif(inverter())


def test_extract_round_trip_matches_solo_daemon(fleet, fleet_client):
    solo = ExtractionService(ServiceConfig(port=0, workers=1, quiet=True))
    solo.start()
    try:
        expected = ServiceClient(port=solo.port, timeout=30.0).extract(
            INVERTER, name="inv.cif"
        )["wirelist"]
    finally:
        solo.close()
    result = fleet_client.extract(INVERTER, name="inv.cif")
    assert result["wirelist"] == expected


def test_fleet_issues_its_own_idents(fleet_client):
    receipt = fleet_client.submit(INVERTER, name="inv.cif")
    assert receipt["job"].startswith("f")
    status = fleet_client.wait(receipt["job"], timeout=30.0)
    assert status["state"] == "done"
    assert status["job"] == receipt["job"]


def test_duplicate_burst_coalesces(fleet, fleet_client):
    cif = write_cif(transistor_array(8))
    submitters = 6
    barrier = threading.Barrier(submitters)
    idents, wirelists, errors = [], [], []
    lock = threading.Lock()

    def fire():
        client = ServiceClient(port=fleet.port, timeout=30.0)
        barrier.wait()
        try:
            receipt = client.submit(cif, name="burst.cif")
            ident = receipt["job"]
            if receipt["state"] != "done":
                client.wait(ident, timeout=30.0)
            wirelist = client.result(ident)["wirelist"]
            with lock:
                idents.append(ident)
                wirelists.append(wirelist)
        except Exception as exc:  # noqa: BLE001
            with lock:
                errors.append(repr(exc))

    threads = [threading.Thread(target=fire) for _ in range(submitters)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors
    assert len(wirelists) == submitters
    assert len(set(wirelists)) == 1
    counters = fleet_client.metrics()["fleet"]["counters"]
    assert counters.get("coalesced", 0) >= 1
    # All coalesced submitters share one fleet job ident.
    assert len(set(idents)) <= 2  # tolerance for a post-completion miss


def test_bad_submissions_refused_at_the_edge(fleet, fleet_client):
    for body in (
        {},
        {"cif": INVERTER, "path": "/x.cif"},
        {"cif": 7},
        {"cif": INVERTER, "bogus": 1},
        {"cif": INVERTER, "options": {"deck": "no-such-deck"}},
    ):
        with pytest.raises(ServiceError) as excinfo:
            fleet_client._request("POST", "/jobs", body, ok=(200, 202))
        assert excinfo.value.status == 400
    # Nothing reached any shard.
    for svc in fleet.services:
        assert svc.metrics_payload()["jobs"]["submitted"] == 0


def test_unknown_job_is_404(fleet_client):
    with pytest.raises(ServiceError) as excinfo:
        fleet_client.status("f000000000000")
    assert excinfo.value.status == 404


def test_cancel_before_completion(fleet):
    # A fleet over idle shards (no workers): jobs queue forever.
    idle = ExtractionService(
        ServiceConfig(port=0, workers=0, queue_capacity=4, quiet=True)
    )
    idle.start()
    router = FleetRouter(
        [("only", "127.0.0.1", idle.port)],
        RouterConfig(port=0, quiet=True, health_interval=5.0),
    )
    router.start()
    try:
        client = ServiceClient(port=router.port, timeout=30.0)
        receipt = client.submit(INVERTER, name="inv.cif")
        cancelled = client.cancel(receipt["job"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["job"] == receipt["job"]
        with pytest.raises(JobFailed):
            client.result(receipt["job"])
    finally:
        router.close()
        for job in list(idle.store._jobs):
            idle.store.cancel(job)
        idle.close()


def test_submit_fails_over_to_surviving_shard(tmp_path):
    """One of two shards is already dead: every submission still lands."""
    alive = ExtractionService(ServiceConfig(port=0, workers=2, quiet=True))
    alive.start()
    dead = ExtractionService(ServiceConfig(port=0, workers=0, quiet=True))
    dead.start()
    router = FleetRouter(
        [
            ("shard0", "127.0.0.1", alive.port),
            ("shard1", "127.0.0.1", dead.port),
        ],
        RouterConfig(port=0, quiet=True, health_interval=0.2),
    )
    router.start()
    # Killed only now, so nothing (the router included) can rebind the
    # freed ephemeral port and answer health probes in its stead.
    dead.close()
    try:
        client = ServiceClient(port=router.port, timeout=30.0)
        # Enough distinct payloads that some hash onto the dead shard.
        for index in range(6):
            result = client.extract(
                write_cif(poly_diff_mesh(2 + index)),
                name=f"a{index}.cif",
            )
            assert "wirelist" in result
        health = client.health()
        states = {s["name"]: s["healthy"] for s in health["shards"]}
        assert states["shard0"] is True
        assert states["shard1"] is False
    finally:
        router.close()
        alive.close()


def test_shard_down_counted_where_a_poll_fails():
    """The poll that finds a shard dead counts it -- once -- with no
    help from the periodic health check, which never fires here."""
    alive = ExtractionService(ServiceConfig(port=0, workers=2, quiet=True))
    alive.start()
    # No workers: accepted jobs stay queued on the doomed shard.
    doomed = ExtractionService(ServiceConfig(port=0, workers=0, quiet=True))
    doomed.start()
    router = FleetRouter(
        [
            ("shard0", "127.0.0.1", alive.port),
            ("shard1", "127.0.0.1", doomed.port),
        ],
        RouterConfig(port=0, quiet=True, health_interval=3600.0),
    )
    router.start()
    try:
        client = ServiceClient(port=router.port, timeout=30.0)
        receipts = [
            client.submit(write_cif(poly_diff_mesh(2 + i)), name=f"d{i}.cif")[
                "job"
            ]
            for i in range(6)
        ]
        assert router.table.pending_on(router.shards["shard1"])
        for job in list(doomed.store._jobs):
            doomed.store.cancel(job)
        doomed.close()

        for ident in receipts:
            assert client.wait(ident, timeout=30.0)["state"] == "done"
            assert "wirelist" in client.result(ident)
        counters = client.metrics()["fleet"]["counters"]
        assert counters["shard_down"] == 1
        assert counters["failover"] >= 1
        # A health check that agrees afterwards must not count again.
        asyncio.run_coroutine_threadsafe(
            router._check_health(), router._loop
        ).result(timeout=30.0)
        assert client.metrics()["fleet"]["counters"]["shard_down"] == 1
        assert client.health()["shards"][1]["healthy"] is False
    finally:
        router.close()
        alive.close()


def test_draining_router_refuses_submissions(fleet, fleet_client):
    fleet.router.draining = True
    with pytest.raises(ServiceError) as excinfo:
        fleet_client.submit(INVERTER, name="inv.cif")
    assert excinfo.value.status == 503
    fleet.router.draining = False


def test_healthz_and_metrics_shapes(fleet, fleet_client):
    fleet_client.extract(INVERTER, name="inv.cif")
    health = fleet_client.health()
    assert health["ok"] is True
    assert health["role"] == "fleet-router"
    assert {s["name"] for s in health["shards"]} == {"shard0", "shard1"}

    metrics = fleet_client.metrics()
    assert metrics["fleet"]["counters"]["routed"] >= 1
    assert set(metrics["shards"]) == {"shard0", "shard1"}
    # The aggregate rolls up both shards' job counters.
    assert metrics["aggregate"]["jobs"]["completed"] >= 1
    # Shard identity flows through each shard's own metrics document.
    for name, payload in metrics["shards"].items():
        assert payload["shard"] == name


def test_result_served_from_router_after_completion(fleet, fleet_client):
    """Terminal results answer from the router's table, not the shard."""
    receipt = fleet_client.submit(INVERTER, name="inv.cif")
    fleet_client.wait(receipt["job"], timeout=30.0)
    first = fleet_client.result(receipt["job"])
    record = fleet.router.table.get(receipt["job"])
    assert record is not None and record.result is not None
    # Erase the job from every shard's store: if the second fetch still
    # answers, it was served from the router's own table.
    for svc in fleet.services:
        svc.store._jobs.pop(record.upstream, None)
    again = fleet_client.result(receipt["job"])
    assert again["wirelist"] == first["wirelist"]


def test_router_drain_is_clean_when_idle(tmp_path):
    svc = ExtractionService(ServiceConfig(port=0, workers=1, quiet=True))
    svc.start()
    router = FleetRouter(
        [("only", "127.0.0.1", svc.port)],
        RouterConfig(port=0, quiet=True, health_interval=5.0),
    )
    router.start()
    client = ServiceClient(port=router.port, timeout=30.0)
    client.extract(INVERTER, name="inv.cif")
    assert router.drain(grace=10.0) is True
    svc.close()


def test_cached_hit_submission_finalizes_cleanly(fleet, fleet_client):
    """A resubmission the shard answers from its result cache (200,
    state already done) must leave the router's job fully terminal:
    final payload set, result fetched, coalesce slot retired.  A job
    that turns terminal before its final payload exists answers
    concurrent polls with a 500 (the bug the fleet bench caught)."""
    cif = write_cif(dram_column(5))
    fleet_client.extract(cif, name="hit.cif")
    receipt = fleet_client.submit(cif, name="hit.cif")
    assert receipt["state"] == "done"
    record = fleet.router.table.get(receipt["job"])
    assert record is not None
    assert record.terminal
    assert record.final is not None
    assert record.result is not None
    # mark_terminal ran: the coalescing slot no longer points here.
    assert fleet.router.table._inflight.get(record.key) is not record
    # And the client can fetch the result straight away.
    assert "wirelist" in fleet_client.result(receipt["job"])


def test_shared_store_makes_results_visible_across_shards(
    fleet, fleet_client
):
    """Both shards share one artifact store: a repeat submission is a
    cache hit no matter which shard the ring picks."""
    cif = write_cif(dram_column(4))
    fleet_client.extract(cif, name="shared.cif")
    # Submit through each shard directly; at least the ring owner did
    # the work, and the other one must see it on disk.
    for svc in fleet.services:
        direct = ServiceClient(port=svc.port, timeout=30.0)
        receipt = direct.submit(cif, name="shared.cif")
        assert receipt["state"] == "done"
        assert receipt["cached"] is True
