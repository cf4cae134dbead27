"""End-to-end daemon tests over real HTTP on an ephemeral port."""

import pytest

from repro.cif import parse, write as write_cif
from repro.core import extract_report
from repro.service import (
    ExtractionService,
    JobFailed,
    ServiceClient,
    ServiceConfig,
    ServiceError,
)
from repro.pipeline import JobOptions, run
from repro.tech import NMOS
from repro.wirelist import to_wirelist, write_wirelist
from repro.workloads import inverter, transistor_array
from repro.workloads.violations import drc_violations
from tests.parallel.test_equivalence import DRAW_ORDER_PAIR


def _reference_wirelist(cif: str, name: str) -> str:
    report = extract_report(parse(cif), keep_geometry=False)
    return write_wirelist(to_wirelist(report.circuit, name=name))


class TestExtraction:
    def test_round_trip_matches_in_process_bytes(self, client):
        cif = write_cif(inverter())
        result = client.extract(cif, name="inverter.cif")
        assert result["wirelist"] == _reference_wirelist(cif, "inverter.cif")
        assert result["devices"] == 2

    def test_submit_poll_result_lifecycle(self, client):
        receipt = client.submit(write_cif(inverter()), name="inv.cif")
        assert receipt["state"] in ("queued", "done")
        status = client.wait(receipt["job"], timeout=30.0)
        assert status["state"] == "done"
        assert status["latency_seconds"] >= 0
        result = client.result(receipt["job"])
        assert result["name"] == "inv.cif"

    def test_repeat_submission_hits_the_result_cache(self, client):
        cif = write_cif(transistor_array(4))
        first = client.extract(cif, name="array.cif")
        receipt = client.submit(cif, name="array.cif")
        # The hit answers synchronously: done, flagged, byte-identical.
        assert receipt["state"] == "done"
        assert receipt["cached"] is True
        assert client.result(receipt["job"])["wirelist"] == first["wirelist"]
        metrics = client.metrics()
        assert metrics["cache"]["hits"] == 1
        assert metrics["result_cache"]["hits"] == 1

    @pytest.mark.parametrize("hext", [False, True])
    def test_done_job_status_carries_its_trace(self, client, hext):
        cif = write_cif(inverter())
        receipt = client.submit(cif, name="inv.cif", hext=hext)
        status = client.wait(receipt["job"], timeout=30.0)
        assert status["state"] == "done" and status["cached"] is False
        rows = status["trace"]
        stages = [name for depth, name, _ in rows if depth == 0]
        assert stages == ["parse", "extract", "wirelist", "unaccounted"]
        assert rows[-1][:2] == [0, "unaccounted"]
        phases = [name for depth, name, _ in rows if depth == 1]
        assert ("execute" in phases) == hext
        depth0 = sum(seconds for depth, _, seconds in rows if depth == 0)
        assert depth0 <= status["latency_seconds"]
        # A cache hit ran no extraction, so it has no trace to show.
        again = client.submit(cif, name="inv.cif", hext=hext)
        assert again["cached"] is True
        assert "trace" not in again
        assert "trace" not in client.status(again["job"])

    def test_warm_memo_serves_each_layout_its_own_bytes(self, client):
        # a and b draw one window's boxes in different orders, so b's
        # window hits the memo entry a left warm; the daemon must still
        # answer b with the bytes ace-extract writes for b.
        for name, cif in DRAW_ORDER_PAIR.items():
            served = client.extract(cif, name=name, hext=True)
            local = run(cif, NMOS(), JobOptions(name=name, hext=True))
            assert served["wirelist"] == local.text, name

    def test_hext_with_lint(self, client):
        cif = write_cif(inverter())
        flat = client.extract(cif, name="inv.cif")
        hier = client.extract(cif, name="inv.cif", hext=True, lint=True)
        assert hier["lint_errors"] == 0
        assert hier["devices"] == flat["devices"]

    def test_lint_reports_diagnostics(self, client):
        result = client.extract(
            write_cif(drc_violations()), name="bad.cif", lint=True
        )
        assert result["lint_errors"] > 0
        assert result["diagnostics"]
        assert all("rule" in d for d in result["diagnostics"])

    def test_path_submission(self, client, tmp_path):
        layout = tmp_path / "inv.cif"
        cif = write_cif(inverter())
        layout.write_text(cif)
        result = client.extract(path=str(layout))
        # The name defaults to the basename of the submitted path.
        assert result["name"] == "inv.cif"
        assert result["wirelist"] == _reference_wirelist(cif, "inv.cif")

    def test_unparseable_cif_fails_the_job(self, client):
        receipt = client.submit("this is not CIF ((", name="junk.cif")
        status = client.wait(receipt["job"], timeout=30.0)
        assert status["state"] == "failed"
        assert status["error_kind"] == "error"
        with pytest.raises(JobFailed):
            client.result(receipt["job"])

    def test_zero_timeout_times_out(self, client):
        receipt = client.submit(
            write_cif(inverter()), name="inv.cif", timeout=0
        )
        status = client.wait(receipt["job"], timeout=30.0)
        assert status["state"] == "failed"
        assert status["error_kind"] == "timeout"
        metrics = client.metrics()
        assert metrics["jobs"]["timed_out"] == 1


class TestValidation:
    def test_unknown_option_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit(write_cif(inverter()), jbos=2)
        assert info.value.status == 400
        assert "unknown option" in str(info.value)
        # Extraction runs on one thread; the old worker-count option is
        # refused like any other unknown key, never silently ignored.
        with pytest.raises(ServiceError) as info:
            client.submit(write_cif(inverter()), hext=True, jobs=2)
        assert info.value.status == 400
        assert "unknown option(s): jobs" in str(info.value)

    def test_cif_and_path_are_mutually_exclusive(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit("(C);", path="/tmp/x.cif")
        assert info.value.status == 400

    def test_neither_cif_nor_path_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.submit()
        assert info.value.status == 400

    def test_unreadable_path_is_400(self, client, tmp_path):
        with pytest.raises(ServiceError) as info:
            client.submit(path=str(tmp_path / "missing.cif"))
        assert info.value.status == 400

    def test_unknown_job_is_404(self, client):
        for probe in (client.status, client.result, client.cancel):
            with pytest.raises(ServiceError) as info:
                probe("feedfacecafe")
            assert info.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client._request("GET", "/nope")
        assert info.value.status == 404


class TestAdmissionControl:
    def test_full_queue_answers_429_with_retry_after(self, idle_client):
        cif = write_cif(inverter())
        for index in range(3):  # fill the capacity-3 queue
            idle_client.submit(cif, name=f"fill{index}.cif")
        with pytest.raises(ServiceError) as info:
            idle_client.submit(cif, name="overflow.cif")
        exc = info.value
        assert exc.status == 429
        assert exc.retry_after >= 1.0
        assert exc.payload["queue_depth"] == 3
        metrics = idle_client.metrics()
        assert metrics["jobs"]["rejected_full"] == 1
        assert metrics["queue"]["depth"] == 3

    def test_queued_job_result_is_202(self, idle_client):
        receipt = idle_client.submit(write_cif(inverter()))
        with pytest.raises(ServiceError) as info:
            idle_client.result(receipt["job"])
        assert info.value.status == 202

    def test_cancel_queued_job(self, idle_client):
        receipt = idle_client.submit(write_cif(inverter()))
        cancelled = idle_client.cancel(receipt["job"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(JobFailed) as info:
            idle_client.result(receipt["job"])
        assert info.value.payload["state"] == "cancelled"


class TestObservability:
    def test_healthz(self, client):
        health = client.health()
        assert health["ok"] is True
        assert health["draining"] is False
        assert health["uptime_seconds"] >= 0

    def test_metrics_account_for_every_job(self, client):
        cif = write_cif(inverter())
        client.extract(cif, name="a.cif")
        client.extract(cif, name="a.cif")  # cache hit
        client.extract(cif, name="b.cif", hext=True)  # different facet
        metrics = client.metrics()
        jobs = metrics["jobs"]
        assert jobs["submitted"] == 3
        assert jobs["completed"] == 3
        assert jobs["failed"] == 0
        assert metrics["cache"]["hits"] == 1
        assert metrics["latency"]["observed"] == 3
        # Stage timings cover the whole pipeline; hext folded its own.
        assert {"parse", "extract", "wirelist"} <= set(metrics["stages"])
        assert metrics["scanline"]["devices_created"] >= 2
        assert metrics["hext"]["windows_seen"] >= 1
        assert metrics["warm"]["window_memos"]


class TestDrain:
    def test_drain_finishes_admitted_work_then_refuses(self):
        service = ExtractionService(
            ServiceConfig(port=0, workers=2, quiet=True)
        )
        service.start()
        client = ServiceClient(port=service.port, timeout=30.0)
        cif = write_cif(transistor_array(4))
        receipts = [
            client.submit(cif, name=f"chip{index}.cif") for index in range(4)
        ]
        assert service.drain(grace=60.0) is True
        # Every admitted job reached done before the server stopped.
        for receipt in receipts:
            job = service.store.get(receipt["job"])
            assert job is not None and job.state.value == "done"
        assert service.submit({"cif": cif})[0] == 503

    def test_drain_is_reported_while_serving(self):
        service = ExtractionService(
            ServiceConfig(port=0, workers=1, quiet=True)
        )
        service.start()
        try:
            service.draining.set()
            client = ServiceClient(port=service.port, timeout=30.0)
            assert client.health()["draining"] is True
            with pytest.raises(ServiceError) as info:
                client.submit("(C);")
            assert info.value.status == 503
        finally:
            service.close()
