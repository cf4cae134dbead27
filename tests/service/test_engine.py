"""Engine behavior below the HTTP layer: cancellation, timeouts, warm state."""

import time

import pytest

from repro.cif import write as write_cif
from repro.service.cache import payload_digest, result_cache_key
from repro.service.engine import (
    PROBE_STRIDE,
    CancellationProbe,
    ExtractionEngine,
    JobCancelled,
    JobTimeout,
)
from repro.service.jobs import Job, JobOptions
from repro.workloads import cmos_inverter, inverter, transistor_array


def _job(cif: str, **options) -> Job:
    parsed = JobOptions.from_payload(options or None)
    digest = payload_digest(cif)
    return Job.new(
        cif, parsed, digest, result_cache_key(digest, parsed)
    )


class TestCancellationProbe:
    def test_probe_checks_every_stride(self):
        job = _job("(C);")
        probe = CancellationProbe(job)
        job.cancel_event.set()
        # The probe deliberately skips PROBE_STRIDE - 1 strips ...
        for _ in range(PROBE_STRIDE - 1):
            probe.observe_strip(0, 1, {}, [])
        # ... and aborts on the stride boundary.
        with pytest.raises(JobCancelled):
            probe.observe_strip(0, 1, {}, [])

    def test_probe_raises_timeout_past_deadline(self):
        job = _job("(C);")
        job.deadline = time.monotonic() - 1.0
        probe = CancellationProbe(job)
        with pytest.raises(JobTimeout):
            for _ in range(PROBE_STRIDE):
                probe.observe_strip(0, 1, {}, [])


class TestRunJob:
    def test_cancelled_before_start_never_extracts(self):
        engine = ExtractionEngine()
        job = _job(write_cif(inverter()))
        job.cancel_event.set()
        with pytest.raises(JobCancelled):
            engine.run_job(job)
        assert engine.results.get(job.cache_key) is None

    def test_expired_deadline_fails_fast(self):
        engine = ExtractionEngine()
        job = _job(write_cif(inverter()), timeout=0)
        with pytest.raises(JobTimeout):
            engine.run_job(job)

    def test_result_payload_shape_and_caching(self):
        engine = ExtractionEngine()
        job = _job(write_cif(inverter()), name="inv.cif")
        result = engine.run_job(job)
        assert result["name"] == "inv.cif"
        assert result["wirelist"].startswith('(DefPart "inv.cif"')
        assert result["devices"] == 2
        assert result["lint_errors"] == 0
        assert engine.results.get(job.cache_key) is result

    def test_deck_option_selects_technology(self):
        engine = ExtractionEngine()
        job = _job(write_cif(cmos_inverter()), name="cinv.cif", deck="cmos")
        result = engine.run_job(job)
        assert result["devices"] == 2
        assert "(DefPart pEnh" in result["wirelist"]
        assert "nDep" not in result["wirelist"]

    def test_decks_never_share_a_cache_entry(self):
        engine = ExtractionEngine()
        cif = write_cif(inverter())
        nmos_job = _job(cif, name="inv.cif")
        cmos_job = _job(cif, name="inv.cif", deck="cmos")
        assert nmos_job.cache_key != cmos_job.cache_key
        engine.run_job(nmos_job)
        assert engine.results.get(cmos_job.cache_key) is None

    def test_hext_jobs_share_one_warm_memo(self):
        engine = ExtractionEngine()
        engine.run_job(_job(write_cif(transistor_array(4)), hext=True))
        first = engine.metrics.snapshot()["hext"]["memo_hits"]
        # A different chip reusing the same sub-blocks hits the memo
        # entries the first request left warm.
        engine.run_job(_job(write_cif(transistor_array(8)), hext=True))
        second = engine.metrics.snapshot()["hext"]["memo_hits"]
        assert second > first
        memos = engine.memo_snapshot()["window_memos"]
        assert sum(memos.values()) > 0
        pruned = engine.prune_memos()
        assert pruned >= 0  # prune is safe on a warm engine
