"""The job body in-process, and the worker process that runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cif import write as write_cif
from repro.core.stripengine import numpy_available
from repro.service.cache import payload_digest, result_cache_key
from repro.service.engine import (
    JobCancelled,
    JobTimeout,
    Worker,
    run_job,
)
from repro.service.jobs import Job, JobOptions
from repro.workloads import cmos_inverter, inverter, transistor_array


def _job(cif: str, **options) -> Job:
    parsed = JobOptions.from_payload(options or None)
    digest = payload_digest(cif)
    return Job.new(
        cif, parsed, digest, result_cache_key(digest, parsed)
    )


def _body(cif: str, **options):
    parsed = JobOptions.from_payload(options or None)
    return run_job(cif, parsed, payload_digest(cif), {})


def _never_called(*args, **kwargs):
    raise AssertionError("the job reached the worker")


@pytest.fixture()
def worker():
    worker = Worker(_never_called)
    yield worker
    worker.stop()


class TestRunJob:
    def test_cancelled_before_start_never_extracts(self, worker):
        job = _job(write_cif(inverter()))
        job.cancel_event.set()
        pid = worker.pid
        with pytest.raises(JobCancelled):
            worker.run(job, lambda *report: None)
        # Nothing was sent, so nothing was killed or replaced.
        assert worker.pid == pid and not worker.replaced

    def test_expired_deadline_fails_fast(self, worker):
        job = _job(write_cif(inverter()), timeout=0)
        with pytest.raises(JobTimeout):
            worker.run(job, lambda *report: None)
        assert not worker.replaced

    def test_result_payload_shape_and_caching(self):
        cif = write_cif(inverter())
        outcome = _body(cif, name="inv.cif")
        result = outcome.result
        assert result["name"] == "inv.cif"
        assert result["digest"] == payload_digest(cif)
        assert result["wirelist"].startswith('(DefPart "inv.cif"')
        assert result["devices"] == 2
        assert result["lint_errors"] == 0
        # What the daemon caches and folds into /metrics comes back too.
        assert list(outcome.trace.stages) == ["parse", "extract", "wirelist"]
        assert outcome.stats.devices_created == 2

    def test_deck_option_selects_technology(self):
        result = _body(
            write_cif(cmos_inverter()), name="cinv.cif", deck="cmos"
        ).result
        assert result["devices"] == 2
        assert "(DefPart pEnh" in result["wirelist"]
        assert "nDep" not in result["wirelist"]

    def test_decks_never_share_a_cache_entry(self):
        cif = write_cif(inverter())
        nmos_job = _job(cif, name="inv.cif")
        cmos_job = _job(cif, name="inv.cif", deck="cmos")
        assert nmos_job.cache_key != cmos_job.cache_key
        memos = {}
        for job in (nmos_job, cmos_job):
            run_job(cif, job.options, job.digest, memos, report=None)
        # ... nor a warm memo, when hierarchical.
        for deck in ("nmos", "cmos"):
            options = JobOptions.from_payload({"hext": True, "deck": deck})
            run_job(cif, options, nmos_job.digest, memos)
        assert sorted(memos) == ["cmos:250", "nmos:250"]

    def test_hext_jobs_share_one_warm_memo(self):
        memos = {}
        options = JobOptions(hext=True)
        run_job(write_cif(transistor_array(4)), options, "d", memos)
        # A different chip reusing the same sub-blocks hits the memo
        # entries the first request left warm: fewer windows to extract.
        large = write_cif(transistor_array(8))
        cold = run_job(large, options, "d", {}).stats.flat_calls
        warm = run_job(large, options, "d", memos).stats.flat_calls
        assert warm < cold
        assert len(memos["nmos:250"]) > 0

    def test_body_reports_stages_and_bands(self):
        reports = []
        cif = write_cif(transistor_array(4))
        options = JobOptions(stream=True, band_height=400)
        run_job(cif, options, "d", {}, report=lambda *m: reports.append(m))
        stages = [m[1] for m in reports if m[0] == "stage"]
        assert stages == ["parse", "extract"]
        bands = [m[1:] for m in reports if m[0] == "band"]
        assert len(bands) >= 2 and bands[-1][0] == bands[-1][1]


def test_preload_auto_imports_every_engine_auto_can_pick():
    """A forked worker must never import lazily.  Under every setting a
    hierarchical or keep-geometry job runs on python, and a flat one on
    the setting's engine, numpy under ``auto`` when importable."""
    settings = {"auto": set(), "python": set()}
    if numpy_available():
        settings["auto"].add("repro.core.engine_numpy")
        settings["numpy"] = {"repro.core.engine_numpy"}
    # the child sees this interpreter's path, numpy hidden or not
    path = [str(Path(__file__).parents[2] / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    for engine, modules in settings.items():
        probe = (
            "import sys; from repro.service.engine import preload; "
            f"preload({engine!r}); "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('repro.core.engine_'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        )
        expected = {"repro.core.engine_python", *modules}
        assert set(proc.stdout.split()) == expected, engine
