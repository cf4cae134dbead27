"""The one extraction pipeline: entry-point parity and its timing record."""

import re
import time

import pytest

from repro.cif import write
from repro.cli import main
from repro.core import stripengine
from repro.pipeline import PAPER_PHASES, JobOptions, run
from repro.service.cache import payload_digest
from repro.service.engine import run_job
from repro.tech import NMOS
from repro.workloads import inverter
from repro.workloads.violations import drc_violations

LAYOUTS = {"inverter": inverter, "violations": drc_violations}

#: mode -> (ace-extract flags, daemon options)
MODES = {
    "flat": ([], {}),
    "flat+geometry": (["--geometry"], {"keep_geometry": True}),
    "flat+lint": (["--lint"], {"lint": True}),
    "hext": (["--hierarchical"], {"hext": True}),
    "hext+lint": (["--hierarchical", "--lint"], {"hext": True, "lint": True}),
    "stream": (["--stream"], {"stream": True}),
    "stream+lint": (["--stream", "--lint"], {"stream": True, "lint": True}),
}


@pytest.fixture(scope="module")
def memos():
    return {}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("chip", LAYOUTS)
def test_cli_and_daemon_agree(chip, mode, memos, tmp_path, capsys):
    flags, options = MODES[mode]
    cif = write(LAYOUTS[chip]())
    path = tmp_path / f"{chip}.cif"
    path.write_text(cif)
    target = tmp_path / "out.wl"
    main([str(path), "-o", str(target), *flags])
    err = capsys.readouterr().err

    parsed = JobOptions.from_payload({"name": path.name, **options})
    result = run_job(cif, parsed, payload_digest(cif), memos).result

    assert target.read_text() == result["wirelist"]
    warnings = re.findall(r"^warning: (.*)$", err, re.MULTILINE)
    assert warnings == result["warnings"]
    lint = re.search(r"^lint: (\d+) error\(s\)$", err, re.MULTILINE)
    if parsed.lint:
        assert int(lint.group(1)) == result["lint_errors"]
    else:
        assert lint is None and result["lint_errors"] == 0


@pytest.mark.parametrize("mode", MODES)
def test_trace_reconciles_with_its_wall(mode):
    _, options = MODES[mode]
    result = run(write(drc_violations()), NMOS(), JobOptions(**options))
    trace = result.trace
    assert trace.wall > 0.0
    assert trace.unaccounted >= 0.0
    assert sum(trace.stages.values()) + trace.unaccounted == pytest.approx(
        trace.wall
    )
    expected = ["parse", "extract"]
    if not options.get("stream"):
        expected.append("wirelist")
    if options.get("lint"):
        expected.append("lint")
    assert list(trace.stages) == expected
    for stage, phases in trace.phases.items():
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= trace.stages[stage] + 1e-9
    rows = trace.rows()
    assert rows[-1] == (0, "unaccounted", trace.unaccounted)


def test_paper_shares_split_the_run():
    shares = run(write(inverter()), NMOS()).trace.paper_shares()
    assert list(shares) == list(PAPER_PHASES)
    assert sum(shares.values()) == pytest.approx(100.0)
    assert all(share >= 0.0 for share in shares.values())


def test_stage_hook_sees_every_stage_and_can_abort():
    seen = []
    run(
        write(drc_violations()),
        NMOS(),
        JobOptions(hext=True, lint=True),
        on_stage=seen.append,
    )
    assert seen == ["parse", "extract", "wirelist", "lint"]

    def abort(stage):
        if stage == "wirelist":
            raise RuntimeError("stop")

    with pytest.raises(RuntimeError):
        run(write(inverter()), NMOS(), on_stage=abort)


def test_hext_bills_engine_loading_to_setup(monkeypatch):
    """Loading the strip engine (numpy's import) is setup, not execute."""
    real = stripengine.resolve_engine
    calls = []

    def slow_first_load(name="auto"):
        if not calls:
            time.sleep(0.3)  # a cold engine import
        calls.append(name)
        return real(name)

    monkeypatch.setattr(stripengine, "resolve_engine", slow_first_load)
    result = run(write(inverter()), NMOS(), JobOptions(hext=True))
    phases = result.trace.phases["extract"]
    assert list(phases) == ["frontend", "setup", "execute", "compose", "resolve"]
    assert phases["setup"] >= 0.3
    assert phases["execute"] < 0.3
    assert result.stats.backend_seconds < 0.3
