"""The differential driver end to end, including the fault self-test."""

import os

import pytest

from repro.cif import parse_file
from repro.difftest import (
    KNOWN_FAULTS,
    check_layout,
    generate_layout,
    inject_fault,
    run_difftest,
)
from repro.difftest.cli import main as difftest_main
from repro.tech import NMOS

TECH = NMOS()

#: The in-process oracle subset used by fast tests (the service oracle
#: starts a daemon; it has its own tests).
FAST = ("ace", "hext", "raster", "polyflat")


class TestCleanRuns:
    def test_oracles_agree_on_seeded_layouts(self, tmp_path):
        result = run_difftest(
            iterations=15,
            seed=101,
            oracle_names=FAST,
            tech=TECH,
            corpus_dir=str(tmp_path),
        )
        assert result.ok, [
            mismatch.headline()
            for failure in result.failures
            for mismatch in failure.mismatches
        ]
        assert result.iterations == 15
        assert not os.listdir(tmp_path)

    def test_raster_skipped_off_grid(self):
        # Seeds are cheap: scan until an off-grid case shows up and make
        # sure the run records the skip instead of blaming the raster.
        result = run_difftest(
            iterations=40, seed=0, oracle_names=FAST, tech=TECH
        )
        assert result.ok
        assert result.raster_skips > 0


class TestFaultSelfTest:
    @pytest.mark.parametrize("fault", sorted(KNOWN_FAULTS))
    def test_fault_is_caught_and_shrunk(self, fault, tmp_path):
        corpus = str(tmp_path / "corpus")
        result = run_difftest(
            iterations=50,
            seed=7,
            oracle_names=("ace", "polyflat"),
            tech=TECH,
            corpus_dir=corpus,
            fault=fault,
            max_failures=1,
        )
        assert result.failures, f"fault {fault} went undetected"
        failure = result.failures[0]
        assert failure.shrunk is not None
        assert failure.shrunk.after <= 10
        assert failure.shrunk.after <= failure.shrunk.before

        # The persisted repro must replay: parsed back from CIF it still
        # splits the oracles under the fault, and agrees without it.
        repro = os.path.join(corpus, failure.entry_name(), "repro.cif")
        layout = parse_file(repro)
        with inject_fault(fault):
            assert check_layout(
                layout, oracle_names=("ace", "polyflat"), tech=TECH
            )
        assert not check_layout(
            layout, oracle_names=("ace", "polyflat"), tech=TECH
        )
        report = os.path.join(corpus, failure.entry_name(), "REPORT.md")
        with open(report) as handle:
            text = handle.read()
        assert fault in text and "Reproduce" in text

    def test_faults_do_not_leak(self):
        from repro.core import scanline

        assert scanline.FAULTS == frozenset()

    @pytest.mark.slow
    def test_acceptance_200_iterations_both_ways(self, tmp_path):
        """The ISSUE acceptance criterion, verbatim."""
        for fault in sorted(KNOWN_FAULTS):
            result = run_difftest(
                iterations=200,
                seed=7,
                oracle_names=FAST,
                tech=TECH,
                corpus_dir=str(tmp_path / fault),
                fault=fault,
                max_failures=1,
            )
            assert result.failures and result.failures[0].shrunk.after <= 10
        clean = run_difftest(
            iterations=200, seed=7, oracle_names=FAST, tech=TECH
        )
        assert clean.ok


class TestCli:
    def test_list_oracles(self, capsys):
        assert difftest_main(["--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in FAST + ("service", "ace-stream"):
            assert name in out

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        rc = difftest_main(
            [
                "-n", "5", "--seed", "33", "-q",
                "--oracles", "ace,polyflat",
                "--corpus", str(tmp_path),
            ]
        )
        assert rc == 0
        # The log names what ran, so an oracle that did not register
        # shows there.
        assert "difftest: oracles ace, polyflat\n" in capsys.readouterr().err

    def test_self_test_exits_zero_on_catch(self, tmp_path):
        rc = difftest_main(
            [
                "-n", "50", "--seed", "7", "-q",
                "--oracles", "ace,polyflat",
                "--inject-fault", "buried-skip",
                "--max-failures", "1",
                "--corpus", str(tmp_path),
            ]
        )
        assert rc == 0
        entries = os.listdir(tmp_path)
        assert entries, "self-test failure was not persisted"

    def test_unknown_oracle_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_difftest(
                iterations=1, oracle_names=("ace", "nope"), tech=TECH
            )


def test_generated_devices_exist_somewhere():
    # The harness is only as good as its inputs: over a seed range the
    # generator must make real transistors, not just wiring.
    from repro.core import extract

    total = sum(
        len(extract(generate_layout(seed, TECH.lambda_).layout, TECH).devices)
        for seed in range(8)
    )
    assert total >= 5
