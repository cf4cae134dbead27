"""The ace-extract and repro-lint command-line interfaces."""

import json

import pytest

from repro.cif import write
from repro.cli import main
from repro.lint import INTERNAL_ERROR_EXIT, main as lint_main
from repro.workloads import inverter
from repro.workloads.violations import VIOLATION_SNIPPETS, drc_violations


@pytest.fixture()
def inverter_cif(tmp_path):
    path = tmp_path / "inverter.cif"
    path.write_text(write(inverter()))
    return str(path)


@pytest.fixture()
def violations_cif(tmp_path):
    path = tmp_path / "violations.cif"
    path.write_text(write(drc_violations()))
    return str(path)


class TestFlat:
    def test_wirelist_to_stdout(self, inverter_cif, capsys):
        assert main([inverter_cif]) == 0
        out = capsys.readouterr().out
        assert out.startswith('(DefPart "inverter.cif"')
        assert "(Part nEnh" in out

    def test_output_file(self, inverter_cif, tmp_path, capsys):
        target = tmp_path / "out.wl"
        assert main([inverter_cif, "-o", str(target)]) == 0
        assert target.read_text().startswith("(DefPart")
        assert capsys.readouterr().out == ""

    def test_geometry_flag(self, inverter_cif, capsys):
        assert main([inverter_cif, "--geometry"]) == 0
        assert "CIF" in capsys.readouterr().out

    def test_stats_to_stderr(self, inverter_cif, capsys):
        assert main([inverter_cif, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "scanline stops" in err
        assert "devices/sec" in err

    def test_stats_event_counters(self, inverter_cif, capsys):
        assert main([inverter_cif, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "heap pushes" in err
        assert "scans/stop beyond removals" in err

    def test_check_clean(self, inverter_cif, capsys):
        assert main([inverter_cif, "--check"]) == 0

    @pytest.mark.parametrize("deck", ["nmos", "cmos"])
    @pytest.mark.parametrize("lambda_", ["-5", "0"])
    def test_lambda_below_one_is_rejected(
        self, inverter_cif, deck, lambda_, capsys
    ):
        assert main([inverter_cif, "--deck", deck, "--lambda", lambda_]) == 2
        captured = capsys.readouterr()
        assert "lambda must be at least 1" in captured.err
        assert captured.out == ""

    def test_profile_breakdown_to_stderr(self, inverter_cif, capsys):
        assert main([inverter_cif, "--profile"]) == 0
        captured = capsys.readouterr()
        assert "ace profile:" in captured.err
        for phase in ("schedule", "expire", "insert", "strip", "finalize"):
            assert phase in captured.err
        for stage in ("parse", "extract", "wirelist", "unaccounted"):
            assert stage in captured.err
        # The profiler must not leak into the wirelist itself.
        assert "profile" not in captured.out

    def test_profile_with_stream(self, inverter_cif, capsys):
        assert main([inverter_cif, "--stream", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "ace profile:" in err
        assert "emit" in err and "unaccounted" in err

    def test_profile_with_hierarchical(self, inverter_cif, capsys):
        assert main([inverter_cif, "--hierarchical", "--profile"]) == 0
        err = capsys.readouterr().err
        assert "ace profile:" in err
        for phase in ("execute", "compose", "resolve", "unaccounted"):
            assert phase in err

    def test_stats_seconds_cover_wirelist_writing(
        self, inverter_cif, tmp_path, capsys, monkeypatch
    ):
        # --stats prints the run's root wall in every mode, so formatting
        # the flat wirelist text is inside it, as emission is for --stream.
        import re
        import time

        from repro.wirelist import writer

        original = writer.write_flat

        def slow_write_flat(*args, **kwargs):
            time.sleep(0.2)
            return original(*args, **kwargs)

        monkeypatch.setattr(writer, "write_flat", slow_write_flat)
        target = tmp_path / "out.wl"
        assert main([inverter_cif, "--stats", "-o", str(target)]) == 0
        err = capsys.readouterr().err
        seconds = float(re.search(r"nets in ([0-9.]+)s", err).group(1))
        assert seconds >= 0.2

    def test_engine_flag_byte_identical_output(self, inverter_cif, capsys):
        from repro.core.stripengine import numpy_available

        assert main([inverter_cif, "--engine", "python"]) == 0
        python_out = capsys.readouterr().out
        assert main([inverter_cif, "--engine", "auto"]) == 0
        assert capsys.readouterr().out == python_out
        if numpy_available():
            assert main([inverter_cif, "--engine", "numpy"]) == 0
            assert capsys.readouterr().out == python_out

    def test_explicit_numpy_without_numpy_exits_2(
        self, inverter_cif, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.core.stripengine.numpy_available", lambda: False
        )
        assert main([inverter_cif, "--engine", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "repro[fast]" in err

    def test_engine_flag_with_hierarchical(self, inverter_cif, capsys):
        assert main(
            [inverter_cif, "--hierarchical", "--engine", "python"]
        ) == 0
        assert "(DefPart Window1" in capsys.readouterr().out


class TestHierarchical:
    def test_hierarchical_wirelist(self, inverter_cif, capsys):
        assert main([inverter_cif, "--hierarchical"]) == 0
        out = capsys.readouterr().out
        assert "(DefPart Window1" in out

    def test_hier_stats(self, inverter_cif, capsys):
        assert main([inverter_cif, "--hierarchical", "--stats"]) == 0
        assert "flat calls" in capsys.readouterr().err

    def test_cache_flag_warm_run_hits(self, inverter_cif, tmp_path, capsys):
        cache = str(tmp_path / "fragments")
        argv = [inverter_cif, "--hierarchical", "--cache", cache, "--stats"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "fragment cache 0 hits" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "hit rate 100%" in warm.err
        assert warm.out == cold.out  # cached run: byte-identical wirelist

    def test_cache_noted_in_flat_mode(self, inverter_cif, tmp_path, capsys):
        assert main([inverter_cif, "--cache", str(tmp_path / "c")]) == 0
        assert "--hierarchical" in capsys.readouterr().err


class TestCheckFailures:
    def test_malformed_design_fails_check(self, tmp_path, capsys):
        from repro.cif import Layout, write as write_cif
        from repro.geometry import Box

        layout = Layout()
        layout.top.add_box("ND", Box(100, 0, 400, 1200))
        layout.top.add_box("NP", Box(0, 1000, 2400, 2000))
        path = tmp_path / "bad.cif"
        path.write_text(write_cif(layout))
        assert main([str(path), "--check"]) == 1
        assert "malformed" in capsys.readouterr().err


class TestLintFlag:
    def test_clean_layout_passes(self, inverter_cif, capsys):
        assert main([inverter_cif, "--lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().err

    def test_violations_fail_lint(self, violations_cif, capsys):
        assert main([violations_cif, "--lint"]) == 1
        err = capsys.readouterr().err
        for rule in VIOLATION_SNIPPETS:
            assert rule in err

    def test_lint_with_hierarchical_extraction(self, violations_cif, capsys):
        assert main([violations_cif, "--lint", "--hierarchical"]) == 1
        assert "drc.width" in capsys.readouterr().err

    def test_custom_rails_quiet_no_vdd(self, tmp_path, capsys):
        from repro.cif import Label, Layout, write as write_cif
        from repro.geometry import Box

        layout = Layout()
        layout.top.add_box("NM", Box(0, 0, 2500, 750))
        layout.top.add_box("NM", Box(0, 5000, 2500, 5750))
        layout.top.add_label(Label("PWR", 100, 100, "NM"))
        layout.top.add_label(Label("COM", 100, 5100, "NM"))
        path = tmp_path / "rails.cif"
        path.write_text(write_cif(layout))
        assert main([str(path), "--check"]) == 0
        assert "no-vdd" in capsys.readouterr().err
        argv = [str(path), "--check", "--vdd", "PWR", "--gnd", "COM"]
        assert main(argv) == 0
        assert "no-vdd" not in capsys.readouterr().err


class TestReproLint:
    def test_clean_file_exits_zero(self, inverter_cif, capsys):
        assert lint_main([inverter_cif]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_exit_code_is_error_count(self, violations_cif, capsys):
        assert lint_main([violations_cif]) == len(VIOLATION_SNIPPETS)
        out = capsys.readouterr().out
        for rule in VIOLATION_SNIPPETS:
            assert f"[{rule}]" in out

    def test_json_output(self, violations_cif, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = lint_main(
            [violations_cif, "--format", "json", "-o", str(target)]
        )
        assert code == len(VIOLATION_SNIPPETS)
        payload = json.loads(target.read_text())
        (report,) = payload["reports"]
        assert report["artifact"] == violations_cif
        rules = {d["rule"] for d in report["diagnostics"]}
        assert set(VIOLATION_SNIPPETS) <= rules
        assert capsys.readouterr().out == ""

    def test_sarif_output(self, violations_cif, capsys):
        assert lint_main([violations_cif, "--format", "sarif"]) > 0
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert {r["ruleId"] for r in results} >= set(VIOLATION_SNIPPETS)

    def test_baseline_flow(self, violations_cif, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert lint_main(
            [violations_cif, "--write-baseline", str(baseline)]
        ) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert lint_main([violations_cif, "--baseline", str(baseline)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out

    def test_rule_filter(self, violations_cif, capsys):
        assert lint_main([violations_cif, "--rules", "drc.width"]) == 1
        out = capsys.readouterr().out
        assert "[drc.width]" in out
        assert "[drc.spacing]" not in out

    def test_no_drc_no_erc_toggles(self, violations_cif, capsys):
        assert lint_main([violations_cif, "--no-drc"]) == 0
        assert lint_main([violations_cif, "--no-erc"]) == len(
            VIOLATION_SNIPPETS
        )

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in VIOLATION_SNIPPETS:
            assert rule in out
        # ERC and deck-validation ids ride the same catalog.
        assert "floating-gate" in out
        assert "deck.unknown-layer" in out

    def test_missing_file_is_internal_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cif")
        assert lint_main([missing]) == INTERNAL_ERROR_EXIT
        assert "nope.cif" in capsys.readouterr().err

    def test_no_input_files_is_internal_error(self, capsys):
        assert lint_main([]) == INTERNAL_ERROR_EXIT

    @pytest.mark.parametrize("lambda_", ["-250", "0"])
    def test_lambda_below_one_is_internal_error(
        self, violations_cif, lambda_, capsys
    ):
        # Below 1 the width and spacing minima vanish: linting on would
        # report only some of the errors.
        code = lint_main([violations_cif, "--no-erc", "--lambda", lambda_])
        assert code == INTERNAL_ERROR_EXIT
        assert "lambda must be at least 1" in capsys.readouterr().err


class TestDeckSelection:
    @pytest.fixture()
    def cmos_cif(self, tmp_path):
        from repro.workloads.cmos import cmos_inverter

        path = tmp_path / "cmos_inverter.cif"
        path.write_text(write(cmos_inverter()))
        return str(path)

    def test_cmos_deck_lints_cmos_layout(self, cmos_cif, capsys):
        assert lint_main([cmos_cif, "--deck", "cmos"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_deck_from_json_file(self, cmos_cif, capsys):
        from repro.lint import resolve_deck

        deck_path = "src/repro/tech/decks/cmos.json"
        assert resolve_deck(deck_path).name == "cmos"
        assert lint_main([cmos_cif, "--deck", deck_path]) == 0

    def test_lambda_applies_to_a_deck_file(
        self, violations_cif, tmp_path, capsys
    ):
        # The shipped nmos.json is the nmos deck: at any --lambda the
        # two selections must lint identically, and a deck file at an
        # invalid lambda is refused like the builtin.
        runs = []
        for deck in ("nmos", "src/repro/tech/decks/nmos.json"):
            out = tmp_path / "report.json"
            code = lint_main(
                [violations_cif, "--deck", deck, "--lambda", "400",
                 "--format", "json", "-o", str(out)]
            )
            runs.append((code, out.read_text()))
        assert runs[0] == runs[1]
        assert runs[0][0] > len(VIOLATION_SNIPPETS)

        from repro.difftest.cli import main as difftest_main

        deck_file = "src/repro/tech/decks/cmos.json"
        capsys.readouterr()
        assert main(["x.cif", "--deck", deck_file, "--lambda", "0"]) == 2
        assert difftest_main(["--deck", deck_file, "--lambda", "0"]) == 2
        err = capsys.readouterr().err
        assert f"error: --deck {deck_file}: " in err
        assert f"repro-difftest: --deck {deck_file}: " in err
        assert err.count("lambda must be at least 1") == 2

    def test_unknown_deck_is_internal_error(self, inverter_cif, capsys):
        assert (
            lint_main([inverter_cif, "--deck", "bipolar"])
            == INTERNAL_ERROR_EXIT
        )
        assert "bipolar" in capsys.readouterr().err

    def test_deck_rails_drive_erc(self, cmos_cif, capsys):
        # The CMOS deck inherits the default rail spellings; a bogus
        # extra --vdd name must not break rail detection.
        assert lint_main([cmos_cif, "--deck", "cmos", "--vdd", "PWR"]) == 0


class TestCheckDeck:
    SHIPPED = [
        "src/repro/tech/decks/nmos.json",
        "src/repro/tech/decks/cmos.json",
    ]

    def test_shipped_decks_pass(self, capsys):
        assert lint_main(["--check-deck", *self.SHIPPED]) == 0
        out = capsys.readouterr().out
        assert out.count("0 error(s)") == 2

    def test_builtin_deck_via_flag(self, capsys):
        assert lint_main(["--check-deck", "--deck", "cmos"]) == 0

    def test_malformed_deck_fails(self, tmp_path, capsys):
        import json as json_mod

        deck = json_mod.loads(
            open("src/repro/tech/decks/nmos.json").read()
        )
        deck["ignored"] = ["ZZ"]
        path = tmp_path / "bad.json"
        path.write_text(json_mod.dumps(deck))
        code = lint_main(["--check-deck", str(path)])
        assert code > 0
        assert "deck.unknown-layer" in capsys.readouterr().out

    def test_unparsable_deck_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert lint_main(["--check-deck", str(path)]) > 0
        assert "deck.parse" in capsys.readouterr().out

    def test_sarif_output(self, tmp_path, capsys):
        deck = {"name": "x"}
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(deck))
        code = lint_main(["--check-deck", str(path), "--format", "sarif"])
        assert code > 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"]


class TestPlotting:
    def test_ascii_plot_to_stderr(self, inverter_cif, capsys):
        assert main([inverter_cif, "--plot"]) == 0
        err = capsys.readouterr().err
        assert "T" in err  # transistor channels rendered

    def test_svg_written(self, inverter_cif, tmp_path):
        target = tmp_path / "chip.svg"
        assert main([inverter_cif, "--svg", str(target)]) == 0
        assert target.read_text().startswith("<svg")


class TestStreaming:
    def test_stream_stdout_byte_identical_to_flat(
        self, inverter_cif, capsys
    ):
        assert main([inverter_cif]) == 0
        flat = capsys.readouterr().out
        assert main([inverter_cif, "--stream", "--band-height", "500"]) == 0
        assert capsys.readouterr().out == flat

    def test_stream_stats_report_bands(
        self, inverter_cif, tmp_path, capsys
    ):
        target = tmp_path / "out.wl"
        assert main(
            [
                inverter_cif,
                "--stream",
                "--band-height",
                "500",
                "--stats",
                "-o",
                str(target),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "stream:" in err and "bands" in err
        assert target.read_text().startswith("(DefPart")

    def test_checkpoint_then_resume(self, inverter_cif, tmp_path, capsys):
        ck = tmp_path / "sweep.ck"
        base = [
            inverter_cif,
            "--stream",
            "--band-height",
            "500",
            "--checkpoint",
            str(ck),
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert ck.exists()
        assert main([*base, "--resume", "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "(resumed)" in captured.err

    def test_stream_rejects_hierarchical(self, inverter_cif, capsys):
        assert main([inverter_cif, "--stream", "--hierarchical"]) == 2
        assert "flat-only" in capsys.readouterr().err

    def test_stream_rejects_check(self, inverter_cif, capsys):
        assert main([inverter_cif, "--stream", "--check"]) == 2
        assert "in-memory circuit" in capsys.readouterr().err

    def test_resume_without_checkpoint_is_a_usage_error(
        self, inverter_cif, capsys
    ):
        assert main([inverter_cif, "--stream", "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --resume") and "--checkpoint" in err

    def test_band_height_without_stream_is_noted(
        self, inverter_cif, capsys
    ):
        assert main([inverter_cif, "--band-height", "500"]) == 0
        assert "only apply with --stream" in capsys.readouterr().err

    def test_stream_lint_catches_violations(self, violations_cif, capsys):
        assert main([violations_cif, "--stream", "--lint"]) == 1


class TestVersionFlag:
    """Every console script reports the same package version."""

    @pytest.mark.parametrize(
        "prog, entry",
        [
            ("ace-extract", "repro.cli:main"),
            ("repro-lint", "repro.lint:main"),
            ("repro-difftest", "repro.difftest.cli:main"),
            ("repro-serve", "repro.service.cli:serve_main"),
            ("repro-submit", "repro.service.cli:submit_main"),
        ],
    )
    def test_version_exits_zero_with_shared_version(
        self, prog, entry, capsys
    ):
        import importlib

        from repro.cli import package_version

        module_name, function_name = entry.split(":")
        entry_main = getattr(
            importlib.import_module(module_name), function_name
        )
        with pytest.raises(SystemExit) as info:
            entry_main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith(package_version())

    def test_package_version_is_nonempty(self):
        from repro.cli import package_version

        assert package_version()
