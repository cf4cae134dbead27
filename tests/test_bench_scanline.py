"""The scanline micro-benchmark module (quick sizes only)."""

from __future__ import annotations

import json

import pytest

from repro.bench.scanline import (
    BaselineError,
    bench_scanline,
    check_rows,
    load_baseline,
    load_baseline_overheads,
    main,
    resolve_bench_engines,
)
from repro.core.scanline import PROFILE_PHASES
from repro.core.stripengine import numpy_available


def _never_called(*args, **kwargs):
    raise AssertionError("the benchmark ran")


class TestBenchScanline:
    def test_rows_have_counters_and_speedup(self):
        rows = bench_scanline(
            sizes=(8, 16), repeats=1, baseline={8: 1.0},
            engines=["python"],
        )
        assert [row["n"] for row in rows] == [8, 16]
        first = rows[0]
        assert first["engine"] == "python"
        assert first["speedup"] == 1.0 / first["seconds"]
        assert rows[1]["speedup"] is None  # size missing from baseline
        for row in rows:
            assert row["devices"] == row["n"] ** 2
            assert row["counters"]["heap_pushes"] > 0
            # Python rows carry the identity comparison, never null, so
            # report consumers can bound the column uniformly.
            assert row["speedup_vs_python"] == 1.0
            # Every row carries the phases of its own timed run.
            assert set(row["profile"]) == set(PROFILE_PHASES)

    def test_invariants_hold_on_real_runs(self):
        rows = bench_scanline(sizes=(8, 16), repeats=1, baseline={})
        assert check_rows(rows) == []

    def test_check_rows_flags_violations(self):
        rows = bench_scanline(
            sizes=(8,), repeats=1, baseline={}, engines=["python"]
        )
        rows[0]["counters"]["heap_pops"] += 1
        problems = check_rows(rows)
        assert any("pushes" in p for p in problems)

    def test_check_rows_flags_engine_counter_divergence(self):
        row = bench_scanline(
            sizes=(8,), repeats=1, baseline={}, engines=["python"]
        )[0]
        rogue = {**row, "engine": "numpy",
                 "counters": {**row["counters"]}}
        rogue["counters"]["intervals_scanned"] += 1
        problems = check_rows([row, rogue])
        assert any("diverge" in p for p in problems)

    def test_committed_baseline_loads(self):
        baseline = load_baseline()
        assert len(baseline) >= 3
        assert all(seconds > 0 for seconds in baseline.values())

    def test_committed_baseline_has_overhead_bounds(self):
        bounds = load_baseline_overheads()
        assert bounds  # the committed capture carries the new field
        assert all(bound >= 1 for bound in bounds.values())

    def test_overhead_bounds_tolerate_legacy_captures(self, tmp_path):
        legacy = tmp_path / "old.json"
        legacy.write_text(
            json.dumps({"rows": [{"n": 8, "seconds": 1.0}]})
        )
        assert load_baseline(legacy) == {8: 1.0}
        assert load_baseline_overheads(legacy) == {}

    def test_check_rows_flags_overhead_regression(self):
        rows = bench_scanline(
            sizes=(8,), repeats=1, baseline={}, engines=["python"]
        )
        overhead = rows[0]["counters"]["max_stop_overhead"]
        assert check_rows(rows, overhead_bounds={8: overhead}) == []
        problems = check_rows(rows, overhead_bounds={8: overhead - 1})
        assert any("baseline bound" in p for p in problems)

    def test_profile_rows_cover_every_phase(self):
        rows = bench_scanline(
            sizes=(8,), repeats=1, baseline={}, engines=["python"]
        )
        profile = rows[0]["profile"]
        assert set(profile) == set(PROFILE_PHASES)
        assert all(seconds >= 0.0 for seconds in profile.values())

    def test_profile_rows_reconcile_with_their_own_wall(self):
        rows = bench_scanline(
            sizes=(8,), repeats=2, baseline={}, engines=["python"]
        )
        row = rows[0]
        assert row["seconds"] > 0.0
        assert 0.0 < sum(row["profile"].values()) <= row["seconds"]
        assert check_rows(rows) == []
        # Phases that outgrow the timed run's wall are a timer bug.
        row["profile"]["strip"] += row["seconds"]
        assert any("phases add up" in p for p in check_rows(rows))

    def test_main_profile_writes_sibling_artifact(self, tmp_path):
        out = tmp_path / "BENCH_scanline.json"
        assert main(["--sizes", "8", "--repeats", "1",
                     "--out", str(out), "--profile"]) == 0
        sibling = tmp_path / "BENCH_scanline_profile.json"
        payload = json.loads(sibling.read_text())
        assert payload["phases"] == list(PROFILE_PHASES)
        assert payload["rows"][0]["n"] == 8
        assert set(payload["rows"][0]["profile"]) == set(PROFILE_PHASES)
        # The main report rows carry the same breakdown inline.
        report = json.loads(out.read_text())
        assert set(report["rows"][0]["profile"]) == set(PROFILE_PHASES)

    def test_main_creates_missing_out_directory(self, tmp_path):
        out = tmp_path / "missing" / "deeper" / "x.json"
        assert main(["--sizes", "8", "--repeats", "1", "--engine",
                     "python", "--out", str(out), "--profile"]) == 0
        assert json.loads(out.read_text())["rows"][0]["n"] == 8
        assert (out.parent / "x_profile.json").is_file()

    def test_main_refuses_uncreatable_out_before_running(
        self, tmp_path, capsys, monkeypatch
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(
            "repro.bench.scanline.bench_scanline", _never_called
        )
        code = main(["--sizes", "8", "--repeats", "1", "--engine",
                     "python", "--out", str(blocker / "x.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot create" in captured.err
        assert "Traceback" not in captured.err

    def test_main_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scanline.json"
        assert main(["--sizes", "8", "--repeats", "1",
                     "--out", str(out), "--check"]) == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["n"] == 8
        assert payload["rows"][0]["engine"] == "python"
        assert "invariants hold" in capsys.readouterr().out


class TestEngineAxis:
    def test_both_always_includes_python(self):
        engines, _ = resolve_bench_engines("both")
        assert engines[0] == "python"

    def test_both_matches_numpy_availability(self):
        engines, notes = resolve_bench_engines("both")
        if numpy_available():
            assert engines == ["python", "numpy"]
            assert notes == []
        else:
            assert engines == ["python"]
            assert any("numpy" in note for note in notes)

    @pytest.mark.skipif(
        not numpy_available(), reason="numpy strip engine not importable"
    )
    def test_cross_engine_rows_and_speedup(self):
        rows = bench_scanline(
            sizes=(8,), repeats=1, baseline={},
            engines=["python", "numpy"],
        )
        assert [r["engine"] for r in rows] == ["python", "numpy"]
        py, np_ = rows
        assert py["speedup_vs_python"] == 1.0
        assert np_["speedup_vs_python"] == pytest.approx(
            py["seconds"] / np_["seconds"]
        )
        # Host counters are engine-independent -- the implicit parity
        # probe check_rows enforces.
        assert py["counters"] == np_["counters"]
        assert check_rows(rows) == []


class TestBaselineErrors:
    def test_missing_capture_is_a_clear_error(self, tmp_path):
        with pytest.raises(BaselineError, match="not found"):
            load_baseline(tmp_path / "nope.json")

    def test_invalid_json_is_a_clear_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BaselineError, match="not valid JSON"):
            load_baseline(bad)

    def test_schema_mismatch_is_a_clear_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [{"mesh": 8}]}))
        with pytest.raises(BaselineError, match="capture\\s+schema"):
            load_baseline(bad)

    def test_main_exits_2_with_message_not_traceback(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "gone.json"
        code = main(
            ["--sizes", "8", "--repeats", "1", "--baseline", str(missing),
             "--out", str(tmp_path / "out.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
