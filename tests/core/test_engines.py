"""Strip-engine selection and cross-engine parity.

The contract under test is docs/ENGINES.md's: engine choice is purely a
speed knob — ``auto`` silently degrades to python when numpy is absent,
an *explicit* numpy request without numpy is a clean error, and every
engine produces byte-identical wirelists and identical host counters.
Window and keep-geometry sweeps run on python whatever is asked for.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cif import Layout, parse, write
from repro.core import extract, extract_report
from repro.core.scanline import ScanlineEngine
from repro.core.stripengine import (
    ENGINE_CHOICES,
    EngineUnavailable,
    numpy_available,
    resolve_engine,
)
from repro.difftest.generator import generate_layout, iteration_seed
from repro.frontend.stream import GeometryStream
from repro.geometry import Box, Transform
from repro.pipeline import JobOptions, run
from repro.tech import NMOS
from repro.wirelist import to_wirelist, write_wirelist
from repro.workloads import build_chip
from repro.workloads.cells import inverter, nand2
from repro.workloads.mesh import poly_diff_mesh

from tests.golden.cases import GOLDEN_CASES, render_case, tech_for

TECH = NMOS()

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy strip engine not importable"
)

#: Every strip engine importable in this interpreter.
ENGINES = ["python"] + (["numpy"] if numpy_available() else [])


def turned_mesh(n: int) -> Layout:
    """``poly_diff_mesh(n)`` placed through a call turned 90 degrees.

    Diffusion runs horizontally under vertical poly, with no contacts:
    every strip either holds no diffusion or follows one that holds
    none, so no strip binds to the one above it.
    """
    layout = Layout()
    layout.define(1).boxes.extend(poly_diff_mesh(n).top.boxes)
    layout.top.add_call(1, Transform.rotation(0, 1))
    return layout


def box_edges(layout: Layout) -> list[int]:
    """Every distinct box top and bottom, descending: the sweep's stops."""
    stream = GeometryStream(layout)
    edges: set[int] = set()
    y = stream.next_top()
    while y is not None:
        for _, _, ybot, _ in stream.fetch(y):
            edges.update((ybot, y))
        y = stream.next_top()
    return sorted(edges, reverse=True)


class TestResolveEngine:
    def test_choices_are_the_public_knob(self):
        assert ENGINE_CHOICES == ("auto", "python", "numpy")

    def test_python_always_resolves(self):
        assert resolve_engine("python") == "python"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown strip engine"):
            resolve_engine("fortran")

    def test_auto_prefers_numpy_when_available(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.stripengine.numpy_available", lambda: True
        )
        assert resolve_engine("auto") == "numpy"

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.stripengine.numpy_available", lambda: False
        )
        assert resolve_engine("auto") == "python"

    def test_explicit_numpy_without_numpy_is_clean_error(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.stripengine.numpy_available", lambda: False
        )
        with pytest.raises(EngineUnavailable, match="repro\\[fast\\]"):
            resolve_engine("numpy")

    def test_scanline_engine_records_resolved_name(self):
        engine = ScanlineEngine(TECH, engine="python")
        assert engine.engine_name == "python"

    def test_extract_report_records_engine(self):
        report = extract_report(inverter(), TECH, engine="python")
        assert report.options["engine"] == "python"


@requires_numpy
class TestCrossEngineParity:
    """Byte-identical wirelists and identical counters on both engines."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_goldens_byte_identical(self, name):
        assert render_case(name, "python") == render_case(name, "numpy")

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_goldens_byte_identical_without_geometry(self, name):
        # The goldens keep geometry, so they run on python alone; here
        # numpy extracts the same cells.
        layout = GOLDEN_CASES[name]()
        tech = tech_for(name)
        reports = {
            eng: extract_report(layout, tech, engine=eng)
            for eng in ("python", "numpy")
        }
        assert reports["numpy"].options["engine"] == "numpy"
        texts = [
            write_wirelist(
                to_wirelist(report.circuit, name=name, tech=tech)
            )
            for report in reports.values()
        ]
        assert texts[0] == texts[1]

    def test_mesh_parity_with_stats(self):
        for layout in (poly_diff_mesh(12), turned_mesh(12)):
            reports = {
                eng: extract_report(layout, TECH, engine=eng)
                for eng in ("python", "numpy")
            }
            texts = {
                eng: write_wirelist(to_wirelist(rep.circuit, name="mesh"))
                for eng, rep in reports.items()
            }
            assert texts["python"] == texts["numpy"]
            # The host owns the event machinery, so ScanStats must match
            # field for field -- any drift means an engine skipped or
            # repeated strip work.
            assert vars(reports["python"].stats) == vars(
                reports["numpy"].stats
            )

    @pytest.mark.parametrize(
        "layout",
        [poly_diff_mesh(6), turned_mesh(6), nand2()],
        ids=["mesh", "turned-mesh", "nand2"],
    )
    def test_finalize_columns_agree(self, layout):
        # The column contract itself, not just the text it renders to:
        # every column and the CSR lists.
        cols = [
            ScanlineEngine(TECH, engine=eng).run(GeometryStream(layout))
            for eng in ("python", "numpy")
        ]
        py, fast = (c.device_columns for c in cols)
        for name in (
            "kinds", "depletion", "gate", "source", "drain", "length",
            "width", "x", "y", "area", "term_ptr", "gate_ptr", "gate_net",
        ):
            assert getattr(py, name) == getattr(fast, name), name
        # Terminal order within a row is the engine's own; the sets match.
        assert [py.device(i).terminals for i in range(len(py))] == [
            fast.device(i).terminals for i in range(len(fast))
        ]
        py_nets, fast_nets = (c.net_columns for c in cols)
        assert (py_nets.x, py_nets.y, py_nets.names) == (
            fast_nets.x, fast_nets.y, fast_nets.names
        )

    def test_parity_on_fuzzed_layouts(self):
        # Fuzzed layouts reach corners the goldens do not.
        for index in range(50):
            case = generate_layout(iteration_seed(1983, index))
            texts = [
                write_wirelist(
                    to_wirelist(
                        extract(case.layout, TECH, engine=eng),
                        name="case",
                        tech=TECH,
                    )
                )
                for eng in ("python", "numpy")
            ]
            assert texts[0] == texts[1], f"seed {case.seed}"

    def test_hext_parity(self):
        # A hierarchical run's windows run on python under either request.
        texts = [
            run(
                nand2(), TECH, JobOptions(name="nand2", hext=True), engine=eng
            ).text
            for eng in ("python", "numpy")
        ]
        assert texts[0] == texts[1]

    def test_label_and_warning_parity(self):
        source = """
        DS 1;
        L NP; B 40 8 20 16;
        L ND; B 8 40 12 28;
        L NM; B 10 10 60 60;
        94 IN 4 16 NP;
        94 FLOAT 60 60 NM;
        DF;
        C 1;
        E
        """
        layout = parse(source)
        circuits = {
            eng: extract(layout, TECH, engine=eng)
            for eng in ("python", "numpy")
        }
        assert (
            circuits["python"].warnings == circuits["numpy"].warnings
        )
        assert write_wirelist(
            to_wirelist(circuits["python"], name="l")
        ) == write_wirelist(to_wirelist(circuits["numpy"], name="l"))


class TestReferenceSweeps:
    """Window and keep-geometry sweeps run on python, whatever is asked."""

    @pytest.mark.parametrize(
        "layout, kwargs",
        [
            (inverter(), {"window": Box(0, 0, 10, 14)}),
            (nand2(), {"keep_geometry": True}),
            (poly_diff_mesh(6), {"keep_geometry": True}),
        ],
        ids=["window", "geometry-nand2", "geometry-mesh"],
    )
    def test_numpy_request_runs_python(self, layout, kwargs):
        results = []
        for eng in ENGINE_CHOICES:
            if "window" in kwargs:
                # HEXT's modified ACE: the host closed by finish_window.
                scan = ScanlineEngine(TECH, engine=eng, **kwargs)
                assert scan.engine_name == "python", eng
                scan.advance(GeometryStream(layout))
                results.append(scan.finish_window())
                continue
            report = extract_report(layout, TECH, engine=eng, **kwargs)
            assert report.options["engine"] == "python", eng
            results.append(
                write_wirelist(
                    to_wirelist(report.circuit, name="case", tech=TECH)
                )
            )
        assert all(result == results[0] for result in results)

    def test_unknown_engine_still_refused(self):
        with pytest.raises(ValueError, match="unknown strip engine"):
            ScanlineEngine(TECH, keep_geometry=True, engine="fortran")

    @pytest.mark.parametrize("flag", ["--hierarchical", "--geometry"])
    def test_cli_run_leaves_numpy_unimported(self, flag, tmp_path):
        cif = tmp_path / "testram.cif"
        cif.write_text(write(build_chip("testram", 1 / 32)))
        probe = (
            "import sys; from repro.cli import main; "
            f"code = main([{str(cif)!r}, {flag!r}, '-o', {os.devnull!r}]); "
            "print(code, 'numpy' in sys.modules)"
        )
        src = Path(__file__).parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout.split() == ["0", "False"]


class TestOneStripPath:
    """The host hands every strip to ``process_strip`` and nothing else."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "layout",
        [turned_mesh(6), poly_diff_mesh(6), inverter(), nand2()],
        ids=["turned-mesh", "mesh", "inverter", "nand2"],
    )
    def test_every_strip_once_top_to_bottom(self, layout, engine):
        scan = ScanlineEngine(TECH, engine=engine)
        strip_engine = scan.strip_engine
        process_strip = strip_engine.process_strip
        seen: list[tuple[int, int]] = []

        def record(y_lo, y_hi, stream):
            seen.append((y_lo, y_hi))
            process_strip(y_lo, y_hi, stream)

        strip_engine.process_strip = record
        scan.run(GeometryStream(layout))
        stops = box_edges(layout)
        assert scan.stats.stops == len(stops)
        assert seen == list(zip(stops[1:], stops[:-1]))
