"""The strip engine each primitive window runs on.

Every primitive window runs on the python strip engine, whatever engine
the run asks for (``ace-extract --engine``, ``pipeline.run(engine=)``):
a window sweep never resolves the request, so ``auto`` imports no numpy
for it.  The request therefore never moves an output byte.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest

from repro.cif import Layout
from repro.core.scanline import ScanlineEngine
from repro.core.stripengine import numpy_available
from repro.difftest.generator import GenProfile, generate_layout
from repro.geometry import Transform
from repro.hext import HextStats
from repro.pipeline import JobOptions, run
from repro.tech import NMOS
from repro.workloads import build_chip
from repro.workloads.chips import CHIP_SPECS
from repro.workloads.mesh import poly_diff_mesh

ENGINES = ("auto", "python") + (("numpy",) if numpy_available() else ())

#: poly_diff_mesh(n) draws 2n boxes: sizes either side of 24 boxes, the
#: window at which numpy draws level with python (EXPERIMENTS.md,
#: "Beyond the paper -- HEXT's front half").
BELOW, AT = 11, 12
MESHES = (4, BELOW, AT, 16)

#: Cells of 4-12 motifs, so a fuzzed plan holds windows of many sizes.
BIG_CELLS = GenProfile(min_motifs=4, max_motifs=12)


def _two_windows() -> Layout:
    """A mesh window below 24 boxes beside one at it."""
    layout = Layout()
    for number, n in ((1, BELOW - 1), (2, AT)):
        cell = layout.define(number)
        for layer, box in poly_diff_mesh(n).top.boxes:
            cell.add_box(layer, box)
    layout.top.add_call(1, Transform.identity())
    layout.top.add_call(2, Transform.translation(100_000, 0))
    return layout


def _hext_text(
    layout: Layout, engine: str, **kwargs
) -> "tuple[str, HextStats, Counter]":
    """A hierarchical run asked for ``engine``: its wirelist, its stats,
    and the strip engine each extracted window ran on, counted."""
    ran: Counter = Counter()

    def recording(*args, **kw):
        scan = ScanlineEngine(*args, **kw)
        ran[scan.engine_name] += 1
        return scan

    with mock.patch("repro.hext.extractor.ScanlineEngine", recording):
        result = run(
            layout,
            NMOS(),
            JobOptions(name="chip", hext=True),
            engine=engine,
            **kwargs,
        )
    return result.text, result.stats, ran


def _same_bytes_on_every_engine(layout: Layout) -> None:
    """Every engine request writes one wirelist, every window on python."""
    texts = set()
    for engine in ENGINES:
        text, stats, ran = _hext_text(layout, engine)
        texts.add(text)
        assert ran == Counter(python=stats.flat_calls), engine
    assert len(texts) == 1


class TestChoice:
    def test_auto_runs_small_windows_on_python(self):
        _, stats, ran = _hext_text(_two_windows(), "auto")
        assert ran == {"python": 2}
        assert stats.flat_calls == 2

    def test_without_numpy_auto_is_python(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.stripengine.numpy_available", lambda: False
        )
        _, _, ran = _hext_text(_two_windows(), "auto")
        assert ran == {"python": 2}


class TestSameBytes:
    def test_fuzzed_hierarchies(self):
        for seed in range(40):
            _same_bytes_on_every_engine(
                generate_layout(seed, profile=BIG_CELLS).layout
            )

    @pytest.mark.parametrize("chip", [spec.name for spec in CHIP_SPECS])
    def test_suite_at_1_32(self, chip):
        _same_bytes_on_every_engine(build_chip(chip, 1 / 32))

    @pytest.mark.parametrize("n", MESHES)
    def test_mesh_across_the_crossover(self, n):
        _same_bytes_on_every_engine(poly_diff_mesh(n))

    def test_mixed_plan(self):
        _same_bytes_on_every_engine(_two_windows())


def test_python_filled_cache_serves_auto(tmp_path):
    layout = _two_windows()
    cold, _, _ = _hext_text(layout, "python", cache=str(tmp_path))
    warm, stats, ran = _hext_text(layout, "auto", cache=str(tmp_path))
    assert warm == cold
    assert stats.cache_hits == 2 and stats.cache_misses == 0
    assert stats.flat_calls == 0 and not ran
