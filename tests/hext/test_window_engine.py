"""The strip engine each primitive window runs on.

Under ``auto`` a window of fewer than ``NUMPY_WINDOW_BOXES`` boxes runs
on python and any other on ``resolve_engine("auto")``; ``python`` and
``numpy`` run every window.  The engines write byte-identical
fragments, so the choice never moves an output byte.
"""

from __future__ import annotations

import pytest

from repro.cif import Layout
from repro.core.stripengine import numpy_available
from repro.difftest.generator import GenProfile, generate_layout
from repro.geometry import Transform
from repro.hext import HextStats, hext_extract
from repro.hext.extractor import NUMPY_WINDOW_BOXES
from repro.hext.wirelist import to_hierarchical_wirelist
from repro.tech import NMOS
from repro.wirelist import write_wirelist
from repro.workloads import build_chip
from repro.workloads.chips import CHIP_SPECS
from repro.workloads.mesh import poly_diff_mesh

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy strip engine not importable"
)
ENGINES = ("auto", "python") + (("numpy",) if numpy_available() else ())

#: poly_diff_mesh(n) draws 2n boxes: one size either side of the crossover.
BELOW, AT = NUMPY_WINDOW_BOXES // 2 - 1, NUMPY_WINDOW_BOXES // 2
MESHES = (4, BELOW, AT, 16)

#: Cells of 4-12 motifs, so a fuzzed plan holds windows on both sides
#: of the crossover.
BIG_CELLS = GenProfile(min_motifs=4, max_motifs=12)


def _two_windows() -> Layout:
    """A mesh window below the crossover beside one at it."""
    layout = Layout()
    for number, n in ((1, BELOW - 1), (2, AT)):
        cell = layout.define(number)
        for layer, box in poly_diff_mesh(n).top.boxes:
            cell.add_box(layer, box)
    layout.top.add_call(1, Transform.identity())
    layout.top.add_call(2, Transform.translation(100_000, 0))
    return layout


def _hext_text(layout: Layout, engine: str, **kwargs) -> "tuple[str, HextStats]":
    result = hext_extract(layout, NMOS(), engine=engine, **kwargs)
    text = write_wirelist(to_hierarchical_wirelist(result, name="chip"))
    return text, result.stats


def _same_bytes_on_every_engine(layout: Layout) -> dict:
    """The wirelist every engine setting writes, checked equal; returns
    the ``auto`` run's per-engine window counts."""
    texts, stats = {}, {}
    for engine in ENGINES:
        texts[engine], stats[engine] = _hext_text(layout, engine)
    assert len(set(texts.values())) == 1
    return stats["auto"].engine_calls


class TestChoice:
    @needs_numpy
    def test_auto_runs_small_windows_on_python(self):
        _, stats = _hext_text(_two_windows(), "auto")
        assert stats.engine_calls == {"python": 1, "numpy": 1}
        assert stats.flat_calls == 2

    @pytest.mark.parametrize("n, engine", [(BELOW, "python"), (AT, "numpy")])
    @needs_numpy
    def test_crossover_is_a_box_count(self, n, engine):
        _, stats = _hext_text(poly_diff_mesh(n), "auto")
        assert stats.engine_calls == {engine: 1}

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_explicit_engine_runs_every_window(self, engine):
        _, stats = _hext_text(_two_windows(), engine)
        assert stats.engine_calls == {engine: 2}
        assert stats.flat_calls == 2

    def test_without_numpy_auto_is_python(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.stripengine.numpy_available", lambda: False
        )
        _, stats = _hext_text(_two_windows(), "auto")
        assert stats.engine_calls == {"python": 2}


class TestSameBytes:
    def test_fuzzed_hierarchies(self):
        mixed = 0
        for seed in range(40):
            layout = generate_layout(seed, profile=BIG_CELLS).layout
            calls = _same_bytes_on_every_engine(layout)
            mixed += len(calls) == 2
        if numpy_available():
            assert mixed >= 5  # the profile exercises mixed plans

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
    cold, _ = _hext_text(layout, "python", cache=str(tmp_path))
    warm, stats = _hext_text(layout, "auto", cache=str(tmp_path))
    assert warm == cold
    assert stats.cache_hits == 2 and stats.cache_misses == 0
    assert stats.flat_calls == 0 and stats.engine_calls == {}
