"""Checkpoint serialization: round-trip fidelity and identity checks.

A checkpoint is only trustworthy if restoring it reproduces the paused
sweep *exactly* — same ScanStats counters, same suspension state, same
eventual bytes.  These tests pause a real sweep mid-chip, round-trip
the host snapshot through a fresh engine, and also drive the full
save/load/resume path end to end.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scanline import ScanlineEngine
from repro.frontend import GeometryStream
from repro.streaming import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    stream_extract,
)
from repro.workloads.mesh import poly_diff_mesh
from tests.golden.cases import GOLDEN_CASES

from .harness import ENGINES, TECH, chip_height, expected_text

nand2 = GOLDEN_CASES["nand2"]

#: Layouts the scratch-rebuild property samples: a golden cell with
#: contacts/labels/implants, and the dense mesh whose sweep lives on
#: the columnar host's persistent-buffer fast paths.
_PROPERTY_LAYOUTS = {
    "nand2": nand2,
    "mesh8": lambda: poly_diff_mesh(8),
}


def paused_engine(engine: str) -> ScanlineEngine:
    """An engine suspended mid-sweep (roughly half the chip consumed)."""
    layout = nand2()
    stream = GeometryStream(layout)
    bbox = stream.chip_bbox
    scan = ScanlineEngine(TECH, engine=engine)
    more = scan.advance(stream, (bbox.ymax + bbox.ymin) // 2)
    assert more, "the sweep should pause mid-chip, not exhaust"
    return scan


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_roundtrip_is_exact(engine):
    scan = paused_engine(engine)
    snap = scan.snapshot_state()
    restored = ScanlineEngine(TECH, engine=engine)
    restored.restore_state(snap)
    assert restored.snapshot_state() == snap


def _advanced_to(engine: str, layout, y: int) -> ScanlineEngine:
    scan = ScanlineEngine(TECH, engine=engine)
    scan.advance(GeometryStream(layout), y)
    return scan


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_PROPERTY_LAYOUTS)),
    frac=st.floats(min_value=0.02, max_value=0.98),
)
def test_restore_is_bit_identical_to_scratch_rebuild(engine, name, frac):
    """Snapshot/restore equals a from-scratch sweep paused at the same y.

    The host keeps per-layer active intervals in persistent columnar
    buffers that are updated incrementally across the whole sweep; this
    pins down that a restored host carries *no* incidental buffer state
    a fresh host would lack (and vice versa) at any pause point.
    """
    layout = _PROPERTY_LAYOUTS[name]()
    bbox = GeometryStream(layout).chip_bbox
    y = int(bbox.ymin + frac * (bbox.ymax - bbox.ymin))
    scratch = _advanced_to(engine, layout, y)
    snap = _advanced_to(engine, layout, y).snapshot_state()
    assert snap == scratch.snapshot_state()
    restored = ScanlineEngine(TECH, engine=engine)
    restored.restore_state(snap)
    assert restored.snapshot_state() == scratch.snapshot_state()


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_restores_scanstats_counters(engine):
    scan = paused_engine(engine)
    restored = ScanlineEngine(TECH, engine=engine)
    restored.restore_state(scan.snapshot_state())
    for field in dataclasses.fields(scan.stats):
        assert getattr(restored.stats, field.name) == getattr(
            scan.stats, field.name
        ), f"counter {field.name} did not survive the round trip"


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_survives_json(engine, tmp_path):
    """The snapshot must survive the actual serialization format used."""
    scan = paused_engine(engine)
    snap = scan.snapshot_state()
    path = tmp_path / "ck.json"
    save_checkpoint(path, {"host": snap})
    restored = ScanlineEngine(TECH, engine=engine)
    restored.restore_state(load_checkpoint(path)["host"])
    assert restored.snapshot_state() == snap


@pytest.mark.parametrize("engine", ENGINES)
def test_resume_completes_to_identical_bytes(engine, tmp_path):
    """Full path: checkpointed run, then resume replays the tail."""
    layout = nand2()
    expected = expected_text(layout)
    band_height = max(1, chip_height(layout) // 7)
    ck = tmp_path / "sweep.ck"
    first = stream_extract(
        layout,
        TECH,
        name="case",
        engine=engine,
        band_height=band_height,
        checkpoint=str(ck),
    )
    assert first.text == expected
    assert ck.exists()
    resumed = stream_extract(
        layout,
        TECH,
        name="case",
        engine=engine,
        band_height=band_height,
        checkpoint=str(ck),
        resume=True,
    )
    assert resumed.resumed
    assert resumed.text == expected
    for field in dataclasses.fields(first.stats):
        assert getattr(resumed.stats, field.name) == getattr(
            first.stats, field.name
        ), f"resumed ScanStats.{field.name} diverged"


def test_resume_refuses_option_mismatch(tmp_path):
    layout = nand2()
    ck = tmp_path / "sweep.ck"
    stream_extract(
        layout, TECH, band_height=1000, checkpoint=str(ck)
    )
    with pytest.raises(CheckpointError, match="options"):
        stream_extract(
            layout,
            TECH,
            band_height=1000,
            checkpoint=str(ck),
            resume=True,
            keep_geometry=True,
        )


def test_resume_refuses_layout_mismatch(tmp_path):
    ck = tmp_path / "sweep.ck"
    stream_extract(
        nand2(), TECH, band_height=1000, checkpoint=str(ck)
    )
    with pytest.raises(CheckpointError, match="layout"):
        stream_extract(
            GOLDEN_CASES["inverter"](),
            TECH,
            band_height=1000,
            checkpoint=str(ck),
            resume=True,
        )


def test_resume_refuses_corrupt_checkpoint(tmp_path):
    ck = tmp_path / "sweep.ck"
    stream_extract(nand2(), TECH, band_height=1000, checkpoint=str(ck))
    text = ck.read_text()
    ck.write_text(text.replace('"band"', '"bend"', 1))
    with pytest.raises(CheckpointError):
        stream_extract(
            nand2(),
            TECH,
            band_height=1000,
            checkpoint=str(ck),
            resume=True,
        )


def test_resume_without_checkpoint_path_rejected():
    with pytest.raises(ValueError, match="checkpoint"):
        stream_extract(nand2(), TECH, resume=True)


def test_resume_auto_starts_fresh_without_file(tmp_path):
    """``resume="auto"`` with no checkpoint on disk is a fresh sweep."""
    layout = nand2()
    report = stream_extract(
        layout,
        TECH,
        name="case",
        band_height=1000,
        checkpoint=str(tmp_path / "none-yet.ck"),
        resume="auto",
    )
    assert not report.resumed
    assert report.text == expected_text(layout)


def test_checkpoint_state_text_is_the_canonical_body(tmp_path):
    from repro.parallel.serialize import canonical_json

    state = {"band": 3, "floors": [9, None], "host": {"y": 1, "b": [2]}}
    path = tmp_path / "sweep.ck"
    save_checkpoint(path, state)
    text = path.read_text()
    assert text.endswith(f'"state": {canonical_json(state)}}}')
    assert load_checkpoint(path) == state
