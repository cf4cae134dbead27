"""Checkpoint and resume: replay fidelity, size and identity checks.

A checkpoint records the band plan and how many bands are committed;
resuming replays the committed bands in memory.  It is only
trustworthy if the resumed sweep ends exactly where an uninterrupted
one does: same bytes, same ScanStats counters, same spill files, and no
band spilled twice.  These tests abort real sweeps after every band,
resume them, and also drive the full save/load/resume path end to end.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.streaming import (
    CheckpointError,
    SpillStore,
    load_checkpoint,
    save_checkpoint,
    stream_extract,
)
from repro.streaming.checkpoint import CHECKPOINT_FORMAT
from repro.tech import CMOS
from repro.workloads import inverter_rows
from repro.workloads.mesh import poly_diff_mesh
from tests.golden.cases import GOLDEN_CASES

from .harness import ENGINES, TECH, chip_height, expected_text

nand2 = GOLDEN_CASES["nand2"]

#: Layouts the abort-and-resume test sweeps: a golden cell with
#: contacts/labels/implants, and the dense mesh whose sweep lives on
#: the columnar host's persistent-buffer fast paths.
_RESUME_LAYOUTS = {
    "nand2": nand2,
    "mesh8": lambda: poly_diff_mesh(8),
}


class Cancelled(Exception):
    """Raised from a progress callback, as a cancelled daemon job does."""


def sweep_plan(layout, engine: str) -> dict:
    """Stream options for a sweep of ``layout`` in about seven bands."""
    return {
        "name": "case",
        "engine": engine,
        "band_height": max(1, chip_height(layout) // 7),
    }


def abort_after(layout, plan: dict, ck: Path, k: int, **options) -> None:
    """Run a checkpointed sweep that a cancel aborts after band ``k``.

    Band ``k`` is spilled but not committed when its progress callback
    raises, so the checkpoint is left holding ``k`` committed bands (and
    is not written at all for ``k == 0``).
    """

    def cancel_after_k(done, total, stats):
        if done == k + 1:
            raise Cancelled

    with pytest.raises(Cancelled):
        stream_extract(
            layout, TECH, checkpoint=str(ck), progress=cancel_after_k,
            **plan, **options,
        )


def spill_files(root: Path) -> "dict[str, bytes]":
    """Every file under a spill directory, by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def stats_per_band(layout, plan: dict, **options) -> list:
    """``(done, total, ScanStats)`` as the progress callback saw them."""
    seen: list = []

    def record(done, total, stats):
        seen.append((done, total, dataclasses.asdict(stats)))

    stream_extract(layout, TECH, progress=record, **plan, **options)
    return seen


def recorded_spills(monkeypatch) -> "list[int]":
    """Record the band of every ``SpillStore.put_band`` call."""
    bands: list[int] = []
    put_band = SpillStore.put_band

    def recording(store, band, *args):
        bands.append(band)
        return put_band(store, band, *args)

    monkeypatch.setattr(SpillStore, "put_band", recording)
    return bands


@pytest.mark.parametrize("name", sorted(_RESUME_LAYOUTS))
@pytest.mark.parametrize("engine", ENGINES)
def test_resume_after_every_band(engine, name, tmp_path, monkeypatch):
    """An abort after any band k resumes to the uninterrupted run.

    The checkpoint holds k committed bands after the abort.  The resume
    replays those without spilling them again and ends with the same
    bytes and every ScanStats counter equal.
    """
    layout = _RESUME_LAYOUTS[name]()
    plan = sweep_plan(layout, engine)
    spilled = recorded_spills(monkeypatch)
    whole = stream_extract(layout, TECH, **plan)
    whole_spills = list(spilled)
    assert whole.text == expected_text(layout)
    assert whole.bands > 2

    for k in range(whole.bands):
        ck = tmp_path / f"abort-{k}.ck"
        abort_after(layout, plan, ck, k)
        committed = load_checkpoint(ck)["band"] if ck.exists() else 0
        assert committed == k
        spilled.clear()
        resumed = stream_extract(
            layout, TECH, checkpoint=str(ck), resume="auto", **plan
        )
        assert resumed.resumed == (k > 0)
        assert resumed.text == whole.text, f"abort after band {k}"
        assert dataclasses.asdict(resumed.stats) == dataclasses.asdict(
            whole.stats
        ), f"ScanStats diverged after an abort at band {k}"
        assert spilled == [b for b in whole_spills if b >= committed]


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_roundtrip_is_exact(engine, tmp_path):
    """A resumed sweep writes the checkpoint a fresh sweep writes.

    The checkpoint is the sweep's whole snapshot: the identity block,
    the floors and the committed count, nothing else.  A sweep aborted
    after band k - 1 and resumed until band k must leave the bytes a
    fresh sweep aborted after band k leaves.
    """
    for name, make in sorted(_RESUME_LAYOUTS.items()):
        layout = make()
        plan = sweep_plan(layout, engine)
        whole = stream_extract(layout, TECH, **plan)
        for k in range(1, whole.bands):
            fresh = tmp_path / f"{name}-fresh-{k}.ck"
            abort_after(layout, plan, fresh, k)
            state = load_checkpoint(fresh)
            assert sorted(state) == ["band", "digest", "floors", "options"]
            assert state["floors"] == whole.band_plan
            assert state["band"] == k
            twice = tmp_path / f"{name}-twice-{k}.ck"
            abort_after(layout, plan, twice, k - 1)
            abort_after(layout, plan, twice, k, resume="auto")
            assert twice.read_bytes() == fresh.read_bytes(), (
                f"{name}: checkpoint after resuming to band {k}"
            )


@pytest.mark.parametrize("engine", ENGINES)
def test_restore_is_bit_identical_to_scratch_rebuild(engine, tmp_path):
    """A resume leaves exactly the spill files a scratch sweep leaves.

    The replay rebuilds the resident order keys (net locations and
    spill bands, the RetiredDevices rows) that the later bands'
    payloads are written against.  A resumed sweep that carried state a
    scratch sweep lacks, or lacked state it has, would spill different
    bytes for the bands past the committed ones.
    """
    for name, make in sorted(_RESUME_LAYOUTS.items()):
        layout = make()
        plan = sweep_plan(layout, engine)
        scratch_dir = tmp_path / name / "scratch"
        whole = stream_extract(layout, TECH, spill_dir=scratch_dir, **plan)
        scratch = spill_files(scratch_dir)
        assert len(scratch) > 2
        for k in range(whole.bands):
            ck = tmp_path / name / f"abort-{k}.ck"
            abort_after(layout, plan, ck, k)
            resumed = stream_extract(
                layout, TECH, checkpoint=str(ck), resume="auto", **plan
            )
            assert resumed.text == whole.text
            assert spill_files(Path(f"{ck}.spill")) == scratch, (
                f"{name}: spill files after an abort at band {k}"
            )


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_restores_scanstats_counters(engine, tmp_path):
    """The replay reports every band's counters as the first run did.

    A resumed job reports progress from the first band again; each
    report, replayed bands included, must carry the ScanStats the
    uninterrupted sweep had at that band.
    """
    for name, make in sorted(_RESUME_LAYOUTS.items()):
        layout = make()
        plan = sweep_plan(layout, engine)
        whole = stats_per_band(layout, plan)
        for k in range(1, len(whole)):
            ck = tmp_path / f"{name}-{k}.ck"
            abort_after(layout, plan, ck, k)
            resumed = stats_per_band(
                layout, plan, checkpoint=str(ck), resume=True
            )
            for band, (got, want) in enumerate(zip(resumed, whole)):
                assert got == want, (
                    f"{name}: band {band} after an abort at band {k}"
                )
            assert len(resumed) == len(whole)


@pytest.mark.parametrize("engine", ENGINES)
def test_snapshot_survives_json(engine, tmp_path):
    """A checkpoint rewritten by another JSON writer still resumes.

    The checksum covers the canonical body, not the file's layout, and
    the floors (ints, and ``null`` for the open last band) come back
    with their types, so the resume finds its spilled bands under the
    same run key and ends with the uninterrupted bytes.
    """
    for name, make in sorted(_RESUME_LAYOUTS.items()):
        layout = make()
        plan = sweep_plan(layout, engine)
        whole = stream_extract(layout, TECH, **plan)
        ck = tmp_path / f"{name}.ck"
        abort_after(layout, plan, ck, whole.bands // 2)
        state = load_checkpoint(ck)
        assert state["floors"][-1] is None
        text = ck.read_text()
        ck.write_text(json.dumps(json.loads(text), indent=2, sort_keys=True))
        assert ck.read_text() != text
        assert load_checkpoint(ck) == state
        resumed = stream_extract(
            layout, TECH, checkpoint=str(ck), resume=True, **plan
        )
        assert resumed.resumed
        assert resumed.text == whole.text, name


@pytest.mark.parametrize("engine", ENGINES)
def test_checkpoint_size_does_not_grow_with_band(engine, tmp_path):
    """The checkpoint holds the plan and a count, never sweep state."""
    layout = inverter_rows(16, 4)
    ck = tmp_path / "sweep.ck"
    sizes: list[int] = []

    def measure(done, total, stats):
        if ck.exists():
            sizes.append(ck.stat().st_size)

    report = stream_extract(
        layout,
        TECH,
        engine=engine,
        band_height=max(1, chip_height(layout) // 16),
        checkpoint=str(ck),
        progress=measure,
    )
    assert report.bands >= 16
    assert len(sizes) == report.bands - 1
    assert sizes[-1] - sizes[0] <= 4, sizes


def test_resume_refuses_format_3_checkpoint(tmp_path):
    """Format 3 did not name the deck; such a file cannot be resumed."""
    ck = tmp_path / "sweep.ck"
    stream_extract(nand2(), TECH, band_height=1000, checkpoint=str(ck))
    text = ck.read_text()
    current = f'"format": {CHECKPOINT_FORMAT}'
    assert text.startswith("{" + current + ",")
    ck.write_text(text.replace(current, '"format": 3', 1))
    with pytest.raises(CheckpointError, match="format 3"):
        stream_extract(
            nand2(),
            TECH,
            band_height=1000,
            checkpoint=str(ck),
            resume=True,
        )


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


def test_resume_refuses_deck_mismatch(tmp_path):
    """A sweep stopped under NMOS does not resume under CMOS, whose
    sweep would read the NMOS layers as unknown and mix two processes'
    bands in one wirelist."""
    layout = inverter_rows(4, 2)
    ck = tmp_path / "sweep.ck"
    abort_after(layout, {"band_height": 1000}, ck, 2)
    assert load_checkpoint(ck)["band"] == 2
    with pytest.raises(CheckpointError, match="options"):
        stream_extract(
            layout, CMOS(), band_height=1000, checkpoint=str(ck), resume=True
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


def test_new_band_plan_removes_superseded_band_files(tmp_path):
    """Re-planned runs under one checkpoint keep one plan's band files.

    Each finished run leaves its checkpoint behind.  A fresh run of
    another plan supersedes it at its own first checkpoint, and the
    older plan's band files go with it; a shared ``spill_dir`` is never
    pruned.
    """
    layout = inverter_rows(8, 3)
    height = chip_height(layout)
    ck = tmp_path / "run.ckpt"
    shared = tmp_path / "shared"
    counts = []
    for parts in (3, 9, 23):
        report = stream_extract(
            layout, TECH, checkpoint=str(ck), band_height=max(1, height // parts)
        )
        assert report.text == expected_text(layout, name="chip")
        counts.append(len(spill_files(tmp_path / "run.ckpt.spill")))
    assert counts == [3, 10, 24]

    for parts in (3, 9):
        stream_extract(
            layout,
            TECH,
            checkpoint=str(tmp_path / "other.ckpt"),
            spill_dir=str(shared),
            band_height=max(1, height // parts),
        )
    assert len(spill_files(shared)) == 13
