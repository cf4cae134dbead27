"""The retired-state path: spill envelopes, their checks, their cleanup.

Each strip engine spills retired devices in its own format (record rows
for python, int columns for numpy) and emission folds them back with
that engine's own finalize fold.  These tests pin what the byte-parity
harness cannot see: where the sizing happens, that a damaged band fails
loudly instead of folding into a wrong wirelist, and that a temporary
spill directory never outlives a failed sweep.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from io import StringIO

import pytest

from repro.core.scanline import StripConsumer
from repro.core.sizing import size_device
from repro.core.stripengine import numpy_available
from repro.parallel.serialize import SerializationError, canonical_json
from repro.streaming import SpillStore, stream_extract
from repro.workloads.mesh import poly_diff_mesh

from .harness import ENGINES, TECH, chip_height, expected_text

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the column format is the numpy engine's"
)


@pytest.mark.parametrize("engine", ENGINES)
def test_streamed_sizing_stays_in_the_engine_fold(engine, monkeypatch):
    """numpy sizes streamed devices in its vectorized fold; the python
    reference engine sizes each record through ``size_device``."""
    calls = []

    def counted(area, terminals):
        calls.append(area)
        return size_device(area, terminals)

    layout = poly_diff_mesh(32)
    # The in-memory reference runs the default engine, which is python
    # when numpy is absent: render it before sizing is counted.
    expected = expected_text(layout)
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro")
            and getattr(module, "size_device", None) is size_device
        ):
            monkeypatch.setattr(module, "size_device", counted)
    report = stream_extract(
        layout,
        TECH,
        name="case",
        engine=engine,
        band_height=chip_height(layout) // 8,
    )
    assert report.text == expected
    assert report.devices == 32 * 32
    assert len(calls) == (0 if engine == "numpy" else report.devices)


def _band_files(spill_dir) -> list:
    return sorted(spill_dir.rglob("*.json"))


def _damage(path) -> None:
    """Point a band's last terminal pointer past its value column, with
    a matching checksum, so only the column checks can catch it."""
    envelope = json.loads(path.read_text())
    devices = envelope["band"]["devices"]
    devices["term_ptr"][-1] = len(devices["term_net"]) + 1
    body = canonical_json(envelope["band"])
    envelope["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(json.dumps(envelope))


@needs_numpy
def test_damaged_column_band_is_rejected(tmp_path):
    from repro.core.engine_numpy import ColumnDevices

    layout = poly_diff_mesh(8)
    band_height = chip_height(layout) // 4
    expected = expected_text(layout)
    spill_dir = tmp_path / "spill"
    stream_extract(
        layout, TECH, engine="numpy", band_height=band_height,
        spill_dir=spill_dir,
    )
    target = next(
        path
        for path in _band_files(spill_dir)
        if json.loads(path.read_text())["band"]["devices"]["term_net"]
    )
    _damage(target)
    key = target.stem
    store = SpillStore(spill_dir, key[:-8], ColumnDevices())
    assert store.get_payload(key) is None
    assert store.stats.invalid == 1

    # The same damage landing between a band's spill write and emission
    # must stop the wirelist, not change it.
    damaged: list[int] = []

    def damage_first_band(done, total, stats):
        if damaged:
            return
        for path in _band_files(tmp_path / "live"):
            if json.loads(path.read_text())["band"]["devices"]["term_net"]:
                _damage(path)
                damaged.append(int(path.stem[-8:]))
                return

    sink = StringIO()
    with pytest.raises(SerializationError) as raised:
        stream_extract(
            layout, TECH, name="case", out=sink, engine="numpy",
            band_height=band_height, spill_dir=tmp_path / "live",
            progress=damage_first_band,
        )
    assert damaged
    assert f"spill band {damaged[0]} " in str(raised.value)
    assert "damaged" in str(raised.value)
    assert expected.startswith(sink.getvalue())


class _CancelOnFifthStrip(StripConsumer):
    """Raises mid-sweep, as the daemon's cancellation probe does."""

    def __init__(self) -> None:
        self.strips = 0

    def observe_strip(self, y_lo, y_hi, spans, channels) -> None:
        self.strips += 1
        if self.strips == 5:
            raise RuntimeError("job cancelled")

    def finish(self) -> None:
        pass


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("engine", ENGINES)
def test_failed_sweep_removes_its_temporary_spill(engine, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(RuntimeError, match="job cancelled") as raised:
        stream_extract(
            poly_diff_mesh(16),
            TECH,
            engine=engine,
            band_height=20,
            strip_consumers=(_CancelOnFifthStrip(),),
        )
    # The exception, and with it the sweep's frames, is still held here.
    assert raised.value.__traceback__ is not None
    assert not list(tmp_path.glob("ace-spill-*"))
