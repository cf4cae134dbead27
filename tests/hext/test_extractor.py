"""HEXT end-to-end: netlist equivalence with flat ACE and statistics."""

from unittest import mock

import pytest

from repro import extract
from repro.core import sizing
from repro.hext import HextStats, hext_extract
from repro.hext.extractor import execute_plan, plan_windows
from repro.hext.windows import WindowPlanner
from repro.tech import NMOS
from repro.wirelist import circuit_to_flat, compare_netlists
from repro.workloads import (
    LayoutBuilder,
    build_chip,
    inverter,
    inverter_rows,
    mirrored_array,
    transistor_array,
)

EQUIV_WORKLOADS = [
    ("inverter", inverter),
    ("rows", lambda: inverter_rows(3, 4)),
    ("array8", lambda: transistor_array(8)),
    ("array-flat-calls", lambda: transistor_array(4, hierarchical=False)),
    ("mirrored", lambda: mirrored_array(4)),
    ("cherry-small", lambda: build_chip("cherry", scale=0.1)),
    ("schip2-small", lambda: build_chip("schip2", scale=0.03)),
    ("testram-small", lambda: build_chip("testram", scale=0.01)),
    ("riscb-small", lambda: build_chip("riscb", scale=0.01)),
]


@pytest.mark.parametrize("name,factory", EQUIV_WORKLOADS)
def test_hext_matches_flat(name, factory):
    layout = factory()
    flat = circuit_to_flat(extract(layout))
    hier = circuit_to_flat(hext_extract(layout).circuit)
    report = compare_netlists(flat, hier)
    assert report.equivalent, f"{name}: {report.reason}"


class TestMemoization:
    def test_ideal_array_single_flat_call(self):
        result = hext_extract(transistor_array(16))
        assert result.stats.flat_calls == 1
        # Binary tree of 256 cells: log2(256) compose levels.
        assert result.stats.compose_calls == 8
        assert result.stats.memo_hits == 8

    def test_unique_windows_grow_logarithmically(self):
        # One new pair-level per doubling of the array side: the memo
        # table is what delivers Table 4-1's O(sqrt N).
        uniques = [
            hext_extract(transistor_array(n)).stats.unique_windows
            for n in (4, 8, 16)
        ]
        assert uniques == [6, 8, 10]

    def test_fully_instantiated_design_gains_nothing(self):
        # A fully-instantiated description (raw geometry, no symbol
        # calls) leaves HEXT nothing to exploit: one whole-chip window,
        # one flat extraction -- the "gains nothing from hierarchy or
        # repetition" case of HEXT section 4.
        from repro.cif import Layout
        from repro.frontend import instantiate

        boxes, _ = instantiate(transistor_array(4))
        layout = Layout()
        for layer, box in boxes:
            layout.top.add_box(layer, box)
        flat = hext_extract(layout)
        assert flat.stats.flat_calls == 1
        assert flat.stats.compose_calls == 0
        assert flat.stats.memo_hits == 0
        assert len(flat.circuit.devices) == 16

    def test_shared_row_symbols_memoize(self):
        shared = hext_extract(
            inverter_rows(4, 4, shared_symbols=True)
        ).stats
        unique = hext_extract(
            inverter_rows(4, 4, shared_symbols=False)
        ).stats
        # Same artwork; per-row symbols force re-examination of windows
        # the shared version recognizes as redundant.
        assert shared.memo_hits >= unique.memo_hits
        assert shared.unique_windows <= unique.unique_windows


class TestPartialDevices:
    def test_horizontal_split(self):
        builder = LayoutBuilder()
        half = builder.new_symbol()
        half.box("ND", 0, 0, 4, 8)
        half.box("NP", 0, 3, 4, 5)
        wrap = builder.new_symbol()
        wrap.call(half, 0, 0)
        builder.top.call(wrap, 0, 0)
        builder.top.call(wrap, 4, 0)
        layout = builder.done()
        flat = extract(layout)
        hier = hext_extract(layout).circuit
        assert len(hier.devices) == 1
        (fd,), (hd,) = flat.devices, hier.devices
        assert (fd.area, fd.length, fd.width) == (hd.area, hd.length, hd.width)

    def test_quad_split(self):
        # A transistor split across FOUR windows (both axes).
        builder = LayoutBuilder()
        quad = builder.new_symbol()
        quad.box("ND", 0, 0, 4, 4)
        quad.box("NP", 0, 1, 4, 3)
        wrap = builder.new_symbol()
        wrap.call(quad, 0, 0)
        for dx, dy in [(0, 0), (4, 0), (0, 4), (4, 4)]:
            builder.top.call(wrap, dx, dy)
        layout = builder.done()
        flat = extract(layout)
        hier = hext_extract(layout).circuit
        report = compare_netlists(
            circuit_to_flat(flat), circuit_to_flat(hier)
        )
        assert report.equivalent, report.reason

    def test_chip_edge_channel_still_reported(self):
        builder = LayoutBuilder()
        cell = builder.new_symbol()
        cell.box("ND", 0, 0, 4, 8)
        cell.box("NP", 0, 6, 4, 8)  # channel touches the chip top
        wrap = builder.new_symbol()
        wrap.call(cell, 0, 0)
        builder.top.call(wrap, 0, 0)
        builder.top.call(wrap, 4, 0)
        layout = builder.done()
        hier = hext_extract(layout).circuit
        assert len(hier.devices) == len(extract(layout).devices) == 1


class TestStats:
    def test_timers_populated(self):
        result = hext_extract(build_chip("cherry", scale=0.05))
        result.circuit
        stats = result.stats
        assert stats.total_seconds > 0
        assert stats.backend_seconds >= stats.compose_seconds
        assert 0 <= stats.compose_share <= 1

    def test_circuit_cached(self):
        result = hext_extract(inverter())
        assert result.circuit is result.circuit


def test_window_sweeps_size_no_device():
    """A window's records go into its fragment unsized: executing a
    plan sizes nothing, though its windows hold devices."""
    layout = build_chip("schip2", scale=0.03)
    planner = WindowPlanner(layout)
    plan = plan_windows(planner, planner.top_content(), HextStats())
    calls = []
    size_device = sizing.size_device

    def counting(*args):
        calls.append(args)
        return size_device(*args)

    with mock.patch("repro.core.assemble.size_device", counting), \
            mock.patch("repro.core.sizing.size_device", counting):
        memo = execute_plan(plan, NMOS(), HextStats())
    assert any(memo[key].devices or memo[key].partials for key in plan.primitives)
    assert calls == []
