"""The lazy sorted geometry stream (ACE's front-end)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.cif import Label, Layout
from repro.frontend import GeometryStream
from repro.geometry import Box, Transform
from repro.workloads import transistor_array


class TestOrdering:
    @given(
        st.lists(
            st.tuples(
                st.integers(-100, 100),
                st.integers(-100, 100),
                st.integers(1, 40),
                st.integers(1, 40),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_boxes_emerge_sorted_by_top(self, specs):
        layout = Layout()
        for x, y, w, h in specs:
            layout.top.add_box("ND", Box(x, y, x + w, y + h))
        stream = GeometryStream(layout)
        tops = [box.ymax for _, box in stream.drain()]
        assert tops == sorted(tops, reverse=True)
        assert len(tops) == len(specs)

    def test_fetch_returns_exact_top_matches(self):
        layout = Layout()
        layout.top.add_box("ND", Box(0, 0, 2, 10))
        layout.top.add_box("NP", Box(0, 5, 2, 10))
        layout.top.add_box("NM", Box(0, 0, 2, 8))
        stream = GeometryStream(layout)
        assert stream.next_top() == 10
        first = stream.fetch(10)
        assert {layer for layer, _, _, _ in first} == {"ND", "NP"}
        assert stream.next_top() == 8

    def test_empty_layout(self):
        stream = GeometryStream(Layout())
        assert stream.next_top() is None
        assert stream.chip_bbox is None


class TestLaziness:
    def test_cells_below_scanline_stay_folded(self):
        # Drain only the topmost event of a 16x16 array; most of the 511
        # internal symbols must remain unexpanded.
        layout = transistor_array(16)
        stream = GeometryStream(layout)
        top = stream.next_top()
        stream.fetch(top)
        partial = stream.stats.calls_expanded
        stream.drain()
        full = stream.stats.calls_expanded
        assert partial < full / 4

    def test_full_drain_counts_boxes(self):
        layout = transistor_array(4)
        stream = GeometryStream(layout)
        boxes = stream.drain()
        assert len(boxes) == 16 * 2
        assert stream.stats.boxes_out == 32


class TestLabels:
    def test_labels_surface_with_expansion(self):
        layout = Layout()
        cell = layout.define(1)
        cell.add_box("ND", Box(0, 0, 4, 4))
        cell.add_label(Label("A", 1, 1, "ND"))
        layout.top.add_call(1, Transform.translation(100, 100))
        stream = GeometryStream(layout)
        stream.drain()
        (label,) = stream.labels()
        assert (label.name, label.x, label.y) == ("A", 101, 101)

    def test_label_only_symbol_not_lost(self):
        layout = Layout()
        naming = layout.define(1)
        naming.add_label(Label("VDD", 5, 5, "NM"))
        layout.top.add_call(1, Transform.identity())
        layout.top.add_box("NM", Box(0, 0, 10, 10))
        stream = GeometryStream(layout)
        stream.drain()
        assert [lb.name for lb in stream.labels()] == ["VDD"]
