"""Interface-survival geometry: L-shaped and notched compositions.

The interface of a composed window must contain exactly the spans still
facing outward -- including around the concave corners that appear when
simple windows compose into complex ones (HEXT section 3's simple vs
complex windows).
"""

from repro.geometry import Box
from repro.hext import Fragment, IfaceRec, LineIndex, Placed, compose
from repro.tech import NMOS

TECH = NMOS()


def _full_perimeter_window(w: int, h: int) -> Fragment:
    """A window whose single metal net touches all four faces."""
    return Fragment(
        region=(Box(0, 0, w, h),),
        net_count=1,
        index=LineIndex.of([
            IfaceRec("L", "NM", 0, 0, h, 0),
            IfaceRec("R", "NM", w, 0, h, 0),
            IfaceRec("B", "NM", 0, 0, w, 0),
            IfaceRec("T", "NM", h, 0, w, 0),
        ]),
    )


def _faces(fragment: Fragment):
    return sorted(
        (r.face, r.fixed, r.lo, r.hi, r.ident) for r in fragment.interface
    )


class TestLShape:
    def test_l_composition_keeps_notch_faces(self):
        # A tall window with a short one at its right: the tall right
        # face survives only above the short window.
        tall = Placed(_full_perimeter_window(10, 30), 0, 0)
        short = Placed(_full_perimeter_window(10, 10), 10, 0)
        merged = compose(tall, short, TECH)
        assert merged.equivalences == ((0, 1),)
        faces = _faces(merged)
        # The shared segment (x=10, y 0..10) is consumed from both sides.
        assert ("R", 10, 0, 10, 0) not in faces
        assert ("L", 10, 0, 10, 1) not in faces
        # The remainder of the tall window's right face survives.
        assert ("R", 10, 10, 30, 0) in faces
        # The short window's own right face moves outward with it.
        assert ("R", 20, 0, 10, 1) in faces

    def test_notch_fill_consumes_two_faces(self):
        # Fill the L's notch with a third window touching on two sides.
        tall = Placed(_full_perimeter_window(10, 30), 0, 0)
        short = Placed(_full_perimeter_window(10, 10), 10, 0)
        l_shape = Placed(compose(tall, short, TECH), 0, 0)
        filler = Placed(_full_perimeter_window(10, 20), 10, 10)
        merged = compose(l_shape, filler, TECH)
        # The filler touches the tall window's right face and the short
        # window's top face: both net pairs union.
        assert len(merged.equivalences) == 2
        faces = _faces(merged)
        # Nothing inward survives: the tall right face is fully gone...
        assert not any(f == "R" and fixed == 10 for f, fixed, *_ in faces)
        # ...and the composite's outline is a clean 20x30 rectangle.
        assert ("R", 20, 0, 10, 1) in faces
        assert ("R", 20, 10, 30, 2) in faces
        region_bbox = merged.bbox()
        assert (region_bbox.width, region_bbox.height) == (20, 30)

    def test_corner_only_contact_does_not_union(self):
        a = Placed(_full_perimeter_window(10, 10), 0, 0)
        b = Placed(_full_perimeter_window(10, 10), 10, 10)  # diagonal
        merged = compose(a, b, TECH)
        assert merged.equivalences == ()
        # All eight original faces survive untouched.
        assert len(merged.interface) == 8


class TestGapWindows:
    def test_disjoint_regions_keep_everything(self):
        a = Placed(_full_perimeter_window(10, 10), 0, 0)
        b = Placed(_full_perimeter_window(10, 10), 30, 0)
        merged = compose(a, b, TECH)
        assert merged.equivalences == ()
        assert len(merged.interface) == 8
        assert len(merged.region) == 2

    def test_gap_closed_by_third_window(self):
        a = Placed(_full_perimeter_window(10, 10), 0, 0)
        b = Placed(_full_perimeter_window(10, 10), 20, 0)
        split = Placed(compose(a, b, TECH), 0, 0)
        bridge = Placed(_full_perimeter_window(10, 10), 10, 0)
        merged = compose(split, bridge, TECH)
        # The bridge unions with both sides.
        assert len(merged.equivalences) == 2
        # Outline: one 30x10 rectangle; left and right outer faces only.
        lr = [r for r in merged.interface if r.face in ("L", "R")]
        assert sorted((r.face, r.fixed) for r in lr) == [("L", 0), ("R", 30)]


class TestWalkOrder:
    def test_child_lines_walk_in_first_appearance_order(self):
        """Equivalences follow the child's flat boundary list.

        In the L-shaped child, the third window consumes the first span
        of the line y=10, so that line now first appears after the line
        x=20: the child's lines are walked x=20 first even though y=10
        was indexed earlier.
        """
        unit = _full_perimeter_window(10, 10)
        row = compose(Placed(unit, 0, 0), Placed(unit, 10, 0), TECH)
        ell = compose(Placed(row, 0, 0), Placed(unit, 0, 10), TECH)
        assert [(r.face, r.fixed) for r in ell.interface] == [
            ("L", 0), ("B", 0), ("R", 20), ("B", 0), ("T", 10),
            ("L", 0), ("R", 10), ("T", 20),
        ]
        # Fill the notch and flank the row: one window touches the
        # child's y=10 line from above, the other its x=20 line.
        around = compose(Placed(unit, 10, 10), Placed(unit, 20, 0), TECH)
        merged = compose(Placed(around, 0, 0), Placed(ell, 0, 0), TECH)
        assert merged.equivalences == ((1, 3), (0, 3), (0, 4))
