"""Compose unit behaviour on hand-built fragments."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.difftest.generator import generate_layout
from repro.geometry import Box
from repro.hext import (
    DeviceRec,
    Fragment,
    IfaceRec,
    LineIndex,
    Placed,
    compose,
    hext_extract,
)
from repro.tech import NMOS

TECH = NMOS()


def _metal_window(w=10, h=10) -> Fragment:
    """One metal wire crossing the window left to right at y 4..6."""
    return Fragment(
        region=(Box(0, 0, w, h),),
        net_count=1,
        net_locs={0: (6, 0)},
        index=LineIndex.of([
            IfaceRec("L", "NM", 0, 4, 6, 0),
            IfaceRec("R", "NM", w, 4, 6, 0),
        ]),
    )


class TestNets:
    def test_matching_spans_union(self):
        a = Placed(_metal_window(), 0, 0)
        b = Placed(_metal_window(), 10, 0)
        merged = compose(a, b, TECH)
        assert merged.net_count == 2
        assert merged.equivalences == ((0, 1),)

    def test_non_touching_windows_do_not_union(self):
        a = Placed(_metal_window(), 0, 0)
        b = Placed(_metal_window(), 30, 0)  # a gap between them
        merged = compose(a, b, TECH)
        assert merged.equivalences == ()

    def test_offset_spans_do_not_union(self):
        low = _metal_window()
        high = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            index=LineIndex.of([
                IfaceRec("L", "NM", 0, 7, 9, 0),
                IfaceRec("R", "NM", 10, 7, 9, 0),
            ]),
        )
        merged = compose(Placed(low, 0, 0), Placed(high, 10, 0), TECH)
        assert merged.equivalences == ()

    def test_different_layers_do_not_union(self):
        metal = _metal_window()
        poly = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            index=LineIndex.of([
                IfaceRec("L", "NP", 0, 4, 6, 0),
                IfaceRec("R", "NP", 10, 4, 6, 0),
            ]),
        )
        merged = compose(Placed(metal, 0, 0), Placed(poly, 10, 0), TECH)
        assert merged.equivalences == ()


class TestInterface:
    def test_shared_boundary_consumed(self):
        merged = compose(
            Placed(_metal_window(), 0, 0), Placed(_metal_window(), 10, 0), TECH
        )
        faces = sorted((r.face, r.fixed) for r in merged.interface)
        assert faces == [("L", 0), ("R", 20)]

    def test_partial_overlap_keeps_remainder(self):
        tall = Fragment(
            region=(Box(0, 0, 10, 30),),
            net_count=1,
            index=LineIndex.of([IfaceRec("R", "NM", 10, 0, 30, 0)]),
        )
        short = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            index=LineIndex.of([IfaceRec("L", "NM", 0, 0, 10, 0)]),
        )
        merged = compose(Placed(tall, 0, 0), Placed(short, 10, 0), TECH)
        survivors = [r for r in merged.interface if r.face == "R" and r.fixed == 10]
        assert [(r.lo, r.hi) for r in survivors] == [(10, 30)]


class TestPartials:
    def _half_device(self) -> Fragment:
        return Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,  # the gate poly net
            partials=(
                DeviceRec(
                    area=50, terms={}, gates={0}, impl=False, loc=(6, 0)
                ),
            ),
            index=LineIndex.of([
                IfaceRec("R", "__channel__", 10, 4, 6, 0),
                IfaceRec("R", "NP", 10, 4, 6, 0),
                IfaceRec("L", "ND", 0, 4, 6, 0),
            ]),
        )

    def _mirror_half(self) -> Fragment:
        return Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            partials=(
                DeviceRec(
                    area=50, terms={}, gates={0}, impl=True, loc=(6, 0)
                ),
            ),
            index=LineIndex.of([
                IfaceRec("L", "__channel__", 0, 4, 6, 0),
                IfaceRec("L", "NP", 0, 4, 6, 0),
                IfaceRec("R", "ND", 10, 4, 6, 0),
            ]),
        )

    def test_channel_halves_merge_and_complete(self):
        merged = compose(
            Placed(self._half_device(), 0, 0),
            Placed(self._mirror_half(), 10, 0),
            TECH,
        )
        assert len(merged.partials) == 0
        assert len(merged.devices) == 1
        device = merged.devices[0]
        assert device.area == 100
        assert device.impl  # implant flag ORs across the halves
        assert device.gates == {0, 1}

    def test_channel_facing_diffusion_gains_terminal(self):
        channel_side = self._half_device()
        diff_side = Fragment(
            region=(Box(0, 0, 10, 10),),
            net_count=1,
            index=LineIndex.of([IfaceRec("L", "ND", 0, 4, 6, 0)]),
        )
        merged = compose(
            Placed(channel_side, 0, 0), Placed(diff_side, 10, 0), TECH
        )
        # Channel no longer on the boundary: completed with the terminal.
        (device,) = merged.devices
        assert device.terms == {1: 2}


def _unit_window() -> Fragment:
    """A 10x10 window whose metal net touches all four faces, poly on two."""
    return Fragment(
        region=(Box(0, 0, 10, 10),),
        net_count=2,
        index=LineIndex.of([
            IfaceRec("L", "NM", 0, 4, 6, 0),
            IfaceRec("R", "NM", 10, 4, 6, 0),
            IfaceRec("B", "NM", 0, 2, 4, 0),
            IfaceRec("T", "NM", 10, 2, 4, 0),
            IfaceRec("B", "NP", 0, 6, 8, 1),
            IfaceRec("T", "NP", 10, 6, 8, 1),
        ]),
    )


def _row(k: int) -> Fragment:
    """k unit windows composed left to right, as compose_plan folds a row."""
    unit = _unit_window()
    acc = unit
    for i in range(1, k):
        acc = compose(Placed(acc, 0, 0), Placed(unit, 10 * i, 0), TECH)
    return acc


def _fresh_records(merged: Fragment, *inputs: Fragment) -> int:
    """Records of ``merged`` that are not, by identity, an input's."""
    known = {id(rec) for frag in inputs for rec in frag.interface}
    return sum(1 for rec in merged.interface if id(rec) not in known)


class TestSeamCost:
    """Compose allocates records for the seam and the new child only."""

    def test_fresh_records_do_not_grow_with_the_row(self):
        unit = _unit_window()
        fresh = {}
        for k in (16, 256):
            row = _row(k)
            at_end = compose(Placed(row, 0, 0), Placed(unit, 10 * k, 0), TECH)
            on_top = compose(
                Placed(row, 0, 0), Placed(unit, 10 * (k // 2), 10), TECH
            )
            fresh[k] = (
                _fresh_records(at_end, row, unit),
                _fresh_records(on_top, row, unit),
            )
            # The long top and bottom lines survive; the unit's own
            # records are the only ones shifted into place.
            assert len(at_end.interface) == len(row.interface) - 1 + 5
        assert fresh[16] == fresh[256]

    def test_untouched_lines_pass_through(self):
        row = _row(16)
        merged = compose(
            Placed(row, 0, 0), Placed(_unit_window(), 160, 0), TECH
        )
        # Lines the unit extends keep the row's records, by identity...
        for key in (("B", 0, "NM"), ("T", 10, "NP")):
            old, new = row.index.lines[key], merged.index.lines[key]
            assert len(new) == len(old) + 1
            assert all(a is b for a, b in zip(old, new))
        # ...and a line it does not touch is the row's very tuple.
        key = ("L", 0, "NM")
        assert merged.index.lines[key] is row.index.lines[key]


def _all_fragments(root: Fragment):
    seen, stack = set(), [root]
    while stack:
        frag = stack.pop()
        if id(frag) in seen:
            continue
        seen.add(id(frag))
        yield frag
        stack.extend(child.fragment for child in frag.children)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_lines_stay_sorted_and_disjoint(seed):
    """Every line of every fragment HEXT builds: spans ascending, disjoint.

    Compose bisects into lines and joins them linearly, which is only
    sound on this invariant.
    """
    result = hext_extract(generate_layout(seed).layout, TECH)
    for frag in _all_fragments(result.fragment):
        for (face, fixed, layer), line in frag.index.lines.items():
            assert line, "empty lines are dropped"
            for rec in line:
                assert (rec.face, rec.fixed, rec.layer) == (face, fixed, layer)
                assert rec.lo < rec.hi
            for left, right in zip(line, line[1:]):
                assert left.hi <= right.lo, (seed, face, fixed, layer)
