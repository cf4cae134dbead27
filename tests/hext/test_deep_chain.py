"""Hierarchical wirelists for compose chains deeper than the recursion limit."""

import sys

from repro.geometry import Box
from repro.hext import HextStats
from repro.hext.extractor import HextResult
from repro.hext.fragment import ChildRef, DeviceRec, Fragment
from repro.hext.wirelist import _topological, to_hierarchical_wirelist
from repro.tech import NMOS
from repro.wirelist import write_wirelist

REGION = (Box(0, 0, 10, 10),)


def _leaf() -> Fragment:
    return Fragment(
        region=REGION,
        net_count=3,
        net_locs={0: (10, 0), 1: (10, -5), 2: (5, 0)},
        devices=(DeviceRec(area=4, terms={0: 2, 1: 2}, gates={2}, impl=False, loc=(8, 0)),),
    )


def _chain(depth: int) -> Fragment:
    """``depth`` composed fragments, each wrapping the one below."""
    frag = _leaf()
    for _ in range(depth):
        frag = Fragment(
            region=REGION,
            net_count=frag.net_count,
            children=(ChildRef(frag, 0, 0, 0),),
        )
    return frag


def _recursive_order(root: Fragment) -> list:
    postorder, seen = [], set()

    def visit(frag):
        if id(frag) not in seen:
            seen.add(id(frag))
            for child in frag.children:
                visit(child.fragment)
            postorder.append(frag)

    visit(root)
    return postorder[::-1]


def test_chain_deeper_than_recursion_limit():
    depth = sys.getrecursionlimit() + 50
    top = _chain(depth)
    order = _topological(top)
    assert len(order) == depth + 1
    assert order[0] is top and not order[-1].children
    result = HextResult(
        fragment=top, origin=(0, 0), stats=HextStats(), tech=NMOS()
    )
    text = write_wirelist(to_hierarchical_wirelist(result, name="deep"))
    assert text.count("(DefPart Window") == depth + 1


def test_order_matches_depth_first_postorder_on_shared_children():
    a, b = _leaf(), _leaf()
    mid = Fragment(
        region=REGION,
        net_count=6,
        children=(ChildRef(a, 0, 0, 0), ChildRef(b, 10, 0, 3)),
    )
    top = Fragment(
        region=REGION,
        net_count=12,
        children=(ChildRef(b, 0, 0, 0), ChildRef(mid, 0, 10, 3), ChildRef(a, 0, 20, 9)),
    )
    assert _topological(top) == _recursive_order(top)
    assert [id(f) for f in _topological(top)] == [
        id(f) for f in _recursive_order(top)
    ]
