"""The fragment cache's correctness bar: serial == cached.

Every workload family is extracted flat (the oracle), then twice through
a persistent fragment cache (cold and warm); all wirelists must be
equivalent up to net renumbering (``wirelist.compare``).  The mesh is
the degenerate case -- flat geometry, a single window -- and must still
go through the cache unharmed.  A cached fragment must also be byte for
byte the one extraction would produce, whichever layout stored it.
"""

from __future__ import annotations

import pytest

from repro import extract
from repro.bench import distinct_cell_grid
from repro.hext import hext_extract
from repro.pipeline import JobOptions, run
from repro.tech import NMOS
from repro.wirelist import circuit_to_flat, compare_netlists
from repro.workloads import dram_column, poly_diff_mesh, transistor_array
from repro.workloads.pla import PlaSpec, pla

MAJORITY3 = PlaSpec(
    num_inputs=3,
    products=(
        {0: True, 1: True},
        {0: True, 2: True},
        {1: True, 2: True},
    ),
    outputs=(frozenset({0, 1, 2}),),
)

#: One window drawn in two orders: a diffusion strip under a poly gate,
#: and a metal box sharing the gate's top-left corner (800, 2000).
#: ``a.cif`` draws the poly first, ``b.cif`` the metal; equal keys, so
#: a cache filled by one serves the other.
DRAW_ORDER_PAIR = {
    "a.cif": "L ND; B 2000 400 1000 1000;\nL NP; B 400 2000 1000 1000;\n"
    "L NM; B 400 400 1000 1800;\nE\n",
    "b.cif": "L ND; B 2000 400 1000 1000;\nL NM; B 400 400 1000 1800;\n"
    "L NP; B 400 2000 1000 1000;\nE\n",
}

WORKLOADS = [
    ("mesh", lambda: poly_diff_mesh(5)),
    ("pla", lambda: pla(MAJORITY3)),
    ("memory", lambda: dram_column(6)),
    ("array", lambda: transistor_array(8)),
    ("distinct-cells", lambda: distinct_cell_grid(cells=5, repeats=2, boxes=40)),
]

_LAYOUTS = {}


def _layout(name):
    if name not in _LAYOUTS:
        factory = dict(WORKLOADS)[name]
        layout = factory()
        _LAYOUTS[name] = (layout, circuit_to_flat(extract(layout)))
    return _LAYOUTS[name]


def _assert_equivalent(name, reference, result):
    report = compare_netlists(reference, circuit_to_flat(result.circuit))
    assert report.equivalent, f"{name}: {report.reason}"


@pytest.mark.parametrize("name", [name for name, _ in WORKLOADS])
def test_warm_cache_matches_serial(name, tmp_path):
    layout, reference = _layout(name)
    cache = str(tmp_path / "fragments")

    cold = hext_extract(layout, cache=cache)
    _assert_equivalent(name, reference, cold)
    assert cold.stats.cache_hits == 0
    assert cold.stats.cache_misses == cold.stats.flat_calls > 0

    warm = hext_extract(layout, cache=cache)
    _assert_equivalent(name, reference, warm)
    assert warm.stats.flat_calls == 0, "warm cache must skip extraction"
    assert warm.stats.cache_hits == cold.stats.flat_calls
    assert warm.stats.cache_hit_rate == 1.0


def test_cache_shared_across_equal_content(tmp_path):
    """Cache keys hash content, not placement or symbol numbers.

    Two distinct Layout objects with identical artwork share entries,
    and the served fragment is byte for byte the one extraction writes,
    even when the other layout drew the same boxes in another order.
    """
    cache = str(tmp_path / "fragments")
    first = hext_extract(transistor_array(8), cache=cache)
    second = hext_extract(transistor_array(8), cache=cache)
    assert first.stats.cache_misses == first.stats.flat_calls
    assert second.stats.flat_calls == 0
    assert second.stats.cache_hits == first.stats.flat_calls

    pair = str(tmp_path / "pair")
    for name, cif in DRAW_ORDER_PAIR.items():
        options = JobOptions(name=name, hext=True)
        cached = run(cif, NMOS(), options, cache=pair)
        assert cached.text == run(cif, NMOS(), options).text, name
    assert cached.stats.cache_hits == 1  # b was served a's fragment
