"""ACE section 4, space complexity.

"Thus the overall expected space complexity of ACE is O(N).  This result
corresponds to actual observations."  Two claims are measured here under
the random-square model:

* total extraction memory grows linearly in N (nets and devices must be
  held until the scanline reaches the bottom, because "two nets that
  were earlier distinct can be merged after they have been output");
* the scanline working set -- active lists plus the front-end's pending
  heap -- stays O(sqrt N), far below the O(N) output state.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.bench import format_table
from repro.core import extract_report
from repro.workloads import random_squares

SIZES = (1000, 4000, 16000)


def _measure(n: int) -> dict:
    layout = random_squares(n, seed=7)
    tracemalloc.start()
    report = extract_report(layout)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n": n,
        "peak_kb": peak / 1024.0,
        "peak_active": report.stats.peak_active,
        "peak_pending": report.frontend_stats.peak_pending,
        "nets": len(report.circuit.nets),
    }


@pytest.fixture(scope="module")
def series():
    # One extraction outside tracemalloc first: the first one imports
    # the strip engine, and those imports are not the first row's space.
    extract_report(random_squares(SIZES[0], seed=7))
    return [_measure(n) for n in SIZES]


def test_space_complexity(benchmark, series, register_table):
    body = [
        [
            row["n"],
            f"{row['peak_kb']:.0f}",
            f"{row['peak_kb'] / row['n']:.2f}",
            row["peak_active"],
            row["peak_pending"],
            row["nets"],
        ]
        for row in series
    ]
    register_table(
        "ace space complexity",
        format_table(
            [
                "N boxes",
                "Peak KiB",
                "KiB/box",
                "Peak active",
                "Peak pending",
                "Nets out",
            ],
            body,
            title="ACE section 4: space under the random-square model",
        ),
    )

    # Linear total space: per-box memory stays in a narrow band.
    per_box = [row["peak_kb"] / row["n"] for row in series]
    assert max(per_box) / min(per_box) < 2.0

    # O(sqrt N) working set: active list roughly doubles per 4x N and
    # stays far below N.
    for prev, cur in zip(series, series[1:]):
        ratio = cur["peak_active"] / prev["peak_active"]
        assert 1.2 < ratio < 3.5, ratio
    for row in series:
        assert row["peak_active"] < row["n"] / 4

    benchmark.pedantic(_measure, args=(1000,), rounds=2, iterations=1)


def test_frontend_space_depends_on_hierarchy(benchmark, register_table):
    """Section 4: front-end space is 'between O(log N) and O(N)
    depending on the amount of hierarchy present'.

    The random-square model is a fully flat description -- its pending
    heap holds every box (the O(N) end).  A binary-tree array keeps
    unexpanded subtrees folded, so its pending working set stays a small
    fraction of the box count (toward the other end).
    """
    from repro.workloads import transistor_array

    flat = extract_report(random_squares(4096, seed=7))
    tree = extract_report(transistor_array(64))  # 4096 cells, 8192 boxes
    flat_pending = flat.frontend_stats.peak_pending
    tree_pending = tree.frontend_stats.peak_pending
    tree_boxes = tree.stats.boxes_in
    register_table(
        "ace frontend space",
        format_table(
            ["description", "boxes", "peak pending", "fraction"],
            [
                ["flat (random model)", flat.stats.boxes_in, flat_pending,
                 f"{flat_pending / flat.stats.boxes_in:.2f}"],
                ["binary-tree array", tree_boxes, tree_pending,
                 f"{tree_pending / tree_boxes:.2f}"],
            ],
            title="ACE section 4: front-end space vs hierarchy",
        ),
    )
    assert flat_pending == flat.stats.boxes_in  # flat: everything pends
    assert tree_pending < tree_boxes / 4  # hierarchy keeps cells folded
    benchmark.pedantic(
        extract_report, args=(transistor_array(32),), rounds=2, iterations=1
    )
