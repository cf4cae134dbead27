"""Serial vs cached HEXT: the fragment-cache table.

Not a paper table — the 1983 systems had no persistent cache — but the
same measurement discipline: one workload, every configuration,
wirelists equivalence-checked against the serial run.  The workload is
``distinct_cell_grid``: every cell unique, so the execute phase has
``cells`` flat extractions that only the fragment cache can skip (the
memo table's worst case).  Each row is the best of 3 runs after one
untimed warm-up extraction.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import distinct_cell_grid, format_table, scaling_run
from repro.hext import hext_extract

#: Distinct cells == unique windows the execute phase extracts.
CELLS = 8
REPEATS = 2
BOXES = int(4000 * float(os.environ.get("REPRO_BENCH_SCALE", "1")))


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    layout = distinct_cell_grid(cells=CELLS, repeats=REPEATS, boxes=BOXES)
    return layout, str(tmp_path_factory.mktemp("fragment-cache"))


@pytest.fixture(scope="module")
def rows(workload):
    layout, cache_dir = workload
    return scaling_run(layout, cache_dir)


def test_parallel_scaling(benchmark, workload, rows, register_table):
    serial = rows[0]
    body = [
        [
            row.label,
            f"{row.seconds:.2f}s",
            f"{serial.seconds / row.seconds:.2f}x",
            row.flat_calls,
            f"{100 * row.cache_hit_rate:.0f}%"
            if row.cache_hits or row.cache_misses
            else "-",
            "yes" if row.equivalent else "NO",
        ]
        for row in rows
    ]
    register_table(
        "parallel scaling",
        format_table(
            ["run", "wall", "speedup", "flat calls", "cache hits", "equiv"],
            body,
            title=(
                f"HEXT fragment cache ({CELLS} unique windows x "
                f"{BOXES} boxes, best of 3, {os.cpu_count()} CPUs)"
            ),
        ),
    )

    by_label = {row.label: row for row in rows}

    # Correctness bar: every configuration reproduces the serial circuit.
    for row in rows:
        assert row.equivalent, f"{row.label} diverged from serial wirelist"

    # Warm cache serves every unique window without re-extraction.
    warm = by_label["cache warm"]
    assert warm.flat_calls == 0
    assert warm.cache_hit_rate >= 0.90

    # The steady-state design-iteration cost: a fully warm cache run.
    layout, cache_dir = workload
    benchmark.pedantic(
        lambda: hext_extract(layout, cache=cache_dir).stats.cache_hits,
        rounds=3,
        iterations=1,
    )
