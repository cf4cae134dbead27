"""HEXT Table 4-1: the ideal case, a square array of identical cells.

Paper result: for every four-fold increase in cells, HEXT's time (after
subtracting k, the one-cell extraction + init cost) roughly *doubles* --
the O(sqrt N) behaviour of the compose recurrence -- while the flat
extractor grows linearly (4x per step).

Paper sizes were 1K..256K cells; the same shape shows at 256..16K here
(set REPRO_BENCH_HEXT_MAX to change the top size).
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.bench import format_table, timed
from repro.core import extract_report
from repro.hext import hext_extract
from repro.workloads import transistor_array

MAX_CELLS = int(os.environ.get("REPRO_BENCH_HEXT_MAX", "65536"))

#: timed passes per row, HEXT and flat alike (and for k); the row
#: reads their median, as the suite's rows do
#: (:func:`repro.bench.suite.run_suite`)
PASSES = 3

#: Paper's measurements for reference (cells -> (hext_s, hext_minus_k_s, flat_s)).
PAPER = {
    1024: (7.6, 1.6, 25.5),
    4096: (9.2, 3.2, 103.6),
    16384: (12.8, 6.8, 410.1),
    65536: (18.7, 12.7, 1844.1),
    262144: (33.8, 27.8, None),
}


def _hext_pass(layout) -> tuple[float, float]:
    """(extraction seconds, flatten seconds) of one HEXT run.

    The paper's HEXT column measures hierarchical extraction; producing
    a flat wirelist is a separate pass "linear in the number of devices"
    (HEXT section 4), reported here in its own column.
    """
    result = hext_extract(layout)
    result.circuit  # triggers the flatten/resolve pass
    stats = result.stats
    return (
        stats.frontend_seconds + stats.backend_seconds,
        stats.resolve_seconds,
    )


def _hext_seconds(layout) -> tuple[float, float]:
    """The median of :data:`PASSES` HEXT runs, each under
    :func:`~repro.bench.timed` (the collector paused) like a flat row:
    a row is a few milliseconds, so one collection can double it."""
    passes = [timed(_hext_pass, layout).result for _ in range(PASSES)]
    return (
        statistics.median(extract for extract, _ in passes),
        statistics.median(flatten for _, flatten in passes),
    )


@pytest.fixture(scope="module")
def series():
    # k: the cost of extracting one cell, as in the paper's table.
    k = _hext_seconds(transistor_array(1))[0]
    # One untimed flat extraction first: it imports the strip engine,
    # which is not the first row's sweep.
    extract_report(transistor_array(1))
    rows = []
    cells = 1024
    while cells <= MAX_CELLS:
        side = int(cells**0.5)
        layout = transistor_array(side)
        hext_seconds, resolve_seconds = _hext_seconds(layout)
        flat_seconds = statistics.median(
            timed(extract_report, layout).seconds for _ in range(PASSES)
        )
        rows.append(
            {
                "cells": cells,
                "hext": hext_seconds,
                "hext_minus_k": max(1e-9, hext_seconds - k),
                "resolve": resolve_seconds,
                "flat": flat_seconds,
            }
        )
        cells *= 4
    return k, rows


def test_table_hext_4_1(benchmark, series, register_table):
    k, rows = series
    body = []
    for row in rows:
        paper = PAPER.get(row["cells"])
        body.append(
            [
                row["cells"],
                f"{row['hext']:.3f}",
                f"{row['hext_minus_k']:.3f}",
                f"{row['resolve']:.3f}",
                f"{row['flat']:.3f}",
                f"{paper[1]:.1f}" if paper else "-",
                f"{paper[2]:.1f}" if paper and paper[2] else "-",
            ]
        )
    register_table(
        "hext table 4-1",
        format_table(
            [
                "Cells",
                "HEXT(s)",
                "HEXT-k(s)",
                "flatten(s)",
                "flat(s)",
                "paper HEXT-k",
                "paper flat",
            ],
            body,
            title=f"HEXT Table 4-1 (k = {k:.3f}s): ideal-case square arrays",
        ),
    )

    # Shape: per 4x cells, HEXT grows well under 4x (theory: 2x), flat
    # grows ~4x (theory: linear).
    for prev, cur in zip(rows, rows[1:]):
        hext_ratio = cur["hext_minus_k"] / prev["hext_minus_k"]
        flat_ratio = cur["flat"] / prev["flat"]
        assert hext_ratio < 3.0, hext_ratio
        assert flat_ratio > 2.5, flat_ratio
        assert hext_ratio < flat_ratio

    # At the largest size the speedup is over an order of magnitude,
    # the paper's headline ("more than an order of magnitude speedup
    # for regular designs").
    assert rows[-1]["flat"] / rows[-1]["hext"] > 10

    benchmark.pedantic(
        _hext_seconds, args=(transistor_array(32),), rounds=3, iterations=1
    )
