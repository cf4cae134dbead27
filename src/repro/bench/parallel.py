"""Fragment-cache benchmark for the HEXT execute phase.

The workload is the memo table's worst case: ``distinct_cell_grid``
places *distinct* random cells (no two share a window key), so every
cell is a unique primitive window and the execute phase has real work
that only the persistent fragment cache can skip.

``scaling_run`` measures the same layout serially, then through a cold
and a warm fragment cache, and verifies every variant against the
serial wirelist, mirroring the correctness bar of the test suite: the
cache may only move time, never the circuit.  The module keeps its
historical name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..hext import hext_extract
from ..parallel import FragmentCache
from ..tech import DEFAULT_LAMBDA
from ..wirelist import circuit_to_flat, compare_netlists
from ..workloads import LayoutBuilder
from .harness import Timed, best_of, timed

#: Layers drawn in generated cells, weighted like the random-square model.
_CELL_LAYERS = ("NM", "NM", "NP", "NP", "ND", "ND", "NC", "NI", "NB")


def distinct_cell_grid(
    cells: int = 8,
    repeats: int = 4,
    boxes: int = 120,
    seed: int = 0,
    lambda_: int = DEFAULT_LAMBDA,
):
    """A chip of ``cells`` distinct random cells, each placed ``repeats`` times.

    Every cell gets its own random artwork, so HEXT sees ``cells`` unique
    primitive windows (plus memo hits for the repeats), each a real flat
    extraction.  Cell frames are spaced so instance bounding boxes never
    overlap and subdivision is a single slice.
    """
    rng = random.Random(seed)
    side = max(12, int(2.2 * boxes**0.5))
    pitch = side + 4
    builder = LayoutBuilder(lambda_)
    symbols = []
    for _ in range(cells):
        cell = builder.new_symbol()
        for _ in range(boxes):
            x = rng.randint(0, side - 3)
            y = rng.randint(0, side - 3)
            w = rng.randint(2, 4)
            h = rng.randint(2, 4)
            cell.box(rng.choice(_CELL_LAYERS), x, y, x + w, y + h)
        symbols.append(cell)
    top = builder.top
    for column, cell in enumerate(symbols):
        for row in range(repeats):
            top.call(cell.number, dx=column * pitch, dy=row * pitch)
    return builder.done()


@dataclass
class ScalingRow:
    """One measured configuration of the same extraction."""

    label: str
    seconds: float
    flat_calls: int
    cache_hits: int = 0
    cache_misses: int = 0
    equivalent: bool = True

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0


def scaling_run(
    layout, cache_dir: str, repeats: int = 3
) -> list[ScalingRow]:
    """Measure serial, cold-cache and warm-cache extractions.

    One untimed extraction first pays the strip-engine import and other
    first-run costs, so no row is billed for them.  Each row is then the
    best of ``repeats`` runs; every cold run starts from an emptied
    cache.  Every row's wirelist is equivalence-checked against the
    serial run.
    """
    hext_extract(layout)
    serial = best_of(repeats, hext_extract, layout)
    reference = circuit_to_flat(serial.result.circuit)
    cold_runs = []
    for _ in range(repeats):
        FragmentCache(cache_dir).clear()
        cold_runs.append(timed(hext_extract, layout, cache=cache_dir))
    cold = min(cold_runs, key=lambda run: run.seconds)
    warm = best_of(repeats, hext_extract, layout, cache=cache_dir)

    def row(label: str, run: Timed) -> ScalingRow:
        stats = run.result.stats
        report = compare_netlists(
            reference, circuit_to_flat(run.result.circuit)
        )
        return ScalingRow(
            label=label,
            seconds=run.seconds,
            flat_calls=stats.flat_calls,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            equivalent=report.equivalent,
        )

    return [
        row("serial", serial),
        row("cache cold", cold),
        row("cache warm", warm),
    ]
