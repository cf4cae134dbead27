"""Chip-suite runner shared by the table benchmarks.

Builds the synthetic suite at a chosen scale and runs any of the
extractors over it, collecting the columns Tables 5-1/5-2 (ACE) and
5-1/5-2 (HEXT) report.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

from ..analysis import layout_stats
from ..baselines import extract_polyflat, extract_raster
from ..cif import Layout
from ..core import ExtractionReport, extract_report
from ..hext import HextStats, hext_extract
from ..workloads import CHIP_SPECS, build_chip
from .harness import timed

#: Default device-count scale for benchmark runs.  Overridable through
#: the environment so `pytest benchmarks/` can be dialed up on faster
#: machines: REPRO_BENCH_SCALE=0.25 pytest benchmarks/ ...
DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.0625"))

#: Chips small enough for the slow baselines at the default scale,
#: mirroring the paper's '-' entries where Partlist/Cifplot gave up.
RASTER_LIMIT = 30000
POLYFLAT_LIMIT = 4000

#: Timed ACE passes over the suite; a chip's time is the median of its
#: passes.  One sample of a 10 ms chip is at the mercy of whatever else
#: the machine does in those 10 ms, and passes spread a chip's samples
#: over the whole run instead of taking them back to back.
ACE_PASSES = 5


@dataclass
class SuiteRow:
    """Measurements for one chip."""

    name: str
    paper_devices: int
    devices: int
    boxes: int
    ace_seconds: float
    ace_stats: object
    raster_seconds: float | None = None
    polyflat_seconds: float | None = None
    hext_stats: HextStats | None = None
    hext_devices: int | None = None

    @property
    def devices_per_second(self) -> float:
        return self.devices / self.ace_seconds if self.ace_seconds else 0.0

    @property
    def boxes_per_second(self) -> float:
        return self.boxes / self.ace_seconds if self.ace_seconds else 0.0


def build_suite(
    scale: float = DEFAULT_SCALE, names: "tuple[str, ...] | None" = None
) -> dict[str, Layout]:
    selected = names or tuple(spec.name for spec in CHIP_SPECS)
    return {name: build_chip(name, scale) for name in selected}


def run_suite(
    scale: float = DEFAULT_SCALE,
    names: "tuple[str, ...] | None" = None,
    *,
    with_baselines: bool = False,
    with_hext: bool = False,
) -> list[SuiteRow]:
    rows: list[SuiteRow] = []
    suite = build_suite(scale, names)
    # One untimed extraction first: the strip engine is imported on the
    # first one, and that import is not the first chip's run time.
    extract_report(next(iter(suite.values())))
    seconds: dict[str, list[float]] = {name: [] for name in suite}
    reports: dict[str, ExtractionReport] = {}
    for _ in range(ACE_PASSES):
        for name, layout in suite.items():
            ace = timed(extract_report, layout)
            seconds[name].append(ace.seconds)
            reports[name] = ace.result
    for name, layout in suite.items():
        spec = next(s for s in CHIP_SPECS if s.name == name)
        art = layout_stats(layout)
        report = reports[name]
        row = SuiteRow(
            name=name,
            paper_devices=spec.paper_devices,
            devices=report.circuit.device_count(),
            boxes=art.boxes,
            ace_seconds=statistics.median(seconds[name]),
            ace_stats=report.stats,
        )
        if with_baselines:
            if row.devices <= RASTER_LIMIT:
                row.raster_seconds = timed(extract_raster, layout).seconds
            if row.devices <= POLYFLAT_LIMIT:
                row.polyflat_seconds = timed(extract_polyflat, layout).seconds
        if with_hext:
            hext = timed(hext_extract, layout)
            result = hext.result
            circuit = result.circuit  # resolve, so timers fill in
            row.hext_stats = result.stats
            row.hext_devices = circuit.device_count()
        rows.append(row)
    return rows
