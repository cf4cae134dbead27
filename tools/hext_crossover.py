#!/usr/bin/env python3
"""Time HEXT's primitive windows on each strip engine, by box count.

For every unique primitive window of the 7 suite chips at ``--scale``,
extracts the window on the python and on the numpy engine (best of 3
each, GC paused) and groups the windows by box count; then times
``poly_diff_mesh(n)`` extracted as one window (2n boxes, n^2
transistors).  The tables it prints set
``repro.hext.extractor.NUMPY_WINDOW_BOXES``, the box count at which
``auto`` hands a window to numpy (EXPERIMENTS.md, "Beyond the paper --
HEXT's front half").

    PYTHONPATH=src python tools/hext_crossover.py --scale 0.1
"""

from __future__ import annotations

import argparse
import gc
import time

from repro.core.stripengine import load_strip_engine
from repro.hext import HextStats, WindowPlanner, extract_primitive, plan_windows
from repro.tech import NMOS
from repro.workloads import build_chip
from repro.workloads.chips import CHIP_SPECS
from repro.workloads.mesh import poly_diff_mesh

ENGINES = ("python", "numpy")
BUCKETS = ((1, 7), (8, 15), (16, 23), (24, 31), (32, 47), (48, None))
MESHES = (2, 4, 6, 8, 10, 11, 12, 13, 14, 16, 20, 24, 32)
#: Two times within this fraction of each other are a tie.
TIE = 0.02


def primitives(layout) -> list:
    planner = WindowPlanner(layout)
    plan = plan_windows(planner, planner.top_content(), HextStats())
    return list(plan.primitives.values())


def best(content, tech, engine: str, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        extract_primitive(content, tech, engine)
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    tech = NMOS()
    for engine in ENGINES:
        load_strip_engine(engine)
    gc.disable()

    rows = {bucket: [0, 0, 0, 0.0, 0.0] for bucket in BUCKETS}
    for spec in CHIP_SPECS:
        for content in primitives(build_chip(spec.name, args.scale)):
            boxes = len(content.geometry)
            py, np_ = (
                best(content, tech, engine, args.repeats) for engine in ENGINES
            )
            row = next(
                rows[(lo, hi)]
                for lo, hi in BUCKETS
                if lo <= boxes and (hi is None or boxes <= hi)
            )
            row[0] += 1
            if abs(py - np_) <= TIE * max(py, np_):
                row[2] += 1
            elif py < np_:
                row[1] += 1
            row[3] += py
            row[4] += np_
    print(f"suite windows at scale {args.scale:g}")
    print("| boxes | windows | python faster | tie | python s | numpy s "
          "| numpy / python |")
    print("|---|---|---|---|---|---|---|")
    for (lo, hi), (count, wins, ties, py, np_) in rows.items():
        if count:
            span = f"{lo}-{hi}" if hi is not None else f"{lo}+"
            print(f"| {span} | {count} | {wins} | {ties} | {py:.3f} | "
                  f"{np_:.3f} | {np_ / py:.2f} |")

    print("\npoly_diff_mesh(n) as one window")
    print("| n | boxes | python ms | numpy ms | numpy / python |")
    print("|---|---|---|---|---|")
    for n in MESHES:
        (content,) = primitives(poly_diff_mesh(n))
        py, np_ = (
            best(content, tech, engine, 3 * args.repeats) for engine in ENGINES
        )
        print(f"| {n} | {2 * n} | {py * 1e3:.2f} | {np_ * 1e3:.2f} | "
              f"{np_ / py:.2f} |")


if __name__ == "__main__":
    main()
