#!/usr/bin/env python3
"""Process-level smoke test of the banded streaming pipeline.

What CI's ``stream-smoke`` job runs (and anyone can run locally)::

    PYTHONPATH=src python tools/stream_smoke.py --out stream-report.json

Three passes over every layout in ``examples/layouts/``:

1. **Band equivalence** — stream each layout at several band heights
   (whole-chip, coarse, fine) and require bytes identical to the
   in-memory extraction.
2. **Kill and resume** — relaunch this script as a child streaming the
   layout with checkpointing on, SIGKILL it mid-sweep via the
   crash-injection hooks, then run the child clean with
   ``resume="auto"`` and require the finished bytes.  Two scenarios
   per layout: a kill in the torn window between a band's spill write
   and its checkpoint, and a re-planned run (a coarse plan killed after
   a committed band, a fine plan started fresh over its checkpoint and
   killed in its spill window, then a resume of the coarse plan),
   also run on a synthetic inverter array.  The report records each
   layout's final checkpoint size in bytes.
3. **Peak memory** — measure tracemalloc allocator peaks for the
   in-memory and streamed pipelines on a tall synthetic chip and
   require the streamed peak to stay well below the in-memory one.

The report (``--out``) is uploaded as a CI artifact so the measured
peaks are inspectable per run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LAYOUTS = sorted((REPO / "examples" / "layouts").glob("*.cif"))

sys.path.insert(0, str(REPO / "src"))

from repro.cif import parse, write as write_cif  # noqa: E402
from repro.core import extract, extract_report  # noqa: E402
from repro.frontend import GeometryStream  # noqa: E402
from repro.streaming import stream_extract  # noqa: E402
from repro.tech import NMOS  # noqa: E402
from repro.wirelist import to_wirelist, write_wirelist  # noqa: E402
from repro.workloads import inverter_rows  # noqa: E402


def fail(message: str) -> int:
    print(f"SMOKE FAILURE: {message}", file=sys.stderr)
    return 1


def expected_text(layout, name: str) -> str:
    report = extract_report(layout, keep_geometry=False)
    return write_wirelist(to_wirelist(report.circuit, name=name))


def chip_height(layout) -> int:
    bbox = GeometryStream(layout).chip_bbox
    return (bbox.ymax - bbox.ymin) if bbox else 0


def band_heights(layout) -> "list[int | None]":
    height = chip_height(layout)
    return [None, max(1, height // 5), max(1, height // 23)]


def check_equivalence(report: dict) -> int:
    rows = []
    for path in LAYOUTS:
        layout = parse(path.read_text())
        expected = expected_text(layout, path.name)
        for band_height in band_heights(layout):
            streamed = stream_extract(
                layout,
                NMOS(),
                name=path.name,
                band_height=band_height,
            )
            if streamed.text != expected:
                return fail(
                    f"{path.name}: streamed bytes diverged at "
                    f"band_height={band_height}"
                )
            rows.append(
                {
                    "layout": path.name,
                    "band_height": band_height,
                    "bands": streamed.bands,
                }
            )
        print(f"equivalence ok: {path.name} ({len(band_heights(layout))} plans)")
    report["equivalence"] = rows
    return 0


def run_child(
    path: Path,
    band_height: int,
    ck: Path,
    out: Path,
    resume: str,
    env_extra: dict,
) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO / 'src'}:{env.get('PYTHONPATH', '')}"
    env.update(env_extra)
    return subprocess.run(
        [
            sys.executable,
            __file__,
            "--child",
            str(path),
            str(band_height),
            str(ck),
            str(out),
            resume,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def kill_after(bands: int, phase: str) -> dict:
    return {
        "ACE_STREAM_KILL_AFTER_BANDS": str(bands),
        "ACE_STREAM_KILL_PHASE": phase,
    }


def kill_resume_row(path: Path) -> "dict | str":
    """Run both kill+resume scenarios on one layout: its report row, or
    the failure message."""
    layout = parse(path.read_text())
    height = chip_height(layout)
    coarse, fine = max(1, height // 3), max(1, height // 11)
    expected = expected_text(layout, "case")
    # Each scenario is a list of launches (band height, resume mode,
    # kill hooks) sharing one checkpoint; every launch but the last
    # must die by SIGKILL, and the last must finish the sweep.
    scenarios = {
        # killed between a band's spill write and its checkpoint
        "torn": [
            (fine, "auto", kill_after(2, "spill")),
            (fine, "auto", {}),
        ],
        # a fine plan started over the coarse plan's checkpoint dies in
        # its spill window; the coarse plan's bands must survive
        "replanned": [
            (coarse, "auto", kill_after(1, "checkpoint")),
            (fine, "fresh", kill_after(1, "spill")),
            (coarse, "auto", {}),
        ],
    }
    row: dict = {"layout": path.name, "band_height": fine}
    for scenario, launches in scenarios.items():
        with tempfile.TemporaryDirectory() as tmp:
            ck = Path(tmp) / "sweep.ck"
            out = Path(tmp) / "out.wl"
            for i, (band_height, resume, hooks) in enumerate(launches):
                child = run_child(path, band_height, ck, out, resume, hooks)
                last = i == len(launches) - 1
                if child.returncode != (0 if last else -signal.SIGKILL):
                    return (
                        f"{path.name} ({scenario}): launch {i + 1} ended "
                        f"with rc={child.returncode}\n{child.stderr}"
                    )
            if out.read_text() != expected:
                return f"{path.name} ({scenario}): resumed bytes diverged"
            if scenario == "torn":
                row["checkpoint_bytes"] = ck.stat().st_size
    return row


def check_kill_resume(report: dict) -> int:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        # The example cells are too small for a fine plan's first band
        # to retire anything, so a synthetic array whose first band does
        # runs the scenarios too.
        array_cif = Path(tmp) / "inverter_rows_8x3.cif"
        array_cif.write_text(write_cif(inverter_rows(8, 3)))
        for path in [*LAYOUTS, array_cif]:
            row = kill_resume_row(path)
            if isinstance(row, str):
                return fail(row)
            rows.append(row)
            print(
                f"kill+resume ok: {path.name} (torn, replanned; "
                f"checkpoint {row['checkpoint_bytes']} bytes)"
            )
    report["kill_resume"] = rows
    return 0


def alloc_peak(fn) -> int:
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def check_memory(report: dict) -> int:
    tech = NMOS()
    layout = inverter_rows(32, 6)
    band_height = max(1, chip_height(layout) // 16)

    def in_memory() -> None:
        circuit = extract(layout, tech, keep_geometry=True)
        write_wirelist(to_wirelist(circuit, name="case"))

    def streamed() -> None:
        with open(os.devnull, "w") as out:
            stream_extract(
                layout,
                tech,
                name="case",
                band_height=band_height,
                keep_geometry=True,
                out=out,
            )

    # Warm both paths first: the first call in a process pays one-time
    # import and cache allocations that would pollute the measurement.
    streamed()
    in_memory()
    full = alloc_peak(in_memory)
    banded = alloc_peak(streamed)
    report["memory"] = {
        "workload": "inverter_rows(32, 6)",
        "band_height": band_height,
        "in_memory_peak_bytes": full,
        "streamed_peak_bytes": banded,
        "ratio": round(full / banded, 2) if banded else None,
    }
    print(
        f"memory: in-memory {full / 1e6:.2f}MB, "
        f"streamed {banded / 1e6:.2f}MB"
    )
    if banded * 2 >= full:
        return fail(
            "streamed allocator peak is not under half the in-memory peak"
        )
    return 0


def child_main(argv: "list[str]") -> int:
    path, band_height, ck, out_path, resume = argv
    layout = parse(Path(path).read_text())
    with open(out_path, "w") as out:
        stream_extract(
            layout,
            NMOS(),
            name="case",
            band_height=int(band_height),
            checkpoint=ck,
            resume="auto" if resume == "auto" else False,
            out=out,
        )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="JSON report path")
    parser.add_argument("--child", nargs=5, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child_main(args.child)

    report: dict = {}
    for check in (check_equivalence, check_kill_resume, check_memory):
        rc = check(report)
        if rc:
            return rc
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    print("stream smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
