"""Scanline engine micro-benchmark: ``python -m repro.bench.scanline``.

Times the :class:`~repro.core.scanline.ScanlineEngine` alone — front-end
stream construction and CIF parsing excluded, matching the paper's phase
split — on the worst-case poly/diffusion mesh of section 4, and writes a
``BENCH_scanline.json`` report with wall clock per (size, strip engine)
plus the event-heap counters from :class:`~repro.core.stats.ScanStats`.

The ``--engine`` axis benchmarks the pluggable strip back-ends (see
docs/ENGINES.md): ``both`` (the default) runs every engine available in
this interpreter and tags each row, so the report carries the python and
numpy trajectories side by side with a same-run ``speedup_vs_python``
column on the numpy rows — the only cross-engine comparison that is
meaningful on shared hardware.

"Before" numbers come from ``benchmarks/results/scanline_baseline.json``,
a committed one-off capture of the pre-event-heap engine on the same
harness; wall-clock speedups are therefore only meaningful on comparable
hardware.  A missing or malformed capture raises :class:`BaselineError`
with the repair story instead of a raw traceback.  The counters are not
hardware-bound: ``--check`` asserts machine-independent invariants of
the event-heap design (every scheduled interval is removed exactly once,
per-stop scheduling overhead is bounded by the number of tracked layers,
never by the active-list population, and never worse than the per-size
``max_stop_overhead`` recorded in the committed baseline) — and, because
the counters must be identical for every strip engine, the check doubles
as an engine-parity probe CI can run without timing flakiness.

Every row carries the host lap clock's phases (``fetch`` / ``expire`` /
``insert`` / ``schedule`` / ``strip`` / ``finalize``, see
:data:`~repro.core.scanline.PROFILE_PHASES`) of its best timed run, and
``--check`` requires them to add up to at most :data:`PROFILE_SLACK`
times that run's wall.  ``--profile`` prints the breakdown and writes it
to a sibling ``<out-stem>_profile.json`` artifact.  See
docs/SCANLINE_PERF.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..core.scanline import PROFILE_PHASES, ScanlineEngine
from ..core.stripengine import (
    EngineUnavailable,
    numpy_available,
    resolve_engine,
)
from ..frontend.stream import GeometryStream
from ..pipeline import JobOptions, run
from ..tech import NMOS
from ..workloads.mesh import poly_diff_mesh
from .harness import measured, timed

#: Mesh sizes (n lines per direction -> n^2 transistors).  The largest
#: size is where the asymptotic win over the O(stops x active) engine
#: shows; the smaller ones keep the scaling trend visible.
DEFAULT_SIZES = (32, 64, 128, 256, 512)

#: Default number of timed runs per size (best-of).
DEFAULT_REPEATS = 3

#: Mesh sizes for the ``--stream`` axis.  Every configuration runs an
#: extra tracked pass for the allocator peak, so the axis uses smaller
#: meshes than the engine-only timing.
DEFAULT_STREAM_SIZES = (32, 64, 128)

#: Chip-height divisors for the ``--stream`` band sweep: a few fat
#: bands, then progressively finer slicing.
DEFAULT_STREAM_DIVISORS = (4, 16, 64)

#: ``--check`` bound on a row's phase sum over its own wall: the phases
#: are disjoint sections of one run, so more is a timer bug.
PROFILE_SLACK = 1.05

#: Committed capture of the pre-event-heap engine, relative to repo root.
BASELINE_PATH = Path("benchmarks") / "results" / "scanline_baseline.json"


class BaselineError(RuntimeError):
    """The committed legacy baseline is missing or not a capture."""


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def _load_baseline_rows(path: Path | None = None) -> list[dict]:
    """The committed capture's row list, schema-checked.

    Raises :class:`BaselineError` — not ``FileNotFoundError`` soup — when
    the capture is absent or does not look like one, so the CLI can say
    what is wrong and how to fix it.
    """
    path = path or _repo_root() / BASELINE_PATH
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise BaselineError(
            f"legacy baseline capture not found at {path}: {exc}. "
            "The committed capture lives at "
            f"{BASELINE_PATH} in the repo; pass --baseline to point at "
            "another capture file."
        ) from exc
    except ValueError as exc:
        raise BaselineError(
            f"legacy baseline at {path} is not valid JSON: {exc}"
        ) from exc
    try:
        rows = payload["rows"]
        for row in rows:
            int(row["n"]), float(row["seconds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BaselineError(
            f"legacy baseline at {path} does not match the capture "
            "schema (expected {'rows': [{'n': int, 'seconds': float}, "
            f"...]}}): {exc!r}"
        ) from exc
    return rows


def load_baseline(path: Path | None = None) -> dict[int, float]:
    """Map mesh size -> legacy-engine seconds from a committed capture."""
    return {
        int(row["n"]): float(row["seconds"])
        for row in _load_baseline_rows(path)
    }


def load_baseline_overheads(path: Path | None = None) -> dict[int, int]:
    """Map mesh size -> committed ``max_stop_overhead`` bound.

    The bound is a machine-independent counter, so ``--check`` can hold
    every fresh run to it exactly.  Rows without the field (captures
    predating it) are simply skipped — old baselines keep loading, they
    just bound fewer sizes.
    """
    bounds: dict[int, int] = {}
    for row in _load_baseline_rows(path):
        try:
            bounds[int(row["n"])] = int(row["max_stop_overhead"])
        except (KeyError, TypeError, ValueError):
            continue
    return bounds


def resolve_bench_engines(requested: str) -> tuple[list[str], list[str]]:
    """Map an ``--engine`` request to concrete engine names.

    Returns ``(engines, notes)``.  ``both`` means every engine available
    in this interpreter, with a note (not an error) when numpy is
    absent; a single explicit engine resolves through
    :func:`~repro.core.stripengine.resolve_engine`, so asking for numpy
    without numpy raises :class:`EngineUnavailable`.
    """
    if requested == "both":
        engines = ["python"]
        notes = []
        if numpy_available():
            engines.append("numpy")
        else:
            notes.append(
                "numpy not importable: benchmarking the python engine "
                "only (install the fast extra for the numpy trajectory)"
            )
        return engines, notes
    return [resolve_engine(requested)], []


def bench_scanline(
    sizes=DEFAULT_SIZES,
    repeats: int = DEFAULT_REPEATS,
    baseline: dict[int, float] | None = None,
    engines: "list[str] | None" = None,
) -> list[dict]:
    """Benchmark each (mesh size, strip engine); one JSON row per pair.

    Engines are interleaved per size (every engine runs on the same
    layout object back to back) so the same-run ``speedup_vs_python``
    column compares like with like even when machine speed drifts over
    the course of the run.  Python rows carry ``speedup_vs_python`` of
    ``1.0`` (the identity comparison), so report consumers can assert
    the column uniformly instead of special-casing nulls.

    A row's ``profile`` mapping is the host clock's phase breakdown of
    the run that set its ``seconds``.
    """
    if baseline is None:
        baseline = load_baseline()
    if engines is None:
        engines = resolve_bench_engines("both")[0]
    tech = NMOS()
    rows = []
    for n in sizes:
        layout = poly_diff_mesh(n)
        python_seconds: float | None = None
        for engine_name in engines:
            # The engine consumes its stream destructively, so each
            # repeat rebuilds stream and engine OUTSIDE the timer: the
            # measurement covers engine.run alone, not the paper's
            # parse/sort phase.
            seconds = float("inf")
            for _ in range(max(1, repeats)):
                stream = GeometryStream(layout)
                engine = ScanlineEngine(tech, engine=engine_name)
                wall = timed(engine.run, stream).seconds
                if wall < seconds:
                    seconds, phases = wall, engine.clock.seconds
            # One extra run under tracemalloc for the allocator peak;
            # its (slowed) wall clock is discarded so the timing stays
            # comparable to the untracked baseline capture.
            stream = GeometryStream(layout)
            engine = ScanlineEngine(tech, engine=engine_name)
            tracked = timed(engine.run, stream, track_alloc=True)
            if engine_name == "python":
                python_seconds = seconds
            stats = engine.stats
            before = baseline.get(n)
            row = {
                "n": n,
                "engine": engine.engine_name,
                "mode": "engine",
                "band_height": None,
                "peak_alloc": tracked.peak_alloc,
                "boxes": stats.boxes_in,
                "stops": stats.stops,
                "devices": stats.devices_created,
                "peak_active": stats.peak_active,
                "seconds": seconds,
                "profile": phases,
                "baseline_seconds": before,
                "speedup": (before / seconds) if before else None,
                "speedup_vs_python": (
                    python_seconds / seconds
                    if engine_name != "python"
                    and python_seconds is not None
                    else (1.0 if engine_name == "python" else None)
                ),
                "tracked_layers": len(engine._heaps),
                "counters": {
                    "heap_pushes": stats.heap_pushes,
                    "heap_pops": stats.heap_pops,
                    "lazy_discards": stats.lazy_discards,
                    "expired": stats.expired,
                    "intervals_scanned": stats.intervals_scanned,
                    "max_stop_overhead": stats.max_stop_overhead,
                },
            }
            rows.append(row)
    return rows


def bench_stream(
    sizes=DEFAULT_STREAM_SIZES,
    repeats: int = DEFAULT_REPEATS,
    engines: "list[str] | None" = None,
    divisors=DEFAULT_STREAM_DIVISORS,
) -> list[dict]:
    """The banded-streaming axis: wall time and allocator peak per plan.

    For each (mesh size, engine) the full in-memory pipeline run (parse
    to wirelist text) is measured once as ``mode == "memory"``, then the
    streamed extraction at one band height per chip-height divisor as
    ``mode == "stream"`` rows.  Each configuration's allocator peak
    comes from one tracemalloc-tracked run whose wall clock is
    discarded; the O(band) contract shows up as stream rows' peaks
    shrinking with the band height while the memory row's stays put.

    The streamed wirelist is asserted byte-identical to the in-memory
    one on every row, so a bench run doubles as an equivalence check.
    Rows carry the same event counters as the engine-only axis, which
    lets :func:`check_rows` cross-check streamed against in-memory
    bookkeeping too.
    """
    if engines is None:
        engines = resolve_bench_engines("both")[0]
    tech = NMOS()
    rows = []
    for n in sizes:
        layout = poly_diff_mesh(n)
        bbox = GeometryStream(layout).chip_bbox
        height = bbox.ymax - bbox.ymin
        tracked_layers = len(ScanlineEngine(tech)._heaps)
        # Same-run python seconds per (mode, band_height), so stream
        # rows get the same like-with-like speedup column as the
        # engine-only axis (engines run python-first).
        python_secs: "dict[tuple, float]" = {}
        for engine_name in engines:
            mem = measured(
                run, layout, tech, JobOptions(name="bench.cif"),
                engine=engine_name, repeats=repeats,
            )
            expected = mem.result.text
            if engine_name == "python":
                python_secs[("memory", None)] = mem.seconds
            rows.append(
                _stream_row(
                    n,
                    "memory",
                    None,
                    1,
                    mem,
                    mem.result.stats,
                    engine=engine_name,
                    devices=mem.result.devices,
                    tracked_layers=tracked_layers,
                    python_seconds=python_secs.get(("memory", None)),
                )
            )
            for divisor in divisors:
                band_height = max(1, height // divisor)
                streamed = measured(
                    run, layout, tech,
                    JobOptions(
                        name="bench.cif", stream=True, band_height=band_height
                    ),
                    engine=engine_name, repeats=repeats,
                )
                sresult = streamed.result
                if sresult.text != expected:
                    raise RuntimeError(
                        f"streamed wirelist diverged from in-memory at "
                        f"n={n} engine={engine_name} "
                        f"band_height={band_height}"
                    )
                if engine_name == "python":
                    python_secs[("stream", band_height)] = streamed.seconds
                rows.append(
                    _stream_row(
                        n,
                        "stream",
                        band_height,
                        sresult.report.bands,
                        streamed,
                        sresult.stats,
                        engine=engine_name,
                        devices=sresult.devices,
                        tracked_layers=tracked_layers,
                        python_seconds=python_secs.get(
                            ("stream", band_height)
                        ),
                    )
                )
    return rows


def _stream_row(
    n: int,
    mode: str,
    band_height: "int | None",
    bands: int,
    timing,
    stats,
    *,
    engine: str,
    devices: int,
    tracked_layers: int,
    python_seconds: "float | None" = None,
) -> dict:
    if engine == "python":
        speedup_vs_python: "float | None" = 1.0
    elif python_seconds is not None:
        speedup_vs_python = python_seconds / timing.seconds
    else:
        speedup_vs_python = None
    return {
        "n": n,
        "engine": engine,
        "mode": mode,
        "band_height": band_height,
        "bands": bands,
        "boxes": stats.boxes_in,
        "stops": stats.stops,
        "devices": devices,
        "peak_active": stats.peak_active,
        "seconds": timing.seconds,
        "peak_alloc": timing.peak_alloc,
        "baseline_seconds": None,
        "speedup": None,
        "speedup_vs_python": speedup_vs_python,
        "tracked_layers": tracked_layers,
        "counters": {
            "heap_pushes": stats.heap_pushes,
            "heap_pops": stats.heap_pops,
            "lazy_discards": stats.lazy_discards,
            "expired": stats.expired,
            "intervals_scanned": stats.intervals_scanned,
            "max_stop_overhead": stats.max_stop_overhead,
        },
    }


def check_rows(
    rows: list[dict],
    overhead_bounds: "dict[int, int] | None" = None,
) -> list[str]:
    """Machine-independent event-heap invariants; returns violations.

    * conservation: every scheduled interval is eventually removed, by a
      real expiry or by a merge that consumes it (a lazy discard);
    * bounded overhead: at any stop the engine examines at most two
      heap heads per tracked layer beyond the entries it removes, so
      scheduling work per stop is O(layers), not O(active intervals);
    * the aggregate corollary: total examinations are bounded by total
      removals plus that per-stop allowance;
    * engine parity: the counters are host-side event bookkeeping, so
      every strip engine must report identical counters for a size;
    * baseline regression: with ``overhead_bounds`` (size ->
      ``max_stop_overhead`` from the committed baseline capture), a
      fresh run must not schedule worse per stop than the capture did —
      the counter is deterministic, so any excess is a real regression,
      not noise;
    * phase reconciliation: a row's phases are disjoint sections of
      its timed run, so they add up to at most :data:`PROFILE_SLACK`
      times that run's wall clock.
    """
    problems = []
    overhead_bounds = overhead_bounds or {}
    for row in rows:
        n, c = row["n"], row["counters"]
        layers = row["tracked_layers"]
        if c["heap_pushes"] != c["heap_pops"]:
            problems.append(
                f"n={n}: {c['heap_pushes']} pushes but {c['heap_pops']} pops"
            )
        if c["expired"] + c["lazy_discards"] != c["heap_pops"]:
            problems.append(
                f"n={n}: expired {c['expired']} + lazy {c['lazy_discards']}"
                f" != pops {c['heap_pops']}"
            )
        if c["max_stop_overhead"] > 2 * layers:
            problems.append(
                f"n={n}: max per-stop overhead {c['max_stop_overhead']}"
                f" exceeds 2 x {layers} tracked layers"
            )
        bound = overhead_bounds.get(n)
        if bound is not None and c["max_stop_overhead"] > bound:
            problems.append(
                f"n={n}: max per-stop overhead {c['max_stop_overhead']}"
                f" exceeds the committed baseline bound {bound}"
            )
        phase_sum = sum(row.get("profile", {}).values())
        if phase_sum > PROFILE_SLACK * row["seconds"]:
            problems.append(
                f"n={n} {row['engine']}: phases add up to "
                f"{phase_sum:.4f}s, more than {PROFILE_SLACK:.2f} x the "
                f"timed run's {row['seconds']:.4f}s wall"
            )
        budget = c["heap_pops"] + 2 * layers * row["stops"]
        if c["intervals_scanned"] > budget:
            problems.append(
                f"n={n}: {c['intervals_scanned']} intervals scanned"
                f" exceeds event budget {budget}"
            )
    by_size: dict[int, dict] = {}
    for row in rows:
        seen = by_size.setdefault(row["n"], row["counters"])
        if row["counters"] != seen:
            problems.append(
                f"n={row['n']}: engine {row['engine']} counters diverge "
                "from the first engine's -- strip engines must drive the "
                "event machinery identically"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.scanline", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--sizes",
        type=lambda s: tuple(int(v) for v in s.split(",")),
        default=DEFAULT_SIZES,
        help="comma-separated mesh sizes (default %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=DEFAULT_REPEATS,
        help="timed runs per size, best-of (default %(default)s)",
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "python", "numpy", "both"),
        default="both",
        help="strip engine(s) to benchmark (default %(default)s: every "
        "engine available in this interpreter)",
    )
    parser.add_argument(
        "--out", default="BENCH_scanline.json",
        help="report path (default %(default)s)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline JSON (default: the committed capture)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on event-heap counter invariant violations (including "
        "per-stop overhead regressions against the committed baseline)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print each row's fetch/expire/insert/schedule/strip/"
        "finalize breakdown (from its best timed run) and write it to "
        "<out-stem>_profile.json next to --out",
    )
    parser.add_argument(
        "--stream", action="store_true",
        help="also run the banded-streaming axis: in-memory vs streamed "
        "extraction at several band heights, wall time plus allocator "
        "peak per row",
    )
    parser.add_argument(
        "--stream-sizes",
        type=lambda s: tuple(int(v) for v in s.split(",")),
        default=DEFAULT_STREAM_SIZES,
        help="mesh sizes for the --stream axis (default %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        engines, notes = resolve_bench_engines(args.engine)
        baseline = load_baseline(args.baseline)
        overhead_bounds = load_baseline_overheads(args.baseline)
    except (BaselineError, EngineUnavailable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"note: {note}")
    out_path = Path(args.out)
    # A sibling artifact CI can upload next to the main report.
    profile_path = (
        out_path.with_name(
            out_path.stem + "_profile" + (out_path.suffix or ".json")
        )
        if args.profile
        else None
    )
    # Make the report's directory before the timed runs, not after them.
    try:
        out_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_path.parent}: {exc}", file=sys.stderr)
        return 2

    rows = bench_scanline(
        sizes=args.sizes,
        repeats=args.repeats,
        baseline=baseline,
        engines=engines,
    )
    stream_rows: list[dict] = []
    if args.stream:
        stream_rows = bench_stream(
            sizes=args.stream_sizes, repeats=args.repeats, engines=engines
        )

    report = {
        "benchmark": "scanline worst-case mesh (engine only)",
        "workload": "poly_diff_mesh: 2n boxes, n^2 transistors",
        "baseline": str(BASELINE_PATH),
        "engines": engines,
        "rows": rows,
        "stream_rows": stream_rows,
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    if profile_path is not None:
        profile_path.write_text(
            json.dumps(
                {
                    "benchmark": report["benchmark"],
                    "phases": list(PROFILE_PHASES),
                    "rows": [
                        {
                            "n": row["n"],
                            "engine": row["engine"],
                            "seconds": row["seconds"],
                            "profile": row["profile"],
                        }
                        for row in rows
                    ],
                },
                indent=2,
            )
            + "\n"
        )

    for row in rows:
        speed = (
            f"{row['speedup']:.2f}x vs baseline {row['baseline_seconds']:.4f}s"
            if row["speedup"]
            else "no baseline"
        )
        cross = (
            f"  {row['speedup_vs_python']:.2f}x vs python"
            if row["engine"] != "python" and row["speedup_vs_python"]
            else ""
        )
        c = row["counters"]
        print(
            f"n={row['n']:>4}  {row['engine']:>6}  "
            f"{row['devices']:>6} devices  "
            f"{row['seconds']:.4f}s  ({speed}){cross}  "
            f"overhead<={c['max_stop_overhead']}/stop"
        )
    for row in stream_rows:
        plan = (
            f"band={row['band_height']:>6} ({row['bands']:>3} bands)"
            if row["mode"] == "stream"
            else "in-memory          "
        )
        print(
            f"n={row['n']:>4}  {row['engine']:>6}  {plan}  "
            f"{row['seconds']:.4f}s  "
            f"peak {row['peak_alloc'] / 1e6:.1f}MB"
        )
    if args.profile:
        header = "  ".join(f"{phase:>9}" for phase in PROFILE_PHASES)
        print("per-phase profile (seconds):")
        print(f"{'n':>6}  {'engine':>6}  {header}")
        for row in rows:
            cells = "  ".join(
                f"{row['profile'][phase]:>9.4f}" for phase in PROFILE_PHASES
            )
            print(f"n={row['n']:>4}  {row['engine']:>6}  {cells}")
    print(f"wrote {args.out}")
    if profile_path is not None:
        print(f"wrote {profile_path}")

    if args.check:
        problems = check_rows(
            rows + stream_rows, overhead_bounds=overhead_bounds
        )
        if problems:
            for p in problems:
                print(f"INVARIANT VIOLATION: {p}", file=sys.stderr)
            return 1
        print("event-heap counter invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
