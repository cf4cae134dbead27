"""End-to-end, layer-by-layer benchmark: CIF text in, wirelist text out.

One run of one workload (what BENCHMARK.json's command does)::

    python3 e2ebench/run.py --workload suite-flat --seed 0 --seconds 15 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric)
and, as its last line, ``{"correct", "attempted", "failed", "metrics"}``.

    python3 e2ebench/run.py --check [--quick]      # all workloads + oracles
    python3 e2ebench/run.py --capture OUT.json     # 10 seeds x 5 workloads
    python3 e2ebench/run.py --compare BASE.json [NEW.json]

See e2ebench/README.md for the workloads, metrics and their limits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Set-ups per run; setup_s reports their median (plus the imports).
SETUPS = 3
#: Runs per workload in a ``--capture`` set: seeds 0..RUNS-1.
RUNS = 10
#: Least time between two host probes, seconds: passes shorter than this
#: share the factor of the probes around them, so that probing takes
#: at most a small share of a run.
PROBE_EVERY = 0.5
#: Largest share of a traced pass that may fall outside every layer.
UNACCOUNTED_LIMIT = 5.0


def run_workload(args, name: str, seed: int, trace: bool, import_s: float):
    """One run: set up, time passes, then trace and/or measure memory."""
    import workloads
    from hostspeed import HostSpeed
    from repro.service.metrics import quantile
    from tracing import Tracer

    sizes = workloads.QUICK if args.quick else workloads.FULL
    work = ROOT / "e2ebench" / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    # The streamed sweep spills to a temporary directory; keep it here.
    tempfile.tempdir = str(work)
    kind = (
        workloads.DaemonWorkload
        if name == "daemon-mix"
        else workloads.OfflineWorkload
    )
    workload = None
    ledger = []
    problems: "list[str]" = []
    host = HostSpeed()
    try:
        workload = kind(name, sizes, seed, work)
        setups = []
        before = host.sample()
        for index in range(SETUPS):
            if index:
                workload.discard_setup()
            started = time.perf_counter()
            ledger += workload.setup()
            elapsed = time.perf_counter() - started
            after = host.sample()
            setups.append((elapsed, host.factor(before, after)))
            before = after

        timed = args.seconds / 2 if trace else args.seconds
        passes = _loop(workload.run_pass, timed, host)
        ledger += [op for result, _ in passes for op in result.outcomes]
        e2e = {}
        layers = {}
        if trace:
            tracer = Tracer()
            traced = _loop(
                lambda: workload.traced_pass(tracer), args.seconds - timed, host
            )
            ledger += [op for result, _ in traced for op in result.outcomes]
            # Traced passes run the first set of inputs; so do the
            # untraced passes they are held against.
            first_set = [p for p in passes if p[0].variant == 0]
            values = layer_metrics(
                workload,
                tracer,
                pass_times(traced, True)[0],
                statistics.median(pass_times(first_set, True)[0]),
            )
            raw_wall = statistics.median(pass_times(traced, False)[0])
            layers = {"raw": dict(values, **{"trace.wall_s": raw_wall}), "scaled": values}
            if args.check:
                problems += reconcile(tracer, values)
        if not trace or args.check:
            peak_mb, mem_ops = workload.memory_pass()
            ledger += mem_ops
            # The imports ran before the first probe; its factor covers them.
            imports = (import_s, host.factor(host.samples[0], host.samples[0]))
            e2e = {
                view: end_to_end(passes, setups, imports, peak_mb, view == "scaled")
                for view in ("raw", "scaled")
            }
        if args.check:
            problems += workload.oracle_problems()
            problems += seed_problems(workloads, name, sizes, seed)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    errors = [op.error for op in ledger if op.error is not None]
    problems += errors[:5]
    walls = sorted(pass_times(passes, False)[0])
    ops = sum(len(result.outcomes) for result, _ in passes)
    print(
        f"# {name} seed {seed}: {len(walls)} passes, raw wall quartiles "
        + " / ".join(f"{quantile(walls, q):.4f}" for q in (0.25, 0.5, 0.75))
        + f" s, {ops} timed operations ({ops // 10} beyond p90),"
        + f" {len(errors)} failed; host probe median "
        + f"{statistics.median(host.samples):.4f} s over {len(host.samples)}"
        + f" (median factor {host.scale:.4f})"
    )
    return {
        "correct": not problems,
        "attempted": len(ledger),
        "failed": len(errors),
        "e2e": e2e,
        "layers": layers,
        "scale": host.scale,
        "problems": problems,
    }


def _loop(run_pass, seconds: float, host) -> list:
    """Run passes until ``seconds`` have gone by (at least one).  The
    host is probed before the first pass and then after a pass once
    ``PROBE_EVERY`` seconds have gone by since the last probe; every
    pass is returned with the factor of the two probes around it."""
    passes, pending = [], []
    before = host.sample()
    started = last = time.perf_counter()
    while True:
        gc.collect()
        pending.append(run_pass())
        done = time.perf_counter() - started >= seconds
        if done or time.perf_counter() - last >= PROBE_EVERY:
            after = host.sample()
            passes += [(result, host.factor(before, after)) for result in pending]
            pending.clear()
            before, last = after, time.perf_counter()
        if done:
            return passes


def end_to_end(
    passes: list, setups: list, imports: tuple, peak_mb: float, scaled: bool
) -> dict:
    """The end-to-end metrics, raw or at the reference host's speed.
    ``setups`` and ``imports`` hold (seconds, factor) pairs."""
    from repro.service.metrics import quantile

    def at(seconds: float, factor: float) -> float:
        return seconds * factor if scaled else seconds

    walls, latencies = pass_times(passes, scaled)
    return {
        "setup_s": at(*imports) + statistics.median(at(*setup) for setup in setups),
        "wall_s": statistics.median(walls),
        "latency_p50_s": quantile(latencies, 0.50),
        "latency_p90_s": quantile(latencies, 0.90),
        "peak_rss_mb": peak_mb,
    }


def pass_times(passes: list, scaled: bool) -> "tuple[list[float], list[float]]":
    """Pass walls and the sorted seconds of the operations that
    succeeded, raw or at the reference host's speed."""
    walls, latencies = [], []
    for result, factor in passes:
        factor = factor if scaled else 1.0
        walls.append(result.wall * factor)
        latencies += [op.seconds * factor for op in result.outcomes if op.error is None]
    return walls, sorted(latencies)


def layer_metrics(workload, tracer, traced_walls, untraced_median) -> dict:
    """Per-layer metrics from the traced passes; idle layers read 0.

    Layer times are self-time shares (%) of the traced wall: the paper
    reports its section 5 split the same way, and an idle layer's share
    is a true 0.  ``trace.wall_s`` gives the seconds they divide.
    """
    values = {metric["name"]: 0.0 for metric in SPEC["per_layer"]}
    traced = statistics.median(traced_walls)
    values["trace.wall_s"] = traced
    values["trace.overhead"] = traced / untraced_median - 1.0
    self_times = tracer.self_times()
    counters = workload.counters
    if workload.name == "daemon-mix":
        sums = workload.trace_seconds
        total = sums["client"]
        stages = sum(sums[s] for s in ("parse", "extract", "wirelist", "lint"))
        for stage in ("parse", "extract", "wirelist", "lint"):
            values[f"service.{stage}_pct"] = 100.0 * sums[stage] / total
        values["service.transport_pct"] = (
            100.0 * (sums["client"] - sums["daemon"]) / total
        )
        values["service.queue_pct"] = 100.0 * sums["queue"] / total
        # Worker time outside every stage, plus client time outside
        # submit/wait/fetch.
        unaccounted = (
            sums["daemon"] - sums["queue"] - stages
            + self_times.get("service.request", 0.0)
        )
        values["trace.unaccounted_pct"] = 100.0 * unaccounted / total
        values["service.polls_per_job"] = sums["polls"] / sums["jobs"]
        looked_up = counters["service.cache_hits"] + counters["service.cache_misses"]
        if looked_up:
            values["service.cache_hit_ratio"] = (
                counters["service.cache_hits"] / looked_up
            )
    else:
        total = sum(s.seconds for s in tracer.spans if s.name == "pass")
        for layer, seconds in self_times.items():
            key = "trace.unaccounted_pct" if layer == "pass" else f"{layer}_pct"
            if key not in values:
                raise KeyError(f"span {layer!r} has no metric in BENCHMARK.json")
            values[key] = 100.0 * seconds / total
        if counters.get("hext.windows_seen"):
            values["hext.memo_hit_ratio"] = (
                counters["hext.memo_hits"] / counters["hext.windows_seen"]
            )
    values.update((k, v) for k, v in counters.items() if k in values)
    return values


def reconcile(tracer, layers: dict) -> "list[str]":
    problems = []
    if layers["trace.unaccounted_pct"] > UNACCOUNTED_LIMIT:
        problems.append(
            f"trace: {layers['trace.unaccounted_pct']:.1f}% of the traced "
            f"wall is outside every layer (limit {UNACCOUNTED_LIMIT}%)"
        )
    if layers["trace.unaccounted_pct"] < -0.01 or tracer.min_self_time() < -1e-6:
        problems.append("trace: negative self time (broken span nesting)")
    return problems


def seed_problems(workloads, name, sizes, seed) -> "list[str]":
    """The same seed gives the same inputs; another seed other chips."""
    digests = workloads.input_digests(name, sizes, seed)
    if workloads.input_digests(name, sizes, seed) != digests:
        return [f"{name}: seed {seed} does not reproduce its inputs"]
    if name.startswith("mesh"):
        return []  # the mesh has no randomness
    if workloads.input_digests(name, sizes, seed + 1) == digests:
        return [f"{name}: seeds {seed} and {seed + 1} give the same inputs"]
    return []


def print_metrics(specs: "list[dict]", values: dict) -> dict:
    out = {}
    for metric in specs:
        value = values[metric["name"]]
        print(f"  {metric['name']:<26} {value:>14.6f} {metric['unit']}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expect-engine",
        default="numpy",
        help="the strip engine 'auto' must resolve to; any other engine "
        "fails the run (default %(default)s)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run every workload (or --workload) traced and measured, with "
        "the reference-engine, netlist, trace and seed oracles",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small inputs: 2 chips at scale 1/32, mesh n=32, 8-request batches",
    )
    parser.add_argument(
        "--capture",
        metavar="OUT",
        help=f"append one set of runs (seeds 0..{RUNS - 1} per workload, in "
        "fresh processes) and its summary to OUT",
    )
    parser.add_argument(
        "--compare",
        nargs="+",
        metavar="FILE",
        help="compare the last set of BASE with the last set of NEW (or the "
        "first and last set of one file); exits 1 if any metric is outside "
        "its bound",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else (4.0 if args.check else SPEC["run_seconds"])
    if not (args.check or args.capture or args.compare or args.workload):
        parser.error("give --workload, --check, --capture or --compare")
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes one or two files")
    return args


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if args.compare:
        import capture

        return capture.compare(SPEC, *args.compare)
    if args.capture:
        import capture

        return capture.capture(SPEC, ROOT, Path(args.capture), RUNS)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: the program's source is missing ({ROOT / 'src' / 'repro'})",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import workloads  # noqa: F401 - imports the program; timed as set-up
    from repro.core.stripengine import resolve_engine

    import_s = time.perf_counter() - started
    engine = resolve_engine("auto")
    print(f"# engine: auto -> {engine}")
    if engine != args.expect_engine:
        print(
            f"error: engine 'auto' resolved to {engine}, not "
            f"{args.expect_engine}",
            file=sys.stderr,
        )
        return 2

    if not args.check:
        result = run_workload(args, args.workload, args.seed, bool(args.trace), import_s)
        specs = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
        views = result["layers"] if args.trace else result["e2e"]
        metrics = print_metrics(specs, views["scaled"])
        for problem in result["problems"]:
            print(f"# problem: {problem}")
        # The unscaled values and the factor, for --capture and --compare.
        print(
            "# raw: " + json.dumps({"scale": result["scale"], "metrics": views["raw"]})
        )
        print(
            json.dumps(
                {
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "metrics": metrics,
                }
            )
        )
        # A run that failed must not pass as a fast one.
        return 0 if result["correct"] else 1

    failures = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(args, name, args.seed, True, import_s)
        print_metrics(SPEC["end_to_end"], result["e2e"]["scaled"])
        print_metrics(SPEC["per_layer"], result["layers"]["scaled"])
        print(
            f"  error_rate {result['failed'] / result['attempted']:.4f} "
            f"({result['failed']} of {result['attempted']})"
        )
        for problem in result["problems"]:
            print(f"CHECK FAILURE {name}: {problem}")
        failures += not result["correct"]
    print("check passed" if not failures else f"check failed: {failures} workload(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
