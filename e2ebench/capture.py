"""Sets of runs, their summaries, and the comparison of two sets.

A capture file is ``{"sets": [set, ...]}``.  A set holds every run's
last stdout line, its unscaled values and host-speed factor (``raw``),
plus, per (workload, end-to-end metric), the median, quartiles and
spread (interquartile range over the median), and per workload the
median host-speed factor.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import time
from pathlib import Path

#: Two sets whose median host-speed factors differ by more than this
#: share ran at different host speeds; their times are not compared.
SCALE_TOLERANCE = 0.05


def summarize(runs: "list[dict]") -> dict:
    """Median, quartiles and spread per workload and metric."""
    summary: dict = {}
    for run in runs:
        if run["trace"]:
            continue
        per = summary.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    for per in summary.values():
        for name, values in per.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            per[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "runs": len(values),
            }
    return summary


def host_scales(runs: "list[dict]") -> "dict[str, float]":
    """Median host-speed factor of each workload's untraced runs."""
    per: "dict[str, list[float]]" = {}
    for run in runs:
        if not run["trace"]:
            per.setdefault(run["workload"], []).append(run["raw"]["scale"])
    return {workload: statistics.median(values) for workload, values in per.items()}


def capture(spec: dict, root: Path, out: Path, runs: int) -> int:
    """Run every workload ``runs`` times (seeds 0..runs-1) and once
    traced, each in a fresh process, and append the set to ``out``."""
    records = []
    started = time.time()
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed, trace in [(s, 0) for s in range(runs)] + [(0, 1)]:
            argv = [
                *spec["command"],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(trace),
            ]
            t0 = time.perf_counter()
            proc = subprocess.run(
                argv, cwd=root, capture_output=True, text=True, timeout=180
            )
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            record = json.loads(lines[-1])
            record.update(
                workload=workload,
                seed=seed,
                trace=trace,
                elapsed_s=elapsed,
                passes=next(line for line in lines if line.startswith(f"# {workload}")),
                raw=json.loads(
                    next(line for line in lines if line.startswith("# raw: "))[7:]
                ),
            )
            records.append(record)
            print(
                f"{workload} seed {seed} trace {trace}: {elapsed:.1f}s, "
                f"correct {record['correct']}, failed {record['failed']}",
                flush=True,
            )
    entry = {
        "host": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "wall_minutes": round((time.time() - started) / 60, 1),
        "summary": summarize(records),
        "host_scale": host_scales(records),
        "runs": records,
    }
    data = json.loads(out.read_text()) if out.exists() else {"sets": []}
    data["sets"].append(entry)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print_spreads(spec, entry["summary"])
    return 0 if all(r["correct"] for r in records) else 1


def print_spreads(spec: dict, summary: dict) -> None:
    for workload, per in summary.items():
        for metric in spec["end_to_end"]:
            stats = per[metric["name"]]
            flag = "" if stats["spread"] < metric["bound"] / 3 else "  <-- over bound/3"
            print(
                f"{workload:<12} {metric['name']:<14} median {stats['median']:.4f} "
                f"spread {stats['spread']:.3f} (bound {metric['bound']}){flag}"
            )


def compare(spec: dict, base_path: str, new_path: "str | None" = None) -> int:
    """Per (workload, end-to-end metric): both medians, their ratio, the
    bound and a verdict; exit 1 if any is outside its bound."""
    base_sets = json.loads(Path(base_path).read_text())["sets"]
    if new_path is None:
        base, new = base_sets[0], base_sets[-1]
    else:
        base, new = base_sets[-1], json.loads(Path(new_path).read_text())["sets"][-1]
    outside = 0
    print(f"{'workload':<12} {'metric':<14} {'base':>10} {'new':>10} {'ratio':>7} bound  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        host = new["host_scale"][workload] / base["host_scale"][workload]
        drifted = abs(host - 1.0) > SCALE_TOLERANCE
        if drifted:
            print(
                f"warning: {workload}: host-speed factors differ by "
                f"{100 * (host - 1.0):+.1f}%; its times are unresolved "
                "(compare alternating runs of both versions instead)"
            )
        for metric in spec["end_to_end"]:
            b = base["summary"][workload][metric["name"]]
            n = new["summary"][workload][metric["name"]]
            ratio = n["median"] / b["median"]
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if max(b["spread"], n["spread"]) > metric["bound"] or (
                drifted and metric["unit"] == "s"
            ):
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "outside"
                outside += 1
            else:
                verdict = "within"
            print(
                f"{workload:<12} {metric['name']:<14} {b['median']:>10.4f} "
                f"{n['median']:>10.4f} {ratio:>7.3f} {metric['bound']:<5}  {verdict}"
            )
    return 1 if outside else 0
