"""Self-test of the benchmark: ``python -m pytest e2ebench``.

Runs ``run.py --check --quick`` (every workload on small inputs, with
the reference-engine, netlist, trace and seed oracles) so that a change
to the program internals the traced passes call breaks this test, not
the benchmark's next capture.  Then one plain run must end in its
one-line JSON result.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str) -> "subprocess.CompletedProcess[str]":
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_check_quick_prints_every_metric() -> None:
    proc = run("--check", "--quick")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "check passed" in proc.stdout
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}$"
        found = re.findall(pattern, proc.stdout, re.MULTILINE)
        assert len(found) == len(SPEC["workloads"]), metric["name"]


def test_single_run_result_line() -> None:
    proc = run(
        "--quick", "--workload", "mesh-flat", "--seed", "3", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
