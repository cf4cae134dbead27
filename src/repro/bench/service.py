"""Service load benchmark: ``python -m repro.bench.service``.

Starts an in-process extraction daemon on an ephemeral port, then
hammers it over real HTTP with ``--clients`` concurrent blocking
clients, each submitting from a shared pool of distinct generated
layouts.  Two passes run back to back:

* **cold** — the daemon has never seen any payload: every request pays
  full extraction (this is also where the warm *window* memo builds);
* **warm** — the identical request mix again: every request must be a
  result-cache hit.

The report (``BENCH_service_load.json``) captures throughput and tail
latency (client-observed p50/p95/p99) per pass, the daemon's own
``/metrics`` snapshot, and the accounting the acceptance bar cares
about: submitted == completed (zero dropped jobs) and a warm pass
served entirely from the result cache.  ``--check`` turns those into
hard failures so CI can run the benchmark without timing flakiness.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

from ..cif import write as write_cif
from ..service import ExtractionService, ServiceClient, ServiceConfig
from ..service.client import ServiceError
from ..service.metrics import quantile
from ..workloads import dram_column, inverter, poly_diff_mesh, transistor_array

DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS = 6  #: requests per client per pass
DEFAULT_WORKERS = 4


def payload_pool() -> "list[tuple[str, str]]":
    """Distinct (name, cif) payloads; small but structurally varied."""
    return [
        ("inverter.cif", write_cif(inverter())),
        ("array8.cif", write_cif(transistor_array(8))),
        ("dram6.cif", write_cif(dram_column(6))),
        ("mesh6.cif", write_cif(poly_diff_mesh(6))),
    ]


def _client_loop(
    client: ServiceClient,
    payloads: "list[tuple[str, str]]",
    requests: int,
    offset: int,
    latencies: "list[float]",
    errors: "list[str]",
    hext: bool,
) -> None:
    for index in range(requests):
        name, cif = payloads[(offset + index) % len(payloads)]
        started = time.perf_counter()
        try:
            # Backpressure is part of the protocol: honor Retry-After.
            while True:
                try:
                    client.extract(
                        cif, name=name, hext=hext, wait_timeout=120.0
                    )
                    break
                except ServiceError as exc:
                    if exc.status != 429:
                        raise
                    time.sleep(min(exc.retry_after or 0.2, 1.0))
        except Exception as exc:  # noqa: BLE001 - recorded for the report
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - started)


def _run_pass(
    label: str,
    port: int,
    clients: int,
    requests: int,
    hext: bool,
) -> dict:
    latencies: "list[float]" = []
    errors: "list[str]" = []
    threads = []
    started = time.perf_counter()
    for index in range(clients):
        client = ServiceClient(port=port, timeout=150.0)
        thread = threading.Thread(
            target=_client_loop,
            args=(
                client, payload_pool(), requests, index, latencies, errors,
                hext,
            ),
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)
    total = clients * requests
    return {
        "pass": label,
        "requests": total,
        "completed": len(latencies),
        "errors": errors,
        "elapsed_seconds": round(elapsed, 4),
        "throughput_rps": round(len(latencies) / elapsed, 2) if elapsed else 0,
        "latency": {
            "p50_seconds": round(quantile(ordered, 0.50), 5),
            "p95_seconds": round(quantile(ordered, 0.95), 5),
            "p99_seconds": round(quantile(ordered, 0.99), 5),
            "max_seconds": round(ordered[-1], 5) if ordered else 0.0,
        },
    }


def bench_service(
    clients: int = DEFAULT_CLIENTS,
    requests: int = DEFAULT_REQUESTS,
    workers: int = DEFAULT_WORKERS,
    queue_capacity: int = 32,
    hext: bool = False,
) -> dict:
    """Run the cold/warm load test; returns the JSON-ready report."""
    service = ExtractionService(
        ServiceConfig(
            port=0,
            workers=workers,
            queue_capacity=queue_capacity,
            quiet=True,
        )
    )
    service.start()
    try:
        cold = _run_pass("cold", service.port, clients, requests, hext)
        after_cold = service.metrics_payload()
        warm = _run_pass("warm", service.port, clients, requests, hext)
        metrics = service.metrics_payload()
    finally:
        clean = service.drain(grace=30.0)
    warm_hits = (
        metrics["cache"]["hits"] - after_cold["cache"]["hits"]
    )
    return {
        "benchmark": "extraction service load test (real HTTP, "
        "concurrent blocking clients)",
        "config": {
            "clients": clients,
            "requests_per_client": requests,
            "workers": workers,
            "queue_capacity": queue_capacity,
            "hext": hext,
            "payloads": [name for name, _ in payload_pool()],
        },
        "passes": [cold, warm],
        "warm_cache_hits": warm_hits,
        "drained_clean": clean,
        "daemon_metrics": metrics,
    }


def check_report(report: dict) -> "list[str]":
    """The machine-independent acceptance bar; returns violations."""
    problems = []
    for entry in report["passes"]:
        if entry["completed"] != entry["requests"]:
            problems.append(
                f"{entry['pass']}: {entry['requests'] - entry['completed']}"
                f" of {entry['requests']} requests dropped: "
                + "; ".join(entry["errors"][:3])
            )
    warm = report["passes"][1]
    if report["warm_cache_hits"] < warm["requests"]:
        problems.append(
            f"warm pass expected >= {warm['requests']} result-cache hits, "
            f"daemon counted {report['warm_cache_hits']}"
        )
    jobs = report["daemon_metrics"]["jobs"]
    if jobs["failed"] or jobs["timed_out"]:
        problems.append(
            f"{jobs['failed']} failed + {jobs['timed_out']} timed-out jobs"
        )
    if not report["drained_clean"]:
        problems.append("daemon did not drain cleanly")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.service", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--clients", type=int, default=DEFAULT_CLIENTS,
        help="concurrent clients (default %(default)s)",
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS,
        help="requests per client per pass (default %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help="daemon worker processes (default %(default)s)",
    )
    parser.add_argument(
        "--queue", type=int, default=32,
        help="daemon queue capacity (default %(default)s)",
    )
    parser.add_argument(
        "--hext", action="store_true",
        help="submit hierarchical jobs (exercises the warm window memo)",
    )
    parser.add_argument(
        "--out", default="BENCH_service_load.json",
        help="report path (default %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail on dropped jobs or a warm pass that missed the cache",
    )
    args = parser.parse_args(argv)

    out = args.out
    report = bench_service(
        clients=args.clients,
        requests=args.requests,
        workers=args.workers,
        queue_capacity=args.queue,
        hext=args.hext,
    )
    Path(out).write_text(json.dumps(report, indent=2) + "\n")

    for entry in report["passes"]:
        lat = entry["latency"]
        print(
            f"{entry['pass']:>4}: {entry['completed']}/{entry['requests']} "
            f"ok, {entry['throughput_rps']:.1f} req/s, "
            f"p50 {lat['p50_seconds'] * 1000:.1f}ms  "
            f"p95 {lat['p95_seconds'] * 1000:.1f}ms  "
            f"p99 {lat['p99_seconds'] * 1000:.1f}ms"
        )
    print(
        f"warm cache hits: {report['warm_cache_hits']}, "
        f"drained clean: {report['drained_clean']}"
    )
    print(f"wrote {out}")

    if args.check:
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"LOAD TEST FAILURE: {problem}", file=sys.stderr)
            return 1
        print("service load invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
