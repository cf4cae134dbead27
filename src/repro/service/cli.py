"""Command-line front ends: ``repro-serve`` and ``repro-submit``.

``repro-serve`` runs the daemon in the foreground and drains cleanly on
SIGTERM/SIGINT: admission closes immediately, every accepted job
finishes (bounded by ``--drain-grace``), then the process exits 0 — or
2 when the grace period expired with work still in flight.

``repro-submit`` is the one-shot client: submit a CIF file (inline by
default, by path with ``--by-path`` when client and daemon share a
filesystem), block until the wirelist is ready, and print it — the same
contract as ``ace-extract``, minus the cold start.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import types

from ..cli import add_version_argument
from ..core.stripengine import (
    ENGINE_CHOICES,
    EngineUnavailable,
    resolve_engine,
)
from .client import JobFailed, ServiceClient, ServiceError
from .server import DEFAULT_PORT, ExtractionService, ServiceConfig


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-lived extraction daemon: JSON job API over "
        "HTTP with a result cache, warm window memo, and metrics plane.",
    )
    add_version_argument(parser)
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port; 0 binds an ephemeral port (default %(default)s)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes: jobs run at once, each in its own "
        "process with its own warm window memo (default %(default)s)",
    )
    parser.add_argument(
        "--queue",
        type=int,
        default=64,
        metavar="N",
        help="job queue capacity before 429 backpressure "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--result-cache",
        metavar="DIR",
        help="persist results on disk here, so they survive a restart "
        "(default: memory only); several daemons may share one directory",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="evict the disk result store LRU-first beyond N entries",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="evict the disk result store LRU-first beyond this size",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire disk result entries older than this",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="default per-job timeout (default %(default)s)",
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="max wait for in-flight jobs at shutdown (default %(default)s)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="strip-batch engine for every extraction this daemon runs "
        "(default %(default)s: numpy when importable).  Results are "
        "byte-identical across engines, so the choice never splits the "
        "result cache.",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress structured logs"
    )
    return parser


def serve_main(argv: "list[str] | None" = None) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        engine = resolve_engine(args.engine)
    except EngineUnavailable as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2
    service = ExtractionService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_capacity=args.queue,
            result_cache_dir=args.result_cache,
            cache_max_entries=args.cache_max_entries,
            cache_max_bytes=args.cache_max_bytes,
            cache_ttl=args.cache_ttl,
            default_timeout=args.timeout,
            drain_grace=args.drain_grace,
            quiet=args.quiet,
            engine=engine,
        )
    )
    stop = threading.Event()

    def _handle(signum: int, frame: "types.FrameType | None") -> None:
        service.log(event="signal", signal=signal.Signals(signum).name)
        stop.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    service.start()
    stop.wait()
    clean = service.drain()
    return 0 if clean else 2


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-submit",
        description="Submit CIF layouts to a running extraction daemon "
        "and print the wirelist.",
    )
    add_version_argument(parser)
    parser.add_argument("cif", help="input CIF file")
    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default %(default)s)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="daemon port (default %(default)s)",
    )
    parser.add_argument(
        "-o", "--output", help="wirelist output file (default: stdout)"
    )
    parser.add_argument(
        "--hierarchical",
        action="store_true",
        help="hierarchical extraction (HEXT) with the daemon's warm memo",
    )
    parser.add_argument(
        "--lambda",
        dest="lambda_",
        type=int,
        default=None,
        metavar="CENTIMICRONS",
        help="process lambda in centimicrons (default 250)",
    )
    parser.add_argument(
        "--deck",
        default=None,
        metavar="NAME",
        help="builtin technology deck the daemon extracts under "
        "(nmos, cmos; default nmos)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the design-rule checker; diagnostics go to stderr",
    )
    parser.add_argument(
        "--geometry",
        action="store_true",
        help="include per-net and per-device geometry (flat mode only)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout enforced daemon-side",
    )
    parser.add_argument(
        "--wait",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="how long to poll before giving up (default %(default)s)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry the submission up to N times on 429/503 "
        "backpressure or connection failure, honoring Retry-After "
        "with jittered exponential backoff (default %(default)s)",
    )
    parser.add_argument(
        "--by-path",
        action="store_true",
        help="send the file path instead of its contents (daemon must "
        "share the filesystem)",
    )
    return parser


def submit_main(argv: "list[str] | None" = None) -> int:
    args = build_submit_parser().parse_args(argv)
    client = ServiceClient(
        args.host, args.port, timeout=args.wait + 10.0, retries=args.retries
    )
    options: dict = {"name": args.cif.rsplit("/", 1)[-1]}
    if args.hierarchical:
        options["hext"] = True
    if args.lambda_ is not None:
        options["lambda"] = args.lambda_
    if args.deck:
        options["deck"] = args.deck
    if args.lint:
        options["lint"] = True
    if args.geometry:
        options["keep_geometry"] = True
    if args.timeout is not None:
        options["timeout"] = args.timeout

    try:
        if args.by_path:
            result = client.extract(
                path=args.cif, wait_timeout=args.wait, **options
            )
        else:
            with open(args.cif, "r", encoding="utf-8") as handle:
                text = handle.read()
            result = client.extract(
                text, wait_timeout=args.wait, **options
            )
    except JobFailed as exc:
        print(f"repro-submit: job failed: {exc}", file=sys.stderr)
        return 1
    except (ServiceError, TimeoutError, OSError) as exc:
        print(f"repro-submit: {exc}", file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(result["wirelist"])
    else:
        sys.stdout.write(result["wirelist"])
    for warning in result.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    for diag in result.get("diagnostics", ()):
        severity = diag.get("severity", "warning")
        rule = diag.get("rule", "?")
        message = diag.get("message", "")
        print(f"{severity}: [{rule}] {message}", file=sys.stderr)
    errors = int(result.get("lint_errors", 0))
    if errors:
        print(f"lint: {errors} error(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
