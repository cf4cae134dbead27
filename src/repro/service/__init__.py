"""The extraction service: a long-lived daemon over the extractors.

Every other entry point in this repository is a one-shot CLI that pays
the full cold-start bill — parse the technology, load the strip engine,
warm nothing — on each invocation.  This package hosts the extractors
the way the ROADMAP's serve-heavy-traffic goal wants them hosted:

* :mod:`repro.service.server` — the daemon: a JSON job API over
  stdlib HTTP, a bounded admission-controlled queue that merges
  identical in-flight submissions, the content-addressed result cache,
  and graceful drain on SIGTERM;
* :mod:`repro.service.engine` — the job body and the worker processes
  that run it, one job at a time each, every worker keeping its own
  warm window memo across jobs;
* :mod:`repro.service.metrics` — the ``/metrics`` plane: counters,
  latency quantile rings, per-stage timings;
* :mod:`repro.service.client` — a thin blocking client, used by
  ``repro-submit``, the load benchmark, and the difftest oracle.

Quickstart::

    from repro.service import ExtractionService, ServiceConfig, ServiceClient

    service = ExtractionService(ServiceConfig(port=0, workers=2))
    service.start()
    client = ServiceClient(port=service.port)
    result = client.extract(open("chip.cif").read(), name="chip.cif")
    print(result["wirelist"])
    service.close()
"""

from .cache import ResultCache, payload_digest, result_cache_key
from .client import JobFailed, ServiceClient, ServiceError
from .engine import JobCancelled, JobTimeout, run_job
from .jobs import (
    Job,
    JobOptions,
    JobQueue,
    JobState,
    JobStore,
    OptionsError,
    QueueClosed,
    QueueFull,
)
from .metrics import LatencyRing, Metrics, quantile
from .server import DEFAULT_PORT, ExtractionService, ServiceConfig

__all__ = [
    "DEFAULT_PORT",
    "ExtractionService",
    "Job",
    "JobCancelled",
    "JobFailed",
    "JobOptions",
    "JobQueue",
    "JobState",
    "JobStore",
    "JobTimeout",
    "LatencyRing",
    "Metrics",
    "OptionsError",
    "QueueClosed",
    "QueueFull",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "payload_digest",
    "quantile",
    "result_cache_key",
    "run_job",
]
