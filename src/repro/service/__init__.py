"""The extraction service: a long-lived daemon over the extractors.

Every other entry point in this repository is a one-shot CLI that pays
the full cold-start bill — parse the technology, load the strip engine,
warm nothing — on each invocation.  This package hosts the extractors
the way the ROADMAP's serve-heavy-traffic goal wants them hosted:

* :mod:`repro.service.server` — the daemon: a JSON job API over
  stdlib HTTP, a bounded admission-controlled queue, worker threads,
  and graceful drain on SIGTERM;
* :mod:`repro.service.engine` — the job body, plus the state kept warm
  across requests: the incremental extractor's window memo and the
  content-addressed result cache;
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
from .engine import ExtractionEngine, JobCancelled, JobTimeout
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
    "ExtractionEngine",
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
]
