"""Quantiles, the latency ring, and the aggregate metrics snapshot."""

import pytest

from repro.pipeline import Trace
from repro.service.metrics import LatencyRing, Metrics, quantile


class TestQuantile:
    def test_empty_and_singleton(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([3.0], 0.99) == 3.0

    def test_exact_positions(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 0.5) == 3.0
        assert quantile(values, 1.0) == 5.0

    def test_linear_interpolation(self):
        assert quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)


class TestLatencyRing:
    def test_window_smaller_than_size(self):
        ring = LatencyRing(size=8)
        for value in (0.1, 0.2, 0.3):
            ring.observe(value)
        snap = ring.snapshot()
        assert snap["window"] == 3
        assert snap["observed"] == 3
        assert snap["max_seconds"] == pytest.approx(0.3)
        assert snap["mean_seconds"] == pytest.approx(0.2)

    def test_ring_overwrites_oldest(self):
        ring = LatencyRing(size=4)
        for value in (9.0, 9.0, 9.0, 9.0, 0.1, 0.2, 0.3, 0.4):
            ring.observe(value)
        snap = ring.snapshot()
        # The four 9s aged out of the window entirely ...
        assert snap["window"] == 4
        assert snap["max_seconds"] == pytest.approx(0.4)
        assert snap["p99_seconds"] < 1.0
        # ... but the all-time accounting remembers them.
        assert snap["observed"] == 8
        assert ring.total_seconds == pytest.approx(37.0)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            LatencyRing(size=0)


class _FakeScanStats:
    boxes_in = 10
    stops = 4
    devices_created = 2
    heap_pushes = 7
    heap_pops = 7
    lazy_discards = 1
    expired = 3
    peak_active = 5


class _FakeHextStats:
    flat_calls = 3
    compose_calls = 2
    memo_hits = 6
    windows_seen = 9
    unique_windows = 3
    cache_hits = 1
    cache_misses = 2


class TestMetrics:
    def test_counters_and_cache_rate(self):
        metrics = Metrics()
        metrics.count("submitted", 4)
        metrics.count("completed", 3)
        metrics.count("cache_hits", 3)
        metrics.count("cache_misses", 1)
        snap = metrics.snapshot()
        assert snap["jobs"]["submitted"] == 4
        assert snap["jobs"]["failed"] == 0
        assert snap["cache"]["hit_rate"] == pytest.approx(0.75)

    def test_fold_scan_stats_accumulates(self):
        metrics = Metrics()
        metrics.fold_scan_stats(_FakeScanStats())
        metrics.fold_scan_stats(_FakeScanStats())
        snap = metrics.snapshot()
        assert snap["scanline"]["boxes_in"] == 20
        assert snap["scanline"]["devices_created"] == 4
        assert snap["scanline"]["peak_active"] == 5  # max, not sum

    def test_fold_trace_folds_scan_phases_into_stages(self):
        trace = Trace(
            wall=2.0,
            stages={"parse": 0.25, "extract": 1.0, "wirelist": 0.5},
            phases={"extract": {"strip": 0.5, "finalize": 0.25}},
        )
        metrics = Metrics()
        metrics.fold_trace(trace, "scan")
        metrics.fold_trace(trace, "scan")
        snap = metrics.snapshot()
        assert snap["stages"]["extract"] == pytest.approx(2.0)
        assert snap["stages"]["wirelist"] == pytest.approx(1.0)
        assert snap["stages"]["scan_strip"] == pytest.approx(1.0)
        assert snap["stages"]["scan_finalize"] == pytest.approx(0.5)

    def test_fold_trace_folds_hext_phases_into_stages(self):
        trace = Trace(
            wall=2.0,
            stages={"extract": 1.75},
            phases={"extract": {"execute": 1.0, "compose": 0.5}},
        )
        metrics = Metrics()
        metrics.fold_hext_stats(_FakeHextStats())
        metrics.fold_trace(trace, "hext")
        snap = metrics.snapshot()
        assert snap["hext"]["memo_hits"] == 6
        assert snap["stages"]["hext_execute"] == pytest.approx(1.0)
        assert snap["stages"]["hext_compose"] == pytest.approx(0.5)

    def test_observe_completion_feeds_both_rings(self):
        metrics = Metrics()
        metrics.observe_completion(2.0, 1.5)
        metrics.observe_completion(4.0, 3.5)
        snap = metrics.snapshot()
        assert snap["latency"]["mean_seconds"] == pytest.approx(3.0)
        assert snap["run_latency"]["mean_seconds"] == pytest.approx(2.5)
        assert metrics.mean_latency() == pytest.approx(3.0)

    def test_gauges_spliced_into_snapshot(self):
        snap = Metrics().snapshot(queue={"depth": 3}, draining=False)
        assert snap["queue"] == {"depth": 3}
        assert snap["draining"] is False
