"""Incremental extraction across edits."""

from repro import extract
from repro.hext.incremental import IncrementalExtractor
from repro.wirelist import circuit_to_flat, compare_netlists
from repro.workloads import (
    LayoutBuilder,
    build_chain_inverter_cell,
    transistor_array,
)


def _chip(edited_column: int | None = None):
    """Four rows of six chain inverters; one column optionally edited."""
    builder = LayoutBuilder()
    normal = build_chain_inverter_cell(builder)
    edited = build_chain_inverter_cell(builder, load_length=5)
    for i in range(4):
        for j in range(6):
            cell = edited if j == edited_column else normal
            builder.top.call(cell, j * 10, i * 28)
    return builder.done()


class TestReuse:
    def test_second_identical_run_fully_cached(self):
        inc = IncrementalExtractor()
        inc.extract(_chip())
        first = inc.last_stats
        assert first.reused_from_previous == 0
        inc.extract(_chip())
        second = inc.last_stats
        assert second.freshly_extracted == 0
        assert second.reused_from_previous > 0
        assert second.reuse_fraction == 1.0

    def test_edit_reextracts_only_changed_windows(self):
        inc = IncrementalExtractor()
        inc.extract(_chip())
        before = len(inc)
        result = inc.extract(_chip(edited_column=2))
        stats = inc.last_stats
        # The edited cell is one new unique window (plus possibly a new
        # top composition); the 23 unchanged cells come from the cache.
        assert 1 <= stats.freshly_extracted <= 3
        assert stats.reused_from_previous >= 20
        assert len(inc) > before  # new variant cached alongside
        assert len(result.circuit.devices) == 48

    def test_edited_result_is_correct(self):
        inc = IncrementalExtractor()
        inc.extract(_chip())
        incremental = inc.extract(_chip(edited_column=3)).circuit
        fresh = extract(_chip(edited_column=3))
        report = compare_netlists(
            circuit_to_flat(fresh), circuit_to_flat(incremental)
        )
        assert report.equivalent, report.reason
        # The edit must actually be visible: one column of longer loads
        # (5-lambda channel at lambda=250 centimicrons).
        long_loads = [d for d in incremental.devices if d.length == 1250]
        assert len(long_loads) == 4

    def test_cache_shared_across_different_chips(self):
        inc = IncrementalExtractor()
        inc.extract(transistor_array(4))
        inc.extract(transistor_array(8))
        stats = inc.last_stats
        # The 4x4 sub-blocks of the 8x8 array were already cached.
        assert stats.reused_from_previous >= 1


class TestCrossLayoutSafety:
    def test_same_symbol_number_different_content(self):
        # Symbol numbers are layout-local; a persistent cache keyed by
        # number would serve stale fragments here.  Regression test for
        # the structural-fingerprint keying.
        inc = IncrementalExtractor()

        def single_cell_chip(load_length):
            builder = LayoutBuilder()
            cell = build_chain_inverter_cell(builder, load_length=load_length)
            builder.top.call(cell, 0, 0)
            builder.top.call(cell, 10, 0)
            return builder.done()

        first = inc.extract(single_cell_chip(4)).circuit
        second = inc.extract(single_cell_chip(5)).circuit
        assert {d.length for d in first.devices} == {500, 1000}
        assert {d.length for d in second.devices} == {500, 1250}

    def test_structurally_identical_symbols_share_cache(self):
        # Two distinct symbol definitions with identical artwork get the
        # same fingerprint, so the second is a cache hit.
        builder = LayoutBuilder()
        a = build_chain_inverter_cell(builder)
        b = build_chain_inverter_cell(builder)  # identical twin
        wrap_a = builder.new_symbol()
        wrap_a.call(a, 0, 0)
        wrap_b = builder.new_symbol()
        wrap_b.call(b, 0, 0)
        builder.top.call(wrap_a, 0, 0)
        builder.top.call(wrap_b, 20, 0)
        inc = IncrementalExtractor()
        inc.extract(builder.done())
        assert inc.last_stats.reused_within_run >= 1


class TestPrune:
    def test_prune_drops_abandoned_revisions(self):
        inc = IncrementalExtractor()
        inc.extract(_chip(edited_column=1))
        inc.extract(_chip())  # revert the edit
        removed = inc.prune()
        assert removed >= 1
        # Pruning must not break subsequent extraction.
        result = inc.extract(_chip())
        assert len(result.circuit.devices) == 48

    def test_clear(self):
        inc = IncrementalExtractor()
        inc.extract(_chip())
        assert len(inc) > 0
        inc.clear()
        assert len(inc) == 0


class TestCrossSessionMemo:
    """Explicit hit/miss accounting across separate extract() calls."""

    def test_untouched_windows_hit_without_reextraction(self):
        inc = IncrementalExtractor()
        inc.extract(_chip())
        entries = len(inc)
        inc.extract(_chip())
        stats = inc.last_stats
        # Every window the second run needed came from the first run's
        # memo: zero fresh extractions, and the memo did not grow.
        assert stats.freshly_extracted == 0
        assert stats.reused_from_previous >= 1
        assert stats.reuse_fraction == 1.0
        assert len(inc) == entries

    def test_edited_window_misses_while_neighbors_hit(self):
        inc = IncrementalExtractor()
        inc.extract(_chip())
        entries = len(inc)
        inc.extract(_chip(edited_column=4))
        stats = inc.last_stats
        # The edited cell's fingerprint changed, so it (and the top
        # composition containing it) missed; the 5 untouched columns
        # still answered from the previous session's entries.
        assert stats.freshly_extracted >= 1
        assert stats.reused_from_previous >= 1
        assert stats.reuse_fraction < 1.0
        assert len(inc) > entries  # the miss was cached for next time

    def test_prune_keeps_exactly_the_latest_run(self):
        inc = IncrementalExtractor()
        inc.extract(_chip(edited_column=1))
        inc.extract(_chip())  # abandon the edited revision
        removed = inc.prune()
        assert removed >= 1
        # Idempotent: everything left was used by the latest run.
        assert inc.prune() == 0
        # And sufficient: re-running that run is still fully cached.
        inc.extract(_chip())
        assert inc.last_stats.freshly_extracted == 0
        assert inc.last_stats.reuse_fraction == 1.0

    def test_pruned_revision_is_a_miss_again(self):
        inc = IncrementalExtractor()
        inc.extract(_chip(edited_column=1))
        inc.extract(_chip())
        inc.prune()  # drops the edited-column entries
        inc.extract(_chip(edited_column=1))
        assert inc.last_stats.freshly_extracted >= 1


class TestExecuteOptions:
    def test_fragment_cache_serves_a_fresh_memo(self, tmp_path):
        cache = str(tmp_path / "fragments")
        first = IncrementalExtractor().extract(_chip(), cache=cache)
        assert first.stats.cache_misses == first.stats.flat_calls > 0
        # A new session's memo is empty, so its windows come from disk.
        warm = IncrementalExtractor().extract(_chip(), cache=cache)
        assert warm.stats.flat_calls == 0
        assert warm.stats.cache_hits == first.stats.flat_calls
        report = compare_netlists(
            circuit_to_flat(extract(_chip())), circuit_to_flat(warm.circuit)
        )
        assert report.equivalent, report.reason
