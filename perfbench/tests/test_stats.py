"""Unit tests for the benchmark's statistics and tracing helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json

import pytest

from perfbench.common import END_TO_END, PER_LAYER, ROOT, USER_METRICS
from perfbench.stats import (
    MIN_BEYOND,
    Span,
    beyond,
    median,
    percentile,
    rows_checksum,
    self_times,
    summarize,
    table_checksum,
    tail_percentile,
)
from perfbench.trace import Tracer


class TestPercentileRule:
    def test_p95_needs_ten_samples_beyond(self):
        assert beyond(95.0, 200) == MIN_BEYOND
        assert percentile(list(range(1, 201)), 95.0) == 190
        assert beyond(95.0, 199) < MIN_BEYOND
        assert percentile(list(range(1, 200)), 95.0) is None

    def test_median_needs_one_sample(self):
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([], 50.0) is None

    @pytest.mark.parametrize(
        "n, expected",
        [(19, None), (20, None), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0),
         (1000, 99.0), (10_000, 99.9)],
    )
    def test_tail_is_highest_percentile_with_enough_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_summary_reports_median_tail_and_count(self):
        values = [float(v) for v in range(200, 0, -1)]  # order must not matter
        summary = summarize(values)
        assert summary == (200, 100.0, 95.0, 190.0)
        assert summary.describe("ms") == "p50 100 ms, p95 190 ms (n=200)"

    def test_summary_of_few_samples_has_no_tail(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert (summary.n, summary.p50, summary.tail_q, summary.tail) == (3, 2.0, None, None)
        assert summary.describe("s") == "p50 2 s (n=3)"
        assert summarize([]).describe("s") == "no samples"

    def test_median_of_even_count_interpolates(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        with pytest.raises(ValueError):
            median([])


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([Span(1, "a", 0.0, 2.5, 0, None)]) == {1: 2.5}

    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span(1, "parent", 0.0, 10.0, 0, "q"),
            Span(2, "child", 1.0, 3.0, 1, "q"),
            Span(3, "child", 2.0, 5.0, 1, "q"),
            Span(4, "child", 7.0, 8.0, 1, "q"),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
        assert own[2] == pytest.approx(2.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [Span(1, "p", 0.0, 10.0, 0, None), Span(2, "c", 9.0, 12.0, 1, None)]
        assert self_times(spans)[1] == pytest.approx(9.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            Span(1, "root", 0.0, 10.0, 0, None),
            Span(2, "mid", 2.0, 6.0, 1, None),
            Span(3, "leaf", 3.0, 5.0, 2, None),
        ]
        own = self_times(spans)
        assert own[1] == pytest.approx(6.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(2.0)


class TestChecksums:
    def test_rows_checksum_ignores_order(self):
        rows = [(1, "a", 1.5), (2, "b", 2.5), (2, "b", 2.5)]
        assert rows_checksum(rows) == rows_checksum(list(reversed(rows)))
        assert rows_checksum(rows) != rows_checksum(rows[:2])

    def test_table_checksum_follows_order(self):
        rows = [(1, "a"), (2, "b")]
        assert table_checksum(rows) == table_checksum(list(rows))
        assert table_checksum(rows) != table_checksum(list(reversed(rows)))


class _Estimator:
    def __init__(self):
        self.seen: list = []

    def on_probe(self, key, row):
        self.seen.append(("row", key))

    def on_probe_batch(self, keys, rows):
        self.seen.append(("batch", tuple(keys)))

    on_probe.batch_hook_name = "on_probe_batch"


class TestTracer:
    def test_hook_wrapper_carries_the_batch_twin(self):
        from repro.executor.operators.base import batch_hook_of, make_batch_dispatch

        est = _Estimator()
        tracer = Tracer()
        tracer.qid = "q1"
        wrapped = tracer.wrap_hook(est.on_probe)
        assert batch_hook_of(wrapped) is not None
        make_batch_dispatch([wrapped])([1, 2, 3], [(1,), (2,), (3,)])
        assert est.seen == [("batch", (1, 2, 3))]
        assert tracer.count("core.hook_calls.batch", {"q1"}) == 1
        assert tracer.count("core.hook_calls.row") == 0
        assert [s.name for s in tracer.spans] == ["core.hook"]

    def test_hook_without_twin_stays_per_row(self):
        from repro.executor.operators.base import batch_hook_of, make_batch_dispatch

        seen = []
        tracer = Tracer()
        wrapped = tracer.wrap_hook(lambda key, row: seen.append(key))
        assert batch_hook_of(wrapped) is None
        make_batch_dispatch([wrapped])([1, 2], [(1,), (2,)])
        assert seen == [1, 2]
        assert tracer.count("core.hook_calls.row") == 2
        assert tracer.total("core.hook_row_s") >= 0.0

    def test_patch_records_nested_spans_and_restores(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 41

        original = Layer.__dict__["outer"]
        tracer = Tracer()
        tracer.patch(Layer, "outer", "outer")
        tracer.patch(Layer, "inner", "inner", qid_of=lambda args: "q7")
        assert Layer().outer() == 42
        inner, outer = tracer.spans
        assert (inner.name, inner.parent, inner.qid) == ("inner", outer.sid, "q7")
        assert (outer.name, outer.parent, outer.qid) == ("outer", 0, None)
        tracer.restore()
        assert Layer.__dict__["outer"] is original

    def test_counted_keeps_pairing_attributes(self):
        tracer = Tracer()
        counted = tracer.counted(_Estimator.on_probe, "n")
        assert counted.batch_hook_name == "on_probe_batch"
        counted(_Estimator(), 1, (1,))
        assert tracer.count("n") == 1


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(USER_METRICS) <= set(END_TO_END) | set(PER_LAYER)
