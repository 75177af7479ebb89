"""Tests for the exact frequency histogram."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.histogram import BucketizedHistogram, FrequencyHistogram

# Random update sequences: weighted single adds (weight 0 included) and
# batch adds whose key lists may hold None.
_keys = st.one_of(st.none(), st.integers(min_value=0, max_value=12))
_updates = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=12),
                  st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("add_batch"), st.lists(_keys, max_size=20)),
    ),
    max_size=40,
)


def _apply(hist, update) -> None:
    if update[0] == "add":
        hist.add(update[1], update[2])
    else:
        hist.add_batch(update[1])


class TestBasics:
    def test_counts(self):
        h = FrequencyHistogram()
        h.add_many([1, 2, 2, 3, 3, 3])
        assert h.count(1) == 1
        assert h[2] == 2
        assert h[3] == 3
        assert h.count(99) == 0
        assert h.total == 6
        assert h.num_distinct == 3
        assert len(h) == 3

    def test_add_returns_old_count(self):
        h = FrequencyHistogram()
        assert h.add("x") == 0
        assert h.add("x") == 1
        assert h.add("x", weight=5) == 2

    def test_weighted_add(self):
        h = FrequencyHistogram()
        h.add("v", weight=10)
        assert h["v"] == 10
        assert h.total == 10

    def test_zero_weight_is_noop(self):
        h = FrequencyHistogram()
        h.add("v")
        assert h.add("v", weight=0) == 1
        assert h["v"] == 1

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FrequencyHistogram().add("v", weight=-1)

    def test_contains_and_iter(self):
        h = FrequencyHistogram()
        h.add_many("ab")
        assert "a" in h
        assert set(h) == {"a", "b"}

    def test_max_multiplicity(self):
        h = FrequencyHistogram()
        assert h.max_multiplicity() == 0
        h.add_many([1, 1, 1, 2])
        assert h.max_multiplicity() == 3


class TestIncrementalMaxMultiplicity:
    """``max_multiplicity`` is kept by the updates, not rescanned; after
    every step it must equal a full scan of the counts."""

    @pytest.mark.parametrize("track", [False, True], ids=["plain", "fof"])
    @given(updates=_updates)
    def test_matches_full_scan(self, track, updates):
        h = FrequencyHistogram(track_frequencies=track)
        assert h.max_multiplicity() == 0
        for update in updates:
            _apply(h, update)
            assert h.max_multiplicity() == max(h.counts.values(), default=0)

    @given(updates=_updates)
    def test_bucketized_matches_full_scan(self, updates):
        h = BucketizedHistogram(num_buckets=4)
        assert h.max_multiplicity() == 0
        for update in updates:
            _apply(h, update)
            assert h.max_multiplicity() == max(h.buckets, default=0)


class TestFrequencyOfFrequencies:
    def test_tracked_incrementally(self):
        h = FrequencyHistogram(track_frequencies=True)
        h.add_many([1, 2, 2, 3, 3, 3])
        assert h.frequency_counts() == {1: 1, 2: 1, 3: 1}

    def test_matches_on_demand_computation(self):
        tracked = FrequencyHistogram(track_frequencies=True)
        untracked = FrequencyHistogram()
        data = [1, 1, 2, 5, 5, 5, 5, 9, 9, 1]
        tracked.add_many(data)
        untracked.add_many(data)
        assert tracked.frequency_counts() == untracked.frequency_counts()

    def test_weighted_transitions(self):
        h = FrequencyHistogram(track_frequencies=True)
        h.add("a", weight=3)
        assert h.frequency_counts() == {3: 1}
        h.add("a", weight=2)
        assert h.frequency_counts() == {5: 1}

    def test_old_buckets_cleaned_up(self):
        h = FrequencyHistogram(track_frequencies=True)
        h.add("a")
        h.add("a")
        assert 1 not in h.frequency_counts()


class TestDot:
    def test_exact_join_size(self):
        a = FrequencyHistogram()
        b = FrequencyHistogram()
        a.add_many([1, 1, 2, 3])
        b.add_many([1, 2, 2, 4])
        # 2*1 + 1*2 = 4
        assert a.dot(b) == 4
        assert b.dot(a) == 4

    def test_disjoint(self):
        a = FrequencyHistogram()
        b = FrequencyHistogram()
        a.add_many([1, 2])
        b.add_many([3, 4])
        assert a.dot(b) == 0


class TestMemoryAccounting:
    def test_model_bytes_linear_in_entries(self):
        h = FrequencyHistogram()
        for i in range(1000):
            h.add(i)
        assert h.memory_model_bytes() == 1000 * 20
        assert h.memory_payload_bytes() == 1000 * 8

    def test_actual_bytes_positive_and_growing(self):
        h = FrequencyHistogram()
        empty = h.memory_actual_bytes()
        for i in range(10_000):
            h.add(i)
        assert h.memory_actual_bytes() > empty
