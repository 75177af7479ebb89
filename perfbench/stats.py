"""Statistics helpers shared by every workload.

Two rules live here so that they are tested once (``perfbench/tests``):

* the percentile rule: a timing is reported as its median plus the highest
  percentile that still has at least :data:`MIN_BEYOND` samples above it,
  always together with the sample count;
* span self time: a span's duration minus the part of its interval that its
  child spans cover.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

#: Percentiles the tail is chosen from, highest wins.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile ``q`` in ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - _rank(q, n)


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or None when fewer than
    :data:`MIN_BEYOND` samples would lie beyond it (the median is exempt:
    it needs only one sample)."""
    n = len(values)
    if n == 0:
        return None
    if q != 50.0 and beyond(q, n) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[_rank(q, n) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` above the median with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or None."""
    best = None
    for q in PERCENTILES[1:]:
        if beyond(q, n) >= MIN_BEYOND:
            best = q
    return best


class Summary(NamedTuple):
    """Median and tail of one timing, with its sample count."""

    n: int
    p50: float | None
    tail_q: float | None
    tail: float | None

    def describe(self, unit: str) -> str:
        if self.n == 0:
            return "no samples"
        text = f"p50 {self.p50:.4g} {unit}"
        if self.tail_q is not None:
            text += f", p{self.tail_q:g} {self.tail:.4g} {unit}"
        return text + f" (n={self.n})"


def summarize(values: Sequence[float]) -> Summary:
    """Median plus the highest percentile with enough samples beyond it."""
    n = len(values)
    if n == 0:
        return Summary(0, None, None, None)
    q = tail_percentile(n)
    return Summary(n, percentile(values, 50.0), q, percentile(values, q) if q else None)


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Span(NamedTuple):
    """One timed call: ``parent`` is the enclosing span's id (0 = root)."""

    sid: int
    name: str
    start: float
    end: float
    parent: int
    qid: str | None


def _covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in children if min(e, hi) > max(s, lo)
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - _covered((span.start, span.end), children.get(span.sid, []))
        for span in spans
    }


def table_checksum(rows: Iterable[tuple]) -> str:
    """Order-sensitive digest of a table's rows, independent of hash seeds."""
    digest = hashlib.blake2b(digest_size=8)
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def rows_checksum(rows: Iterable[tuple]) -> int:
    """Order-independent multiset checksum of result rows.

    Uses the built-in hash, so it is comparable only between processes
    that share a ``PYTHONHASHSEED`` (the benchmark fixes it per seed).
    """
    total = 0
    count = 0
    for row in rows:
        total += hash(row)
        count += 1
    return (total + count) & 0xFFFFFFFFFFFFFFFF
