"""Group-count (distinct value) estimation for aggregation (Section 4.2).

Three pieces, matching the paper:

**GEE (Algorithm 2)** — Charikar et al.'s Guaranteed Error Estimator,

    D_t = sqrt(|T| / t) · f_1  +  Σ_{j>=2} f_j,

maintained *incrementally*: the frequency-of-frequencies index gives the
singleton count ``S_1 = f_1`` and the multi-occurrence count
``S_+ = d_seen - f_1`` in O(1), so each new tuple costs one histogram
update. GEE scales the singletons up geometrically, which makes it strong
on high-skew data but a severe over-estimator on small samples of low-skew
data ("it tends to overestimate the number of groups when the sample size
is small").

**MLE estimator** — the paper's new estimator for the low-skew regime.
After t of |T| values, plug the MLE frequency estimates p̂ = i/t of the
observed groups into the expected-new-groups formula over a doubling
horizon (capped at the remaining input):

    D_t = ĝ + Σ_i f_i [ (1 - i/t)^t - (1 - i/t)^(t + r) ],   r = min(t, |T| - t)

with ĝ = Σ_i f_i the groups seen so far. (The published formula is partly
garbled in the available text; this reconstruction matches every stated
property: it is monotone, converges to the correct value as t → |T|,
"rarely overestimates ... prone to underestimation", and beats GEE on
low-skew data with moderately many groups.) Recomputation costs
O(#distinct frequencies), so it is *scheduled*, not per-tuple:

**Algorithm 3** — the adaptive recomputation interval. Start at the lower
bound l; whenever a recomputation lands within k of the previous estimate,
double the interval (up to u); otherwise reset it to l. Estimates are thus
refreshed often exactly when they are moving.

**The chooser** — the squared coefficient of variation γ² of observed group
frequencies (maintained in O(1) from prefix sums; see
:class:`repro.common.stats.IncrementalFrequencyStats`) measures skew. With
threshold τ (=10 in the paper): γ² < τ selects MLE, otherwise GEE.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from typing import Callable, Sequence

from repro.common.stats import IncrementalFrequencyStats
from repro.core.histogram import FrequencyHistogram

__all__ = [
    "GEEEstimator",
    "GroupFrequencyState",
    "HybridGroupCountEstimator",
    "MLEEstimator",
    "RecomputeScheduler",
]

TotalProvider = Callable[[], float]

DEFAULT_TAU = 10.0


class GroupFrequencyState:
    """Shared observation state: frequency histogram + γ² moments.

    ``observe(value, weight)`` supports weighted increments so the same
    state can be fed by a simulated join output (aggregation push-down).
    """

    __slots__ = ("histogram", "moments")

    def __init__(self) -> None:
        self.histogram = FrequencyHistogram(track_frequencies=True)
        self.moments = IncrementalFrequencyStats()

    def observe(self, value: object, weight: int = 1) -> None:
        old = self.histogram.add(value, weight)
        moments = self.moments
        if weight == 1:
            # Inlined unit-step transition: this is the per-input-tuple hot
            # path of every attached aggregate.
            if old == 0:
                moments.num_groups += 1
            moments.sum_freq += 1
            moments.sum_freq_sq += 2 * old + 1
        else:
            moments.observe_transition(old, old + weight)

    def observe_batch(
        self, values: Sequence[object], weights: Sequence[int] | None = None
    ) -> None:
        """Aggregated observations: one per value, weighted by ``weights``
        (unit weights when None).

        One histogram update and one moment transition per *distinct*
        value: the weighted transition ``old -> old + w`` nets the same
        num_groups / Σf / Σf² deltas as the w unit steps (or as the
        per-value weighted steps), and everything is integer arithmetic, so
        the end state is identical to calling :meth:`observe` once per
        value. None is a legitimate group key here (NULL groups aggregate),
        unlike in the join histograms.
        """
        if weights is None:
            agg: dict[object, int] = Counter(values)
            added = len(values)
        else:
            agg = {}
            get = agg.get
            for value, weight in zip(values, weights):
                agg[value] = get(value, 0) + weight
            added = sum(weights)
        moments = self.moments
        add = self.histogram.add
        new_groups = 0
        sq_delta = 0
        for value, weight in agg.items():
            if not weight:
                continue
            old = add(value, weight)
            if old == 0:
                new_groups += 1
            new = old + weight
            sq_delta += new * new - old * old
        moments.num_groups += new_groups
        moments.sum_freq += added
        moments.sum_freq_sq += sq_delta

    @property
    def t(self) -> int:
        """Tuples observed (sum of all frequencies)."""
        return self.histogram.total

    @property
    def distinct_seen(self) -> int:
        return self.histogram.num_distinct

    @property
    def singletons(self) -> int:
        """f_1: groups seen exactly once."""
        return self.histogram.freq_of_freq.get(1, 0)

    @property
    def gamma_squared(self) -> float:
        return self.moments.gamma_squared


class GEEEstimator:
    """Guaranteed Error Estimator, O(1) per query (Algorithm 2)."""

    name = "gee"
    __slots__ = ("state",)

    def __init__(self, state: GroupFrequencyState):
        self.state = state

    def estimate(self, total: float) -> float:
        t = self.state.t
        if t == 0:
            return 0.0
        scale = math.sqrt(max(total, t) / t)
        f1 = self.state.singletons
        rest = self.state.distinct_seen - f1
        return scale * f1 + rest


class MLEEstimator:
    """The paper's MLE-based estimator (see module docstring for the
    reconstruction notes). O(#distinct frequencies) per evaluation."""

    name = "mle"
    __slots__ = ("state",)

    def __init__(self, state: GroupFrequencyState):
        self.state = state

    def estimate(self, total: float) -> float:
        t = self.state.t
        if t == 0:
            return 0.0
        seen = float(self.state.distinct_seen)
        remaining = max(total - t, 0.0)
        if remaining <= 0.0:
            return seen
        horizon = min(float(t), remaining)
        correction = 0.0
        for i, f_i in self.state.histogram.freq_of_freq.items():
            base = 1.0 - i / t
            if base <= 0.0:
                continue
            p_unseen_now = base ** t
            if p_unseen_now < 1e-12:
                continue
            p_unseen_later = base ** (t + horizon)
            correction += f_i * (p_unseen_now - p_unseen_later)
        return seen + correction


class RecomputeScheduler:
    """Algorithm 3: adaptive recomputation interval.

    Parameters
    ----------
    lower / upper:
        Interval bounds in tuples (the paper sets them to 0.1% and 3.2% of
        the input size).
    stability:
        k: relative difference under which the interval doubles (paper: 1%).
    """

    __slots__ = ("lower", "upper", "stability", "interval", "recompute_count")

    def __init__(self, lower: int, upper: int, stability: float = 0.01):
        if lower < 1 or upper < lower:
            raise ValueError(
                f"need 1 <= lower <= upper, got lower={lower}, upper={upper}"
            )
        if stability <= 0:
            raise ValueError(f"stability must be > 0, got {stability}")
        self.lower = lower
        self.upper = upper
        self.stability = stability
        self.interval = lower
        self.recompute_count = 0

    def due(self, t: int) -> bool:
        """Is a recomputation due at tuple count ``t``?"""
        return t > 0 and t % self.interval == 0

    def after_recompute(self, old_estimate: float, new_estimate: float) -> None:
        """Adapt the interval given the previous and fresh estimates,
        within the current bounds (which may have moved since the last
        adaptation)."""
        self.recompute_count += 1
        if new_estimate > 0 and abs(1.0 - old_estimate / new_estimate) < self.stability:
            self.interval = max(min(self.interval * 2, self.upper), self.lower)
        else:
            self.interval = self.lower


class HybridGroupCountEstimator:
    """GEE/MLE with the γ² chooser and scheduled MLE recomputation.

    ``observe`` is the per-tuple hot path: one histogram update, one O(1)
    moment update, and — only when the scheduler says so — one MLE
    recomputation. ``estimate()`` itself is O(1).

    A recomputation fires when the observed count t *crosses* a multiple of
    the scheduler's interval (as :meth:`repro.executor.engine.TickBus.tick_n`
    fires its callbacks). For unit-weight observations that is the tuple on
    which t lands on the multiple; weighted observations (aggregation
    push-down) can jump over a multiple and still fire once.

    Parameters
    ----------
    total:
        |T|: total input size (number or provider).
    tau:
        γ² threshold; below it MLE is used, above it GEE (paper: 10).
    lower_fraction / upper_fraction:
        Algorithm 3 interval bounds as fractions of |T| (paper: 0.001 and
        0.032); resolved lazily against the current total — once at
        construction and again at every recomputation, so a provider that
        is still converging (a pushed-down join-output estimate starts at
        1) does not pin the interval to its first value.
    record_every:
        If > 0, append ``(t, estimate)`` to ``history`` whenever t crosses
        a multiple of it.
    """

    __slots__ = (
        "state",
        "gee",
        "mle",
        "tau",
        "_total",
        "lower_fraction",
        "upper_fraction",
        "scheduler",
        "_cached_mle",
        "exact",
        "record_every",
        "history",
    )

    def __init__(
        self,
        total: float | TotalProvider,
        tau: float = DEFAULT_TAU,
        lower_fraction: float = 0.001,
        upper_fraction: float = 0.032,
        stability: float = 0.01,
        record_every: int = 0,
    ):
        self.state = GroupFrequencyState()
        self.gee = GEEEstimator(self.state)
        self.mle = MLEEstimator(self.state)
        self.tau = tau
        if callable(total):
            self._total: TotalProvider = total
        else:
            value = float(total)
            self._total = lambda: value
        self.lower_fraction = lower_fraction
        self.upper_fraction = upper_fraction
        self.scheduler = RecomputeScheduler(*self._bounds(self.total), stability)
        self._cached_mle: float = 0.0
        self.exact: bool = False
        self.record_every = record_every
        self.history: list[tuple[int, float]] = []

    @property
    def total(self) -> float:
        return float(self._total())

    def _bounds(self, total: float) -> tuple[int, int]:
        """Algorithm 3's ``(lower, upper)`` interval bounds for |T| = total."""
        total = max(total, 1.0)
        lower = max(int(total * self.lower_fraction), 1)
        return lower, max(int(total * self.upper_fraction), lower)

    def _recompute(self) -> None:
        """Rerun the MLE, re-derive the bounds and adapt the interval."""
        total = self.total
        old = self._cached_mle
        self._cached_mle = self.mle.estimate(total)
        scheduler = self.scheduler
        scheduler.lower, scheduler.upper = self._bounds(total)
        scheduler.after_recompute(old, self._cached_mle)

    def observe(self, value: object, weight: int = 1) -> None:
        """Feed one (possibly weighted) tuple of the grouping column."""
        state = self.state
        before = state.histogram.total
        state.observe(value, weight)
        after = before + weight
        interval = self.scheduler.interval
        if after // interval != before // interval:
            self._recompute()
        rec = self.record_every
        if rec and after // rec != before // rec:
            self.history.append((after, self.estimate()))

    def observe_batch(
        self, values: Sequence[object], weights: Sequence[int] | None = None
    ) -> None:
        """Feed a batch of grouping values (unit weights when ``weights`` is
        None) in one shot.

        Segments the batch after every value whose observation crosses a
        recomputation or ``record_every`` boundary, applying each segment
        as one aggregated :meth:`GroupFrequencyState.observe_batch` and
        firing the boundary actions (MLE recompute + scheduler adaptation,
        history checkpoint) at exactly the t the per-value path would — the
        scheduler's interval adapts after every recompute, so the next
        boundary is re-derived inside the loop. End state (histogram,
        moments, cached MLE, scheduler interval, history) is identical to
        one :meth:`observe` call per (value, weight) whenever the total
        provider returns the same values in both.
        """
        n = len(values)
        if not n:
            return
        state = self.state
        scheduler = self.scheduler
        rec = self.record_every
        t0 = state.histogram.total
        # cumulative[j]: weight of values[:j + 1], to find where a weighted
        # batch crosses a boundary.
        cumulative = None if weights is None else list(accumulate(weights))
        start = 0
        while start < n:
            before = state.histogram.total
            interval = scheduler.interval
            target = (before // interval + 1) * interval
            if rec:
                target = min(target, (before // rec + 1) * rec)
            if cumulative is None:
                end = min(n, start + target - before)
            else:
                end = min(n, bisect_left(cumulative, target - t0, start) + 1)
            whole = not start and end == n
            state.observe_batch(
                values if whole else values[start:end],
                weights if whole or weights is None else weights[start:end],
            )
            after = state.histogram.total
            if after // interval != before // interval:
                self._recompute()
            if rec and after // rec != before // rec:
                self.history.append((after, self.estimate()))
            start = end

    def observe_hook(self, key: object, _row: tuple) -> None:
        """(key, row) adapter for operator input hooks — avoids a lambda
        frame per tuple on the hot path."""
        self.observe(key)

    def observe_hook_batch(self, keys: Sequence[object], _rows: Sequence[tuple]) -> None:
        """Batch twin of :meth:`observe_hook` (see operators.base)."""
        self.observe_batch(keys)

    observe_hook.batch_hook_name = "observe_hook_batch"

    def finalize(self) -> None:
        """The whole input has been seen: the group count is exact."""
        self.exact = True
        if self.record_every:
            self.history.append((self.state.t, float(self.state.distinct_seen)))

    @property
    def chosen(self) -> str:
        """Which estimator the γ² chooser currently selects."""
        return self.mle.name if self.state.gamma_squared < self.tau else self.gee.name

    def estimate(self) -> float:
        """Current estimate of the total number of groups in |T|."""
        if self.exact:
            return float(self.state.distinct_seen)
        if self.state.t == 0:
            return 0.0
        if self.chosen == self.mle.name:
            # Between scheduled recomputations, serve the cached value, but
            # never below the groups already seen (monotone floor).
            if self._cached_mle <= 0.0:
                self._cached_mle = self.mle.estimate(self.total)
            return max(self._cached_mle, float(self.state.distinct_seen))
        return max(self.gee.estimate(self.total), float(self.state.distinct_seen))
