"""Streaming quantile sketch: log-bucketed, mergeable, bounded error.

A fixed-bucket histogram answers "how many observations fell under
5 ms" but cannot answer "what is p99 to within 1%" — the question a
tail-latency reading actually asks.  This module is the registry's one distribution
instrument, a dependency-free DDSketch-style sketch (Masson, Rim & Lee,
VLDB'19): values map to geometrically-spaced buckets ``index = ceil(log_gamma
v)`` with ``gamma = (1 + alpha) / (1 - alpha)``, which guarantees any
reported quantile ``q_hat`` satisfies ``|q_hat - q_true| <= alpha *
q_true`` — a *relative* error bound that holds identically at 100 µs
and 100 s, unlike fixed bounds that quantize the tail.

Properties the telemetry plane leans on:

* **mergeable** — sketches over the same ``alpha`` merge by adding
  bucket counts, so per-worker or per-window sketches roll up without
  losing the error bound;
* **bounded** — at most ``max_buckets`` buckets are kept; past the
  bound the *lowest* buckets collapse together (DDSketch's collapsing
  scheme), preserving the bound for the upper quantiles that matter
  for tail latency;
* **cheap** — ``record`` is one lock-free deque append (GIL-atomic);
  the ``log`` + bucket upsert is amortized into readers via deferred
  folding, and the memory footprint is ~``max_buckets`` ints plus at
  most ``MAX_PENDING`` pending floats per concurrent writer.
"""

from __future__ import annotations

import math
import threading
from collections import deque

#: Default relative-error guarantee (1%): p99 reported within ±1%.
DEFAULT_RELATIVE_ERROR = 0.01

#: Pending observations accumulated before a writer folds them into the
#: bucket table.  Appends to a deque are atomic under the GIL, so the
#: hot ``record`` path stays lock-free; every reader folds first, and a
#: writer crossing this threshold folds inline, which bounds the
#: pending queue at ~this many entries per concurrent writer.
MAX_PENDING = 256

#: Default bucket bound.  With alpha=0.01 (gamma ~1.0202) 512 buckets
#: span ~10 orders of magnitude — 100 ns to over 15 minutes — before
#: any collapsing happens.
DEFAULT_MAX_BUCKETS = 512

#: Quantiles pre-rendered into snapshots / expositions.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.95, 0.99)


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch with relative-error
    guarantee ``alpha`` (default 1%).

    Thread-safe.  Non-positive observations land in a dedicated zero
    bucket (latencies are non-negative; a clock gone backwards must
    not corrupt the log mapping).
    """

    __slots__ = (
        "name",
        "alpha",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_zero_count",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_max_buckets",
        "_collapsed",
        "_pending",
        "_lock",
    )

    def __init__(
        self,
        *,
        alpha: float = DEFAULT_RELATIVE_ERROR,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
        name: str = "",
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha!r}")
        if max_buckets < 2:
            raise ValueError(f"max_buckets must be >= 2: {max_buckets!r}")
        self.name = name
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        # bucket index -> count; index i covers (gamma^(i-1), gamma^i]
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._max_buckets = max_buckets
        self._collapsed = 0
        # recorded-but-not-yet-bucketed values; drained by _fold_locked
        self._pending: deque[float] = deque()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def record(self, value: float) -> None:
        """Fold one observation into the sketch.

        The hot path is one lock-free deque append: instrument writes
        happen on every stage worker at once, and a contended lock here
        turns each observation into a thread park/unpark on the request
        path.  The log/bucket work is amortized into readers (and into
        whichever writer crosses ``MAX_PENDING``).
        """
        pending = self._pending
        pending.append(value)
        if len(pending) >= MAX_PENDING:
            self._fold()

    def _fold(self) -> None:
        """Drain pending observations into the bucket table."""
        with self._lock:
            self._fold_locked()

    def _fold_locked(self) -> None:
        pending = self._pending
        while True:
            try:
                value = pending.popleft()
            except IndexError:
                return
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= 0.0:
                self._zero_count += 1
                continue
            index = math.ceil(math.log(value) / self._log_gamma)
            buckets = self._buckets
            buckets[index] = buckets.get(index, 0) + 1
            if len(buckets) > self._max_buckets:
                self._collapse_locked()

    def _collapse_locked(self) -> None:
        """Fold the two lowest buckets together (caller holds the lock).

        Collapsing low buckets trades accuracy at the *bottom* of the
        distribution for a hard memory bound; upper quantiles — the
        tail the telemetry plane cares about — keep the alpha
        guarantee.
        """
        ordered = sorted(self._buckets)
        lowest, second = ordered[0], ordered[1]
        self._buckets[second] += self._buckets.pop(lowest)
        self._collapsed += 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (same ``alpha`` required)."""
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different alpha: "
                f"{self.alpha!r} vs {other.alpha!r}"
            )
        with other._lock:
            other._fold_locked()
            buckets = dict(other._buckets)
            zero = other._zero_count
            count = other._count
            total = other._sum
            low, high = other._min, other._max
        with self._lock:
            self._fold_locked()
            for index, n in buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._zero_count += zero
            self._count += count
            self._sum += total
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high
            while len(self._buckets) > self._max_buckets:
                self._collapse_locked()

    # -- queries -------------------------------------------------------

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def mean(self) -> float:
        self._fold()
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        self._fold()
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (0..1), within ``alpha`` relative
        error; 0.0 on an empty sketch.

        The estimate for a bucket is its geometric midpoint
        ``2 * gamma^i / (gamma + 1)``, the point minimizing worst-case
        relative error inside the bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q!r}")
        with self._lock:
            self._fold_locked()
            count = self._count
            if count == 0:
                return 0.0
            rank = q * (count - 1)
            seen = self._zero_count
            if rank < seen:
                return 0.0
            gamma = self._gamma
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if rank < seen:
                    estimate = 2.0 * gamma**index / (gamma + 1.0)
                    # clamp into the observed range: the top bucket's
                    # midpoint can exceed the true max
                    return min(max(estimate, self._min), self._max)
            return self._max

    def snapshot(self) -> dict:
        """Count/sum/mean/min/max plus the standard quantiles.

        Quantile keys are ``"p50"``-style; the ``alpha`` rides along so
        a ``/metrics`` reader knows the error bound of what it is
        reading.
        """
        with self._lock:
            self._fold_locked()
            count = self._count
            total = self._sum
            low = self._min if count else 0.0
            high = self._max if count else 0.0
            collapsed = self._collapsed
        quantiles = {
            f"p{int(q * 100)}": self.quantile(q) for q in SNAPSHOT_QUANTILES
        }
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": low,
            "max": high,
            "alpha": self.alpha,
            "collapsed_buckets": collapsed,
            "quantiles": quantiles,
        }

    def __len__(self) -> int:
        self._fold()
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch({self.name!r}, n={self.count}, "
            f"p99={self.quantile(0.99):.6f})"
        )
