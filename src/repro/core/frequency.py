"""Access-frequency tracking for observed destination peers.

Section III of the paper notes that each node can maintain per-peer access
frequencies "based on past history of accesses within a time window", and
that when the number of accessed nodes is large, a node may instead keep
the top-``n`` most frequent peers using standard streaming algorithms
(reference [3]).

This module provides three interchangeable trackers:

* :class:`ExactFrequencyTable` — a plain counter, optionally bounded by a
  sliding window of the most recent observations.
* :class:`SpaceSavingSketch` — the Space-Saving algorithm (Metwally,
  Agrawal, El Abbadi 2005): ``n`` counters, deterministic over-estimates
  with error at most ``N / n``.
* :class:`LossyCountingSketch` — Manku & Motwani's Lossy Counting with
  bucket-based pruning.

All trackers expose the same small interface (:class:`FrequencyTracker`):
``observe(peer, weight)`` and ``snapshot(limit)`` returning a
``{peer: estimated_frequency}`` mapping suitable for building a
:class:`repro.core.types.SelectionProblem`.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from typing import Iterable, Mapping, Protocol

from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive_int

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on stripped installs
    _np = None

__all__ = [
    "FrequencyTracker",
    "ExactFrequencyTable",
    "SpaceSavingSketch",
    "LossyCountingSketch",
]


class FrequencyTracker(Protocol):
    """Protocol implemented by all frequency trackers."""

    def observe(self, peer: int, weight: float = 1.0) -> None:
        """Record that a query was answered by ``peer``."""
        ...

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        """Return the current ``{peer: frequency}`` estimates.

        ``limit`` keeps only the ``limit`` most frequent peers (ties broken
        by peer id for determinism).
        """
        ...


def _top_items(estimates: dict[int, float], limit: int | None) -> dict[int, float]:
    """Keep the ``limit`` highest-frequency entries (deterministic tie-break)."""
    if limit is None or len(estimates) <= limit:
        return dict(estimates)
    top = heapq.nlargest(limit, estimates.items(), key=lambda kv: (kv[1], -kv[0]))
    return dict(top)


class ExactFrequencyTable:
    """Exact per-peer counts, optionally over a sliding observation window.

    Parameters
    ----------
    window:
        When given, only the most recent ``window`` observations contribute;
        older ones are evicted FIFO. ``None`` keeps everything. A window
        models the paper's "past history of accesses within a time window".
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None:
            require_positive_int(window, "window")
        self.window = window
        self._counts: Counter[int] = Counter()
        self._history: deque[tuple[int, float]] = deque()
        self._total = 0.0

    @classmethod
    def from_weights(
        cls, weights: Mapping[int, float], exclude: int | None = None
    ) -> "ExactFrequencyTable":
        """An unwindowed table holding ``weights`` as if each positive
        weight had been observed once, in mapping order, skipping the
        peer ``exclude`` (the owner) and weights that are not positive.

        The counts, their order and the running total are exactly those
        of the ``observe`` loop: the total is added up left to right, as
        ``observe`` does, not with ``sum()`` (compensated on floats from
        Python 3.12 on). Each count is the weight object itself (``0 +
        weight`` equals it), so tables seeded from one shared mapping
        share its floats."""
        table = cls()
        table._counts = Counter(
            {peer: weight for peer, weight in weights.items() if peer != exclude and weight > 0}
        )
        total = 0.0
        for weight in table._counts.values():
            total += weight
        table._total = total
        return table

    def observe(self, peer: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ConfigurationError(f"weight must be non-negative, got {weight!r}")
        self._counts[peer] += weight
        self._total += weight
        if self.window is not None:
            self._history.append((peer, weight))
            while len(self._history) > self.window:
                old_peer, old_weight = self._history.popleft()
                self._counts[old_peer] -= old_weight
                self._total -= old_weight
                if self._counts[old_peer] <= 0:
                    del self._counts[old_peer]

    def observe_many(self, peers: Iterable[int]) -> None:
        """Record a unit observation for each peer in ``peers``."""
        for peer in peers:
            self.observe(peer)

    def forget(self, peer: int) -> None:
        """Drop all state for ``peer`` (e.g. after it leaves the overlay)."""
        removed = self._counts.pop(peer, 0.0)
        self._total -= removed
        if self.window is not None and removed:
            self._history = deque(entry for entry in self._history if entry[0] != peer)

    @property
    def total(self) -> float:
        """Total observed weight currently inside the window."""
        return self._total

    def frequency(self, peer: int) -> float:
        """Current count for ``peer`` (0.0 when unseen)."""
        return float(self._counts.get(peer, 0.0))

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        return _top_items({peer: float(count) for peer, count in self._counts.items()}, limit)

    def snapshot_arrays(self, limit: int | None = None):
        """:meth:`snapshot` as int64 peer and float64 weight arrays, in the
        snapshot's order: insertion order, or, when ``limit`` cuts, the top
        ``limit`` by descending weight then ascending id (one ``lexsort``,
        the order ``heapq.nlargest`` returns).

        ``None`` when the arrays could not reproduce the snapshot: a key
        that is not a plain ``int`` or does not fit int64, or a NaN weight
        at a cut (NaN has no place in either order), or no NumPy. Callers
        then fall back to :meth:`snapshot`."""
        counts = self._counts
        size = len(counts)
        if _np is None or size and set(map(type, counts)) != {int}:
            return None
        try:
            peers = _np.fromiter(counts, dtype=_np.int64, count=size)
        except OverflowError:
            return None
        weights = _np.fromiter(counts.values(), dtype=_np.float64, count=size)
        if limit is not None and size > limit:
            if _np.isnan(weights).any():
                return None
            top = _np.lexsort((peers, -weights))[: max(limit, 0)]
            peers, weights = peers[top], weights[top]
        return peers, weights

    def __len__(self) -> int:
        return len(self._counts)


class SpaceSavingSketch:
    """Space-Saving top-``n`` frequency estimation.

    Maintains at most ``capacity`` monitored peers. When a new peer arrives
    at full capacity, the peer with the minimum counter is replaced and the
    newcomer inherits that minimum as its error bound. Estimated counts
    over-estimate true counts by at most ``total / capacity``.
    """

    def __init__(self, capacity: int) -> None:
        require_positive_int(capacity, "capacity")
        self.capacity = capacity
        self._counts: dict[int, float] = {}
        self._errors: dict[int, float] = {}
        self._total = 0.0

    def observe(self, peer: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ConfigurationError(f"weight must be non-negative, got {weight!r}")
        self._total += weight
        if peer in self._counts:
            self._counts[peer] += weight
            return
        if len(self._counts) < self.capacity:
            self._counts[peer] = weight
            self._errors[peer] = 0.0
            return
        victim = min(self._counts, key=lambda p: (self._counts[p], p))
        floor = self._counts.pop(victim)
        self._errors.pop(victim)
        self._counts[peer] = floor + weight
        self._errors[peer] = floor

    def forget(self, peer: int) -> None:
        """Stop monitoring ``peer`` entirely."""
        self._counts.pop(peer, None)
        self._errors.pop(peer, None)

    @property
    def total(self) -> float:
        """Total observed weight (including weight attributed to evicted peers)."""
        return self._total

    def frequency(self, peer: int) -> float:
        """Estimated (over-)count for ``peer``; 0.0 when unmonitored."""
        return self._counts.get(peer, 0.0)

    def error_bound(self, peer: int) -> float:
        """Maximum over-estimation for ``peer`` (its inherited floor)."""
        return self._errors.get(peer, 0.0)

    def guaranteed_top(self) -> list[int]:
        """Peers whose estimated count minus error exceeds some other estimate,
        i.e. peers guaranteed to be among the true top items."""
        if not self._counts:
            return []
        ordered = sorted(self._counts, key=lambda p: (-self._counts[p], p))
        result = []
        for index, peer in enumerate(ordered[:-1]):
            next_estimate = self._counts[ordered[index + 1]]
            if self._counts[peer] - self._errors[peer] >= next_estimate:
                result.append(peer)
            else:
                break
        return result

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        return _top_items(dict(self._counts), limit)

    def __len__(self) -> int:
        return len(self._counts)


class LossyCountingSketch:
    """Lossy Counting (Manku & Motwani 2002) over unit-weight observations.

    Splits the stream into buckets of width ``ceil(1 / epsilon)``; at each
    bucket boundary, entries whose count plus bucket slack falls below the
    current bucket id are pruned. Estimates under-count by at most
    ``epsilon * N``.
    """

    def __init__(self, epsilon: float = 0.001) -> None:
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon!r}")
        self.epsilon = epsilon
        self.bucket_width = max(1, int(1.0 / epsilon))
        self._counts: dict[int, float] = {}
        self._deltas: dict[int, int] = {}
        self._seen = 0
        self._bucket = 1

    def observe(self, peer: int, weight: float = 1.0) -> None:
        if weight < 0:
            raise ConfigurationError(f"weight must be non-negative, got {weight!r}")
        self._seen += 1
        if peer in self._counts:
            self._counts[peer] += weight
        else:
            self._counts[peer] = weight
            self._deltas[peer] = self._bucket - 1
        if self._seen % self.bucket_width == 0:
            self._prune()
            self._bucket += 1

    def _prune(self) -> None:
        doomed = [peer for peer, count in self._counts.items() if count + self._deltas[peer] <= self._bucket]
        for peer in doomed:
            del self._counts[peer]
            del self._deltas[peer]

    def forget(self, peer: int) -> None:
        """Drop state for ``peer``."""
        self._counts.pop(peer, None)
        self._deltas.pop(peer, None)

    @property
    def total(self) -> int:
        """Number of observations consumed so far."""
        return self._seen

    def frequency(self, peer: int) -> float:
        """Estimated count for ``peer`` (an under-estimate; 0.0 when pruned)."""
        return self._counts.get(peer, 0.0)

    def snapshot(self, limit: int | None = None) -> dict[int, float]:
        return _top_items(dict(self._counts), limit)

    def __len__(self) -> int:
        return len(self._counts)
