"""Per-region batched SWIM probe scheduling.

A :class:`RegionProbeBatcher` coalesces every agent's probe timer in a
region into **one** recycled sentinel event per region, with the per-agent
next-fire deadlines and sequence numbers held in numpy arrays instead of one
heap entry (plus one queue entry, without the wheel) per agent. Each sentinel
firing services the due probe in a single array pass: ``argmin`` over the
region's deadline vector picks the head, the member is re-armed in place
(jitter drawn from its own RNG, sequence number from the queue's shared
counter, at exactly the moments per-timer scheduling would draw them), and
the sentinel is re-aimed at the new head's exact ``(time, seq)`` key.

Because the sentinel always adopts the head member's exact key and seq
allocation order is preserved, interleaving across regions — and with every
other event in the simulation — is *bit-identical* to per-agent
``RepeatingTimer`` scheduling (through the :class:`~repro.sim.loop.TimerWheel`
or the self-scheduling oracle in ``tests/oracles.py``): same event order,
same RNG draws, same ``events_processed``. This is asserted by the seeded
equivalence tests in ``tests/test_gossip_membership.py`` and
exercised at scale by ``bench_kernel.py swim_full``.

The paper's probe parameters (fanout 4, 100 ms gossip, 1 s probe period,
§VIII-B) are untouched: batching changes *bookkeeping*, not protocol timing.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.events import Event
from repro.sim.loop import Simulator

_NEVER = np.inf


class BatchedProbeTimer:
    """Handle for one agent's probe slot; quacks like a RepeatingTimer."""

    __slots__ = ("_batcher", "_cls", "_index", "_callback", "_jitter", "_rng", "_stopped")

    def __init__(
        self,
        batcher: "RegionProbeBatcher",
        cls: "_RegionClass",
        index: int,
        callback: Callable[[], None],
        jitter: float,
        rng: random.Random,
    ) -> None:
        self._batcher = batcher
        self._cls = cls
        self._index = index
        self._callback = callback
        self._jitter = jitter
        self._rng = rng
        self._stopped = False

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def interval(self) -> float:
        return self._cls.interval

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._batcher._deactivate(self._cls, self._index)


class _RegionClass:
    """One region's probe round: deadline/seq vectors + the shared sentinel."""

    __slots__ = (
        "region",
        "interval",
        "due",
        "seq",
        "timers",
        "event",
        "target",
        "target_index",
        "scheduled",
        "active",
    )

    def __init__(self, region: str, interval: float) -> None:
        self.region = region
        self.interval = interval
        self.due = np.full(64, _NEVER, dtype=np.float64)
        self.seq = np.zeros(64, dtype=np.int64)
        self.timers: List[BatchedProbeTimer] = []
        self.event: Optional[Event] = None
        self.target: Optional[Tuple[float, int]] = None
        self.target_index = -1
        self.scheduled = False
        self.active = 0

    def head(self) -> int:
        """Index of the next due member, or -1; ties break on lowest seq."""
        count = len(self.timers)
        due = self.due[:count]
        if not count:
            return -1
        i = int(np.argmin(due))
        time = due[i]
        if time == _NEVER:
            return -1
        ties = np.flatnonzero(due == time)
        if len(ties) > 1:
            seq = self.seq[:count]
            i = int(ties[np.argmin(seq[ties])])
        return i


class RegionProbeBatcher:
    """Coalesces a region's probe timers into one vectorized timer class."""

    def __init__(self, sim: Simulator, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._queue = sim._queue
        self._alloc = sim._queue._seq.__next__
        self.interval = interval
        self._classes: Dict[str, _RegionClass] = {}

    def region_count(self) -> int:
        return len(self._classes)

    def pending_counts(self) -> Dict[str, int]:
        """Active probe slots per region (test/debug helper)."""
        return {region: cls.active for region, cls in self._classes.items()}

    def register(
        self,
        region: str,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> BatchedProbeTimer:
        """Add one agent's probe slot; first firing after interval + jitter.

        The jitter draw happens before the seq allocation, exactly like
        ``RepeatingTimer.start`` → ``TimerWheel.add``, so registration
        perturbs the RNG/seq streams identically to per-agent timers.
        """
        rng = rng if rng is not None else self._sim.rng
        interval = self.interval
        delay = interval + rng.uniform(0.0, jitter) if jitter > 0.0 else interval
        fire_time = self._sim.now + delay
        seq = self._queue.alloc_seq()
        cls = self._classes.get(region)
        if cls is None:
            cls = _RegionClass(region, interval)
            self._classes[region] = cls
        index = len(cls.timers)
        if index >= len(cls.due):
            grown_due = np.full(len(cls.due) * 2, _NEVER, dtype=np.float64)
            grown_due[:index] = cls.due
            cls.due = grown_due
            grown_seq = np.zeros(len(cls.seq) * 2, dtype=np.int64)
            grown_seq[:index] = cls.seq
            cls.seq = grown_seq
        timer = BatchedProbeTimer(self, cls, index, callback, jitter, rng)
        cls.timers.append(timer)
        cls.due[index] = fire_time
        cls.seq[index] = seq
        cls.active += 1
        key = (fire_time, seq)
        if not cls.scheduled or key < cls.target:
            self._retarget(cls)
        return timer

    def _deactivate(self, cls: _RegionClass, index: int) -> None:
        cls.due[index] = _NEVER
        cls.active -= 1
        if cls.scheduled and cls.target_index == index:
            self._retarget(cls)

    def _retarget(self, cls: _RegionClass) -> None:
        """Aim the region sentinel at the head member's exact ``(time, seq)``."""
        index = cls.head()
        queue = self._queue
        if index < 0:
            if cls.scheduled:
                cls.event.cancelled = True
                queue.note_cancelled()
                cls.event = None
                cls.scheduled = False
            cls.target = None
            cls.target_index = -1
            return
        key = (float(cls.due[index]), int(cls.seq[index]))
        if cls.scheduled:
            if cls.target == key:
                cls.target_index = index
                return
            # The queued sentinel entry is stale; tombstone it and use a
            # fresh Event (the old object stays behind as the tombstone).
            cls.event.cancelled = True
            queue.note_cancelled()
            cls.event = None
        event = cls.event
        if event is None:
            event = Event(key[0], key[1], self._fire_class, (cls,))
            cls.event = event
        else:
            event.time = key[0]
            event.seq = key[1]
        queue.push_entry(event)
        cls.scheduled = True
        cls.target = key
        cls.target_index = index

    def _fire_class(self, cls: _RegionClass) -> None:
        """Sentinel callback: fire the due member, re-arm, re-aim, in one pass.

        The sentinel fired *at* the target member's key (stops re-aim it
        eagerly), so the member is live and its deadline is the clock now.
        """
        index = cls.target_index
        timer = cls.timers[index]
        time = cls.due[index]
        # Re-arm before the callback, exactly like a self-scheduling timer:
        # the jitter draw and seq allocation happen at the same moments they
        # would under per-timer scheduling.
        jitter = timer._jitter
        if jitter > 0.0:
            next_time = time + cls.interval + timer._rng.uniform(0.0, jitter)
        else:
            next_time = time + cls.interval
        cls.due[index] = next_time
        cls.seq[index] = self._alloc()
        # Re-aim the sentinel at the new head; the just-fired sentinel event
        # is out of the queue and free to recycle.
        head = cls.head()
        event = cls.event
        event.time = float(cls.due[head])
        event.seq = int(cls.seq[head])
        cls.target = (event.time, event.seq)
        cls.target_index = head
        self._queue.push_entry(event)  # cls.scheduled stays True
        timer._callback()
