"""Event queue primitives for the simulation kernel.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so same-time events fire in scheduling order and runs
are fully deterministic.

:class:`EventQueue` is a calendar-queue/heap hybrid. Near-term events live
in fixed-width time buckets (plain-list appends on insert, one heapify when a
bucket becomes the drain front), far-future events overflow to a binary heap
and migrate into buckets as the window advances. Cancellation is O(1)
tombstoning with periodic compaction.

It orders strictly by ``(time, seq)``: the bucket index ``floor(time /
width)`` is a monotone function of ``time`` and entries within a bucket are
drained through a heap of ``(time, seq, event)`` tuples, so it pops events in
exactly the order a single binary heap would. ``tests/test_sim_scheduler.py``
checks that bit-for-bit against a plain-heap oracle kept in ``tests/``.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple


class Event:
    """A scheduled callback.

    Instances are created by the :class:`~repro.sim.loop.Simulator`; user code
    normally only sees the :class:`TimerHandle` wrapper. ``time`` and ``seq``
    are mutable so the timer wheel can recycle one sentinel event across
    firings instead of allocating a new object per period.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "recyclable")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Fire-and-forget events (``Simulator.post`` under the v2 profile)
        #: return to the simulator's event pool after firing instead of being
        #: garbage; only ``post``-created events may be marked — anything
        #: reachable through a TimerHandle must never be reused.
        self.recyclable = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        name = getattr(self.callback, "__name__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6f} seq={self.seq} cb={name}{state}>"


class TimerHandle:
    """Cancellation handle returned by ``Simulator.schedule``.

    When constructed with the owning queue, cancellation notifies it so the
    queue can count tombstones and compact once they dominate the live set.
    """

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: Optional["EventQueue"] = None) -> None:
        self._event = event
        self._queue = queue

    @property
    def time(self) -> float:
        """Absolute simulated time at which the event fires."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if self._queue is not None:
                self._queue.note_cancelled()


_Entry = Tuple[float, int, Event]


#: Default bucket width: 1/20 of the SWIM probe interval (1 s), so a
#: 1600-node probe storm spreads over ~20 buckets of ~80 timers each and a
#: 100 ms gossip tick typically lands one or two buckets ahead of the front.
DEFAULT_BUCKET_WIDTH = 0.05

#: Default wheel span in buckets; with the default width this covers a 25.6 s
#: near-term window (probe timeouts, suspicion deadlines, gossip ticks all
#: fit) while 30/60 s anti-entropy and reclaim timers overflow to the heap.
DEFAULT_WHEEL_SPAN = 512

#: Compaction trigger: once at least this many tombstones exist *and* they
#: outnumber live entries, cancelled events are swept out eagerly.
_COMPACT_MIN_TOMBSTONES = 512


class EventQueue:
    """Calendar-queue/heap hybrid scheduler.

    Layout:

    * ``_front`` — the bucket currently being drained, kept as a heap of
      ``(time, seq, event)`` tuples (heapified once when the bucket is
      promoted; insertions landing at or before the front bucket heappush
      directly so zero-delay and same-bucket scheduling stay exact);
    * ``_buckets`` — near-term buckets keyed by absolute bucket index
      ``floor(time / width)``; inserts are plain O(1) list appends, FIFO, and
      only sorted (heapified) when the bucket becomes the front;
    * ``_overflow`` — far-future events beyond the wheel horizon, in a binary
      heap; they migrate into buckets as the front advances.

    Cancellation tombstones events in place; :meth:`note_cancelled` counts
    them and triggers :meth:`compact` when they outnumber live entries.
    """

    def __init__(
        self,
        bucket_width: float = DEFAULT_BUCKET_WIDTH,
        wheel_span: int = DEFAULT_WHEEL_SPAN,
    ) -> None:
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        if wheel_span < 1:
            raise ValueError(f"wheel_span must be >= 1, got {wheel_span}")
        self._width = float(bucket_width)
        self._inv_width = 1.0 / self._width
        self._span = int(wheel_span)
        self._seq = itertools.count()
        self._front: List[_Entry] = []
        self._front_index = -1
        self._horizon = self._span
        self._buckets: Dict[int, List[_Entry]] = {}
        self._nonempty: List[int] = []
        self._overflow: List[_Entry] = []
        self._size = 0
        self._tombstones = 0
        #: Total inserts ever; lets batch executors detect that no event was
        #: scheduled between two points and reuse a cached :meth:`peek_key`.
        #: Compaction and overflow migration move existing entries (they can
        #: never introduce an earlier head), so neither counts as a push.
        self.pushes = 0

    def __len__(self) -> int:
        return self._size

    @property
    def bucket_width(self) -> float:
        return self._width

    def alloc_seq(self) -> int:
        """Reserve the next ordering sequence number (for the timer wheel)."""
        return next(self._seq)

    # ---------------------------------------------------------------- insert
    def push(self, time: float, callback: Callable[..., Any], args: tuple) -> Event:
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        # Inline routing: this is the hottest insert path in the kernel.
        index = int(time * self._inv_width)
        if index <= self._front_index:
            heappush(self._front, (time, seq, event))
        elif index < self._horizon:
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [(time, seq, event)]
                heappush(self._nonempty, index)
            else:
                bucket.append((time, seq, event))
        else:
            heappush(self._overflow, (time, seq, event))
        self._size += 1
        self.pushes += 1
        return event

    def push_entry(self, event: Event) -> None:
        """Insert an event whose ``time``/``seq`` are already assigned.

        Used by the timer wheel to recycle its sentinel event: the sentinel
        adopts the exact ``(time, seq)`` of the member timer it proxies, so
        global ordering is identical to scheduling each timer individually.
        Routing is inlined — this runs once per coalesced timer firing.
        """
        time = event.time
        index = int(time * self._inv_width)
        entry = (time, event.seq, event)
        if index <= self._front_index:
            heappush(self._front, entry)
        elif index < self._horizon:
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [entry]
                heappush(self._nonempty, index)
            else:
                bucket.append(entry)
        else:
            heappush(self._overflow, entry)
        self._size += 1
        self.pushes += 1

    def _route(self, entry: _Entry) -> None:
        index = int(entry[0] * self._inv_width)
        if index <= self._front_index:
            heappush(self._front, entry)
        elif index < self._horizon:
            bucket = self._buckets.get(index)
            if bucket is None:
                self._buckets[index] = [entry]
                heappush(self._nonempty, index)
            else:
                bucket.append(entry)
        else:
            heappush(self._overflow, entry)

    # ----------------------------------------------------------------- drain
    def _advance(self) -> bool:
        """Promote the next non-empty bucket to the front; ``False`` if empty."""
        buckets = self._buckets
        nonempty = self._nonempty
        while True:
            if nonempty:
                index = heappop(nonempty)
                bucket = buckets.pop(index, None)
                if not bucket:
                    continue
                if len(bucket) > 1:
                    heapify(bucket)
                self._front = bucket
                self._front_index = index
                horizon = index + self._span
                if horizon > self._horizon:
                    self._horizon = horizon
                    self._migrate()
                return True
            if not self._overflow:
                return False
            # Whole wheel is empty: jump the window to the overflow head.
            index = int(self._overflow[0][0] * self._inv_width)
            self._front_index = index
            self._horizon = index + self._span
            self._migrate()
            if self._front:
                return True

    def _migrate(self) -> None:
        """Move overflow events now inside the wheel window into buckets."""
        overflow = self._overflow
        if not overflow:
            return
        horizon = self._horizon
        inv_width = self._inv_width
        while overflow and int(overflow[0][0] * inv_width) < horizon:
            self._route(heappop(overflow))

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` if the queue is empty."""
        while True:
            front = self._front
            if front:
                entry = heappop(front)
                self._size -= 1
                event = entry[2]
                if not event.cancelled:
                    return event
                continue
            if not self._advance():
                return None

    def pop_before(self, bound: float) -> Optional[Event]:
        """Pop the next live event with ``time <= bound``, else ``None``.

        The bound is **inclusive**: an event stamped exactly ``bound`` pops.
        This is the queue half of :meth:`Simulator.run_until`'s boundary
        contract.

        One front-heap inspection plus at most one pop per live event, which
        lets :meth:`Simulator.run_until` avoid a separate peek-then-pop pair.
        """
        front = self._front
        while True:
            if front:
                if front[0][0] > bound:
                    return None
                entry = heappop(front)
                self._size -= 1
                event = entry[2]
                if not event.cancelled:
                    return event
                continue
            if not self._advance():
                return None
            front = self._front

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        key = self.peek_key()
        return None if key is None else key[0]

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next live event without popping it.

        Like :meth:`peek_time` this sweeps tombstones off the front and may
        promote the next bucket; the first live entry is left in place.
        """
        while True:
            front = self._front
            while front:
                entry = front[0]
                if not entry[2].cancelled:
                    return (entry[0], entry[1])
                heappop(front)
                self._size -= 1
            if not self._advance():
                return None

    # ------------------------------------------------------------ tombstones
    def note_cancelled(self) -> None:
        """Record one cancellation; compact once tombstones dominate."""
        self._tombstones += 1
        if (
            self._tombstones >= _COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 >= self._size
        ):
            self.compact()

    def compact(self) -> None:
        """Drop every tombstoned entry, keeping live entries' exact order.

        The wheel window (``_front_index``/``_horizon``) is preserved and all
        live entries are re-routed through it, so ordering is untouched.
        """
        entries = [e for e in self._front if not e[2].cancelled]
        for bucket in self._buckets.values():
            entries.extend(e for e in bucket if not e[2].cancelled)
        entries.extend(e for e in self._overflow if not e[2].cancelled)
        self._front = []
        self._buckets = {}
        self._nonempty = []
        self._overflow = []
        self._tombstones = 0
        self._size = len(entries)
        for entry in entries:
            self._route(entry)

    def clear(self) -> None:
        self._front = []
        self._front_index = -1
        self._horizon = self._span
        self._buckets = {}
        self._nonempty = []
        self._overflow = []
        self._size = 0
        self._tombstones = 0
