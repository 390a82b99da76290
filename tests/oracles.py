"""Reference implementations the kernel's fast paths must match exactly.

Each oracle is the obvious, unoptimised version of one concern that ``src/``
now implements once:

* :class:`HeapEventQueue` — one binary heap, in place of the calendar queue;
* :class:`SelfSchedulingTimer` — one queue event per periodic firing, in
  place of the timer wheel;
* :class:`MemberList` — a dict of :class:`Member` records, in place of the
  vectorized :class:`~repro.gossip.membership.MembershipTable`.

Equivalence tests (and the naive arms of ``benchmarks/bench_kernel.py``)
swap an oracle in by patching the module-level name the simulator or agent
constructs, using the context managers below; :func:`direct_delivery` does
the same for the network's delivery route, forcing every message onto the
direct per-message post. A test that swaps an oracle in should also assert
that it really ran (``type(sim._queue)``, ``agent.members``, an untouched
in-flight heap); otherwise a substitution that silently fails compares the
production path with itself.
"""

from __future__ import annotations

import itertools
import math
import random
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.gossip import swim
from repro.gossip.member import Member, MemberState, supersedes
from repro.sim import loop, network
from repro.sim.events import Event
from repro.sim.loop import RepeatingTimer

_Entry = Tuple[float, int, Event]


@contextmanager
def _patched(module: object, name: str, value: object) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


@contextmanager
def heap_scheduler() -> Iterator[None]:
    """Simulators built inside the block queue events in a plain heap."""
    with _patched(loop, "EventQueue", HeapEventQueue):
        yield


@contextmanager
def self_scheduling_timers() -> Iterator[None]:
    """``call_every`` inside the block returns a :class:`SelfSchedulingTimer`."""
    with _patched(loop, "RepeatingTimer", SelfSchedulingTimer):
        yield


@contextmanager
def member_lists() -> Iterator[None]:
    """SWIM/Serf agents built inside the block keep a :class:`MemberList`."""
    with _patched(swim, "MembershipTable", MemberList):
        yield


@contextmanager
def direct_delivery() -> Iterator[None]:
    """Networks built inside the block post every delivery directly.

    Pins ``Network._direct_post_max`` at infinity, so the in-flight heap and
    its sentinel are never used; :func:`assert_direct_only` checks that.
    """
    with _patched(network, "DIRECT_POST_MAX", math.inf):
        yield


def assert_direct_only(net: "network.Network") -> None:
    """The network never parked a message in its in-flight heap."""
    assert net._direct_post_max == math.inf
    assert not net._in_flight.heap and net._in_flight.event is None


class HeapEventQueue:
    """A single binary heap of scheduled events with lazy cancellation.

    Heap entries are ``(time, seq, event)`` tuples rather than the events
    themselves: every sift comparison is then a C-level tuple comparison
    instead of a Python ``__lt__`` call that builds two tuples. This was the
    only scheduler before the calendar hybrid landed; it is the obviously
    correct reference the calendar queue must match pop for pop.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        #: Total inserts ever; lets batch executors detect that no event was
        #: scheduled between two points and reuse a cached :meth:`peek_key`.
        self.pushes = 0

    def __len__(self) -> int:
        return len(self._heap)

    def alloc_seq(self) -> int:
        """Reserve the next ordering sequence number (for the timer wheel)."""
        return next(self._seq)

    def push(self, time: float, callback: Callable[..., Any], args: tuple) -> Event:
        seq = next(self._seq)
        event = Event(time, seq, callback, args)
        heappush(self._heap, (time, seq, event))
        self.pushes += 1
        return event

    def push_entry(self, event: Event) -> None:
        """Insert an event whose ``time``/``seq`` are already assigned."""
        heappush(self._heap, (event.time, event.seq, event))
        self.pushes += 1

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def pop_before(self, bound: float) -> Optional[Event]:
        """Pop the next live event with ``time <= bound``, else ``None``.

        The bound is **inclusive**: an event stamped exactly ``bound`` pops,
        the same rule as :meth:`EventQueue.pop_before`.
        """
        heap = self._heap
        while heap:
            if heap[0][0] > bound:
                return None
            event = heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def peek_key(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the next live event without popping it.

        The network's delivery batcher compares this against its own pending
        deliveries to decide how many it may flush back-to-back without
        violating global ``(time, seq)`` order.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if heap:
            return (heap[0][0], heap[0][1])
        return None

    def note_cancelled(self) -> None:
        """Tombstone accounting hook; the plain heap only skips lazily."""

    def clear(self) -> None:
        self._heap.clear()


class SelfSchedulingTimer(RepeatingTimer):
    """A periodic timer that re-schedules itself one queue event per firing.

    The timer wheel must reproduce its event order, RNG draws and
    ``events_processed`` exactly.
    """

    __slots__ = ("_handle",)

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self._handle = None

    def start(self, start_delay: Optional[float] = None) -> None:
        if self._stopped:
            raise SimulationError("cannot restart a stopped timer")
        delay = self._next_delay() if start_delay is None else start_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        self._handle = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if self._stopped:
            return
        self._handle = self._sim.schedule(self._next_delay(), self._fire)
        self._callback()


class MemberList:
    """An agent's local view of the group as a plain dict of records.

    Takes (and ignores) ``directory`` so it can stand in for
    :class:`MembershipTable` in ``SwimAgent``. Profile v1 only: it has no
    twin of the table's v2 slot-array draws.
    """

    def __init__(self, self_name: str, directory: object = None) -> None:
        self.self_name = self_name
        self._members: Dict[str, Member] = {}
        self._alive_cache: Optional[List[Member]] = None
        self._alive_count = 0
        self._suspicion_deadlines: Dict[str, float] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Member]:
        return iter(self._members.values())

    def get(self, name: str) -> Optional[Member]:
        return self._members.get(name)

    def _count_delta(self, old: Optional[Member], new: Optional[Member]) -> None:
        if old is not None and old.state == MemberState.ALIVE:
            self._alive_count -= 1
        if new is not None and new.state == MemberState.ALIVE:
            self._alive_count += 1

    def upsert(self, member: Member) -> None:
        """Insert or unconditionally replace a member record."""
        self._count_delta(self._members.get(member.name), member)
        self._members[member.name] = member
        self._alive_cache = None

    def remove(self, name: str) -> None:
        old = self._members.pop(name, None)
        self._count_delta(old, None)
        self._suspicion_deadlines.pop(name, None)
        self._alive_cache = None

    def apply(self, update: Member) -> bool:
        """Apply an update if it supersedes the current record.

        Returns True if the view changed (the caller should re-broadcast).
        """
        current = self._members.get(update.name)
        if current is None:
            self._count_delta(None, update)
            self._members[update.name] = update
            self._alive_cache = None
            return True
        if supersedes(update.state, update.incarnation, current.state, current.incarnation):
            self._count_delta(current, update)
            self._members[update.name] = update
            self._alive_cache = None
            return True
        return False

    @property
    def alive_count(self) -> int:
        """Number of alive members, maintained incrementally (O(1))."""
        return self._alive_count

    def prewarm(self) -> None:
        """Twin of ``MembershipTable.prewarm``: build the lazy alive view at
        agent start. Pure caching — runs are byte-identical without it."""
        self.alive()

    def alive(self, *, exclude_self: bool = False) -> List[Member]:
        if self._alive_cache is None:
            self._alive_cache = [
                m for m in self._members.values() if m.state == MemberState.ALIVE
            ]
        if exclude_self:
            return [m for m in self._alive_cache if m.name != self.self_name]
        return list(self._alive_cache)

    def alive_names(self, *, exclude_self: bool = False) -> List[str]:
        return [m.name for m in self.alive(exclude_self=exclude_self)]

    def suspects(self) -> List[Member]:
        return [m for m in self._members.values() if m.state == MemberState.SUSPECT]

    def snapshot_wire(self) -> List[Dict[str, object]]:
        """Full state for push-pull anti-entropy sync."""
        return [m.to_wire() for m in self._members.values()]

    def snapshot_size(self) -> int:
        """Estimated wire size of :meth:`snapshot_wire`."""
        return 2 + sum(m.wire_size() + 1 for m in self._members.values())

    # ----------------------------------------------------- selection helpers
    # Same selection API as MembershipTable: the SWIM agent only ever
    # selects peers through these, so swapping the oracle in cannot perturb
    # the RNG draw sequence. Each helper makes at most one rng draw, over
    # the insertion-ordered alive view.
    def peek(self, name: str) -> Optional[Tuple[int, str]]:
        """``(incarnation, state value)`` or None, without a Member copy."""
        member = self._members.get(name)
        if member is None:
            return None
        return member.incarnation, member.state.value

    def gossip_targets(self, rng: random.Random, max_fanout: int) -> List[str]:
        """Addresses of up to ``max_fanout`` random alive peers."""
        peers = self.alive(exclude_self=True)
        if not peers:
            return []
        sampled = rng.sample(peers, min(max_fanout, len(peers)))
        return [member.address for member in sampled]

    def sync_peer(self, rng: random.Random) -> Optional[str]:
        """Address of one random alive peer for push-pull anti-entropy."""
        peers = self.alive(exclude_self=True)
        if not peers:
            return None
        return rng.choice(peers).address

    def relay_sample(
        self, rng: random.Random, count: int, exclude_name: str
    ) -> List[str]:
        """Addresses of up to ``count`` relays for an indirect probe."""
        relays = [
            member
            for member in self.alive(exclude_self=True)
            if member.name != exclude_name
        ]
        if not relays:
            return []
        sampled = rng.sample(relays, min(count, len(relays)))
        return [member.address for member in sampled]

    def filter_superseding(
        self, updates: Sequence[Dict[str, object]]
    ) -> Sequence[Dict[str, object]]:
        """No prefilter: the apply loop drops stale updates one by one."""
        return updates

    def expire_dead(self, cutoff: float) -> int:
        """Reclaim dead/left records older than ``cutoff``; returns count."""
        stale = [
            member.name
            for member in self._members.values()
            if member.state in (MemberState.DEAD, MemberState.LEFT)
            and member.state_time < cutoff
        ]
        for name in stale:
            self.remove(name)
        return len(stale)

    def set_suspicion_deadline(self, name: str, deadline: float) -> None:
        self._suspicion_deadlines[name] = deadline

    def due_suspects(self, now: float) -> List[str]:
        """Names of suspects whose suspicion deadline has passed."""
        deadlines = self._suspicion_deadlines
        return [
            member.name
            for member in self._members.values()
            if member.state == MemberState.SUSPECT
            and deadlines.get(member.name, float("inf")) <= now
        ]
