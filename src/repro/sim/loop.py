"""The simulator event loop.

A :class:`Simulator` owns simulated time, the event queue and the root random
number generator. Everything in a run — gossip timers, network deliveries,
workload arrivals — is an event on this single loop, which makes runs
reproducible from a single seed.

Scheduling backends (``scheduler=`` constructor knob):

* ``"calendar"`` (default) — the calendar-queue/heap hybrid in
  :mod:`repro.sim.events`, plus a :class:`TimerWheel` that coalesces
  same-interval :class:`RepeatingTimer` storms (1600 nodes' probe ticks)
  into one recycled sentinel entry per interval class;
* ``"heap"`` — the original single binary heap with per-timer scheduling,
  kept so equivalence tests and benchmarks can A/B the two. Both backends
  produce bit-identical event order and RNG draws for the same seed.
* ``"auto"`` — starts on the heap (cheapest at small live-queue widths) and
  migrates every pending event into the calendar queue once the live width
  crosses :data:`~repro.sim.events.AUTO_CALENDAR_THRESHOLD`. Both backends
  drain in identical ``(time, seq)`` order, so the switch is invisible to
  seeded runs.

Determinism profiles (``profile=`` constructor knob):

* ``"v1"`` (default) — the bit-exact reference: every random draw comes from
  per-component ``random.Random`` streams, one Python-level draw at a time.
  The seeded kernel checksum is pinned in ``BENCH_kernel.json`` and must
  never move.
* ``"v2"`` — the fast profile: components may replace per-element draws with
  batched ``numpy.random.Generator`` draws (probe-order permutations, block
  jitter/loss sampling) and per-message Python objects with arena records.
  Runs are still fully deterministic — same seed, same byte stream — but the
  stream *differs* from v1, so v2 carries its own pinned checksum
  (``checksum_v2``) and is validated against v1 statistically (same
  convergence/detection distributions) rather than byte-for-byte.

Long-lived state (membership tables, the node directory, interning pools)
can be pinned out of the cyclic collector's reach after warmup via
:meth:`Simulator.freeze_hot_state`, with the collection thresholds tuned
through the ``gc_thresholds`` knob — see that method's docstring.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, TypeVar

from repro.errors import SimulationError
from repro.sim.events import (
    AutoEventQueue,
    Event,
    EventQueue,
    HeapEventQueue,
    TimerHandle,
)

#: Valid determinism profiles; see the module docstring.
PROFILES = ("v1", "v2")

T = TypeVar("T")

#: Default GC thresholds applied by :meth:`Simulator.freeze_hot_state` under
#: profile v2 when the constructor got no explicit ``gc_thresholds``: a much
#: larger gen0 allocation budget (protocol traffic allocates heavily but
#: almost everything dies young) and gen1/gen2 promotion factors high enough
#: that full collections essentially never run inside a timed region.
V2_GC_THRESHOLDS = (50_000, 50, 50)


class Simulator:
    """Discrete-event simulator with deterministic ordering.

    Parameters
    ----------
    seed:
        Seed for the root RNG. Child components should derive their own
        streams via :meth:`derive_rng` so that adding a component does not
        perturb the randomness seen by unrelated components.
    scheduler:
        ``"calendar"`` (default) or ``"heap"``; see the module docstring.
    coalesce_timers:
        When ``True`` (default) repeating timers register with the shared
        :class:`TimerWheel` instead of re-scheduling themselves one event per
        firing. Ordering is bit-identical either way.
    bucket_width / wheel_span:
        Calendar-queue geometry, forwarded to :class:`EventQueue`.
    profile:
        Determinism profile, ``"v1"`` (default, bit-exact) or ``"v2"``
        (fast; batched numpy RNG + arena message records). Components read
        :attr:`profile` at construction to pick their draw strategy; see the
        module docstring.
    gc_thresholds:
        Optional ``(gen0, gen1, gen2)`` tuple applied (process-wide) by
        :meth:`freeze_hot_state` and restored by :meth:`unfreeze_hot_state`.
        Defaults to :data:`V2_GC_THRESHOLDS` under profile v2 and to
        "leave the interpreter's thresholds alone" under v1.
    workers:
        Declared parallelism for drivers that support the region-sharded
        kernel (:mod:`repro.sim.parallel`). ``1`` (default) is the serial
        loop; ``N > 1`` asks a parallel-aware driver to partition the
        topology's regions over ``N`` worker processes synchronized by
        conservative time windows. The value is advisory — this object is
        always a serial event loop; drivers that ignore it (every pre-existing
        harness) behave exactly as before, which is what keeps ``workers=1``
        byte-identical to the serial kernel.
    strict_rng_labels:
        When ``True``, :meth:`derive_rng` / :meth:`derive_np_rng` raise on a
        duplicate label instead of silently handing out the *same* stream
        twice (two components drawing from one sequence — the classic
        determinism leak). Off by default because crash/restart scenarios
        legitimately re-derive a restarted process's timer labels; collisions
        are always recorded and queryable via :meth:`rng_label_collisions`.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        scheduler: str = "calendar",
        coalesce_timers: bool = True,
        bucket_width: Optional[float] = None,
        wheel_span: Optional[int] = None,
        profile: str = "v1",
        gc_thresholds: Optional[Tuple[int, int, int]] = None,
        workers: int = 1,
        strict_rng_labels: bool = False,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        if not isinstance(workers, int) or workers < 1:
            raise SimulationError(
                f"workers must be a positive int, got {workers!r}"
            )
        self.workers = workers
        self.strict_rng_labels = strict_rng_labels
        #: (method, label) -> times derived; >1 entries are collisions.
        self._derived_labels: Dict[Tuple[str, str], int] = {}
        if profile not in PROFILES:
            raise SimulationError(
                f"unknown determinism profile {profile!r} "
                f"(expected one of {PROFILES})"
            )
        self.profile = profile
        if gc_thresholds is None and profile == "v2":
            gc_thresholds = V2_GC_THRESHOLDS
        if gc_thresholds is not None:
            gc_thresholds = tuple(int(t) for t in gc_thresholds)
            if len(gc_thresholds) != 3 or any(t <= 0 for t in gc_thresholds):
                raise SimulationError(
                    f"gc_thresholds must be three positive ints, "
                    f"got {gc_thresholds!r}"
                )
        self.gc_thresholds = gc_thresholds
        self._gc_frozen = False
        self._gc_prev_thresholds: Optional[Tuple[int, int, int]] = None
        if scheduler == "calendar" or scheduler == "auto":
            kwargs = {}
            if bucket_width is not None:
                kwargs["bucket_width"] = bucket_width
            if wheel_span is not None:
                kwargs["wheel_span"] = wheel_span
            if scheduler == "auto":
                self._queue = AutoEventQueue(**kwargs)
            else:
                self._queue = EventQueue(**kwargs)
        elif scheduler == "heap":
            self._queue = HeapEventQueue()
        else:
            raise SimulationError(
                f"unknown scheduler {scheduler!r} "
                "(expected 'calendar', 'heap' or 'auto')"
            )
        self.scheduler = scheduler
        #: v2: fired fire-and-forget events return here and are reused by the
        #: next ``post`` instead of being allocated fresh (slot storage for
        #: queued records — only ``post``-created events are pooled; anything
        #: a TimerHandle can still reach is never reused).
        self._event_pool: Optional[list] = [] if profile == "v2" else None
        self._wheel: Optional[TimerWheel] = (
            TimerWheel(self) if coalesce_timers else None
        )
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        #: Upper time bound of the innermost active :meth:`run_until`, or
        #: +inf outside one. Batch executors (the network's delivery classes)
        #: consult it so a flush never runs past the caller's stop time.
        self._run_bound = math.inf
        self._shared: Dict[Hashable, object] = {}

    def shared(self, key: Hashable, factory: Callable[[], T]) -> T:
        """The one object this simulation holds under ``key``.

        ``factory()`` builds it on first request. Components simulated side
        by side share state through it (e.g. one node directory per gossip
        group) instead of a module-level registry, which would leak between
        simulations in one process.
        """
        obj = self._shared.get(key)
        if obj is None:
            obj = self._shared[key] = factory()
        return obj  # type: ignore[return-value]

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far (for performance tuning)."""
        return self._events_processed

    # ------------------------------------------------------------- scheduling
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        event = self._queue.push(self._now + delay, callback, args)
        return TimerHandle(event, self._queue)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} (now={self._now:.6f})"
            )
        event = self._queue.push(time, callback, args)
        return TimerHandle(event, self._queue)

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`TimerHandle`.

        For hot paths (network deliveries, protocol timeouts) that never
        cancel: it skips the handle allocation entirely. Ordering is
        identical to :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = self._now + delay
            event.seq = self._queue.alloc_seq()
            event.callback = callback
            event.args = args
            self._queue.push_entry(event)
        else:
            event = self._queue.push(self._now + delay, callback, args)
            if pool is not None:
                event.recyclable = True

    def call_every(
        self,
        interval: float,
        callback: Callable[[], Any],
        *,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        start_delay: Optional[float] = None,
    ) -> "RepeatingTimer":
        """Run ``callback()`` every ``interval`` seconds until cancelled.

        ``jitter`` adds a uniform offset in ``[0, jitter)`` to each firing,
        which desynchronises periodic protocols the way real deployments are
        desynchronised by clock drift.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        timer = RepeatingTimer(self, interval, callback, jitter, rng or self.rng)
        timer.start(start_delay)
        return timer

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next event. Returns ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - queue invariant
            raise SimulationError("event queue returned an event from the past")
        self._now = event.time
        self._events_processed += 1
        event.callback(*event.args)
        return True

    def run_until(self, time: float) -> None:
        """Run events until simulated time reaches ``time``.

        The clock is advanced to exactly ``time`` even if the queue drains
        early, so back-to-back ``run_until`` calls behave like a wall clock.

        **Boundary rule** (load-bearing for the parallel kernel's window
        barriers, identical across the heap, calendar and auto backends —
        see ``tests/test_run_until_boundary.py``): the bound is *inclusive*.
        An event stamped exactly ``time`` executes inside this call, in
        ``(time, seq)`` order with everything else at that instant. An event
        pushed *during* the call with a stamp equal to the bound (e.g. a
        zero-delay post from a callback running at ``t == time``) also
        executes in this call; only stamps strictly greater than ``time``
        carry over. After the call returns, ``now == time``, and an event
        then scheduled at exactly ``now`` (delay 0) runs in the *next* call
        — so a window barrier at ``t`` may inject messages stamped ``t`` for
        the following window without re-entering the closed one.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards to t={time:.6f} (now={self._now:.6f})"
            )
        # Hot loop: one bounded pop per event instead of peek + pop, with the
        # bound check done against the queue head inside the queue.
        pop_before = self._queue.pop_before
        pool = self._event_pool
        previous_bound = self._run_bound
        self._run_bound = time
        try:
            if pool is None:
                while True:
                    event = pop_before(time)
                    if event is None:
                        break
                    self._now = event.time
                    self._events_processed += 1
                    event.callback(*event.args)
            else:
                recycle = pool.append
                while True:
                    event = pop_before(time)
                    if event is None:
                        break
                    self._now = event.time
                    self._events_processed += 1
                    event.callback(*event.args)
                    if event.recyclable:
                        event.callback = None
                        event.args = ()
                        recycle(event)
        finally:
            self._run_bound = previous_bound
        self._now = time

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` is hit).

        Returns the number of events executed. Note that systems with
        repeating timers never drain; prefer :meth:`run_until` for those.
        """
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                break
            executed += 1
        return executed

    # ------------------------------------------------------------------ rng
    def _note_label(self, method: str, label: str) -> None:
        """Record a stream derivation; duplicate = shared-stream hazard.

        Keyed by (method, label) because deriving *both* a ``random.Random``
        and a numpy Generator for one label is fine — they hash the same
        string but the streams are algorithmically unrelated. Deriving the
        same label twice through the same method hands two components the
        same sequence, which silently couples their draws.
        """
        key = (method, label)
        count = self._derived_labels.get(key, 0) + 1
        self._derived_labels[key] = count
        if count > 1 and self.strict_rng_labels:
            raise SimulationError(
                f"RNG label {label!r} derived {count} times via {method} "
                f"on one simulator — two components would share one stream. "
                f"Disambiguate the label (or drop strict_rng_labels if this "
                f"is a deliberate crash-restart re-derivation)."
            )

    def rng_label_collisions(self) -> Dict[Tuple[str, str], int]:
        """``(method, label) -> derivation count`` for labels derived more
        than once. Empty in a well-labelled simulation; crash-restart
        scenarios legitimately re-derive restarted processes' timer labels."""
        return {k: n for k, n in self._derived_labels.items() if n > 1}

    def derive_rng(self, label: str) -> random.Random:
        """Create an independent RNG stream keyed by ``label`` and the seed."""
        self._note_label("derive_rng", label)
        return random.Random(f"{self.seed}/{label}")

    def derive_np_rng(self, label: str):
        """Independent ``numpy.random.Generator`` keyed by ``label`` + seed.

        Seeded through a sha256 digest of the same ``"{seed}/{label}"`` string
        :meth:`derive_rng` hashes, so the stream is stable across platforms
        and interpreter hash randomization. Used by profile-v2 components for
        batched draws; the lazy import keeps ``repro.sim.loop`` importable
        where numpy is absent (numpy is only required once v2 is selected).
        """
        import numpy as np

        self._note_label("derive_np_rng", label)
        digest = hashlib.sha256(f"{self.seed}/{label}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:16], "little"))

    # ------------------------------------------------------------------- gc
    def freeze_hot_state(self) -> Dict[str, object]:
        """Pin all currently-live objects out of the cyclic collector.

        Intended to run once, after warmup (topology built, agents started,
        membership pre-seeded): a full collection sweeps the construction
        garbage, ``gc.freeze`` moves every survivor — membership tables, the
        node directory, interning pools, the event queue — to the permanent
        generation, and the collection thresholds are raised to
        :attr:`gc_thresholds` (when set) so the young generations stop
        promoting protocol traffic into gen2 scans. This changes *no* event
        ordering or RNG draw — it is purely an allocator/GC lever, safe under
        either determinism profile.

        Both ``gc.freeze`` and ``gc.set_threshold`` are process-global;
        :meth:`unfreeze_hot_state` undoes both (benchmarks that build several
        simulators back to back must call it, or each frozen population
        leaks into the next run's heap). Returns a stats dict — frozen-object
        count, per-generation ``gc.get_stats()`` before/after — which the
        kernel benchmark uploads as a CI artifact so GC-pressure regressions
        stay visible in PRs.
        """
        stats_before = gc.get_stats()
        collected = gc.collect()
        gc.freeze()
        if self.gc_thresholds is not None and not self._gc_frozen:
            self._gc_prev_thresholds = gc.get_threshold()
            gc.set_threshold(*self.gc_thresholds)
        self._gc_frozen = True
        return {
            "collected": collected,
            "frozen": gc.get_freeze_count(),
            "thresholds": list(gc.get_threshold()),
            "stats_before": stats_before,
            "stats_after": gc.get_stats(),
        }

    def unfreeze_hot_state(self) -> None:
        """Undo :meth:`freeze_hot_state`: thaw the permanent generation and
        restore the interpreter's previous collection thresholds."""
        if not self._gc_frozen:
            return
        gc.unfreeze()
        if self._gc_prev_thresholds is not None:
            gc.set_threshold(*self._gc_prev_thresholds)
            self._gc_prev_thresholds = None
        self._gc_frozen = False


class _IntervalClass:
    """All wheel-registered timers sharing one interval value.

    ``heap`` orders members by their next ``(fire_time, seq)``; ``event`` is
    the single recycled sentinel scheduled at the head member's exact key;
    ``target`` is that key while ``scheduled`` is true.
    """

    __slots__ = ("interval", "heap", "event", "target", "scheduled")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.heap: list = []
        self.event: Optional[Event] = None
        self.target: Optional[Tuple[float, int]] = None
        self.scheduled = False


class TimerWheel:
    """Coalesces same-interval periodic timers into shared queue slots.

    N nodes' probe timers at the same interval keep N entries in one small
    per-class heap but only **one** entry — a recycled sentinel — in the
    event queue. Each firing pops exactly one due member, re-arms it (drawing
    its jitter from its own RNG, same as self-scheduling would), and re-aims
    the sentinel at the new head. The sentinel always adopts the head
    member's exact ``(time, seq)`` key, with seq numbers allocated from the
    queue's shared counter at the same moments per-timer scheduling would
    allocate them — so event order, RNG draws and ``events_processed`` are
    bit-identical to the un-coalesced implementation (asserted by
    ``tests/test_sim_scheduler.py``), while each firing costs two small heap
    operations and zero allocations instead of an ``Event`` + ``TimerHandle``
    pair per period.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._queue = sim._queue
        # Bound seq allocator: one C call per re-arm instead of a method hop.
        self._alloc = sim._queue._seq.__next__
        self._classes: Dict[float, _IntervalClass] = {}

    def class_count(self) -> int:
        """Number of distinct interval classes seen (test/debug helper)."""
        return len(self._classes)

    def add(self, timer: "RepeatingTimer", fire_time: float) -> None:
        """Register ``timer``'s next firing at absolute ``fire_time``."""
        queue = self._sim._queue
        seq = queue.alloc_seq()
        interval = timer._interval
        cls = self._classes.get(interval)
        if cls is None:
            cls = _IntervalClass(interval)
            self._classes[interval] = cls
        key = (fire_time, seq)
        timer._pending = key
        timer._pending_class = cls
        heappush(cls.heap, (fire_time, seq, timer))
        if not cls.scheduled or key < cls.target:
            self._retarget(cls)

    def discard(self, timer: "RepeatingTimer") -> None:
        """Forget a stopped timer.

        Its heap entry is tombstoned lazily; the sentinel is re-aimed only if
        it was pointing at this very timer.
        """
        cls = timer._pending_class
        if cls is not None and cls.scheduled and cls.target == timer._pending:
            self._retarget(cls)

    def _reap(self, cls: _IntervalClass) -> None:
        """Drop an emptied interval class so churning intervals don't leak.

        Called wherever a class's member heap drains (all timers stopped or
        migrated away via ``set_interval``). A later ``add`` for the same
        interval simply recreates the class, so reaping is invisible to
        timers — it only bounds ``_classes`` by the number of *live* distinct
        intervals instead of every interval ever seen.
        """
        if not cls.heap:
            current = self._classes.get(cls.interval)
            if current is cls:
                del self._classes[cls.interval]

    def _fire_class(self, cls: _IntervalClass) -> None:
        """Sentinel callback: fire the one due member, re-arm, re-aim.

        This is the per-event hot path of a coalesced timer storm, so the
        common case (member stays in its class, sentinel reusable, head
        live) is fully inlined: two small-heap operations, one jitter draw,
        one seq allocation, one bucket insert — zero allocations.
        """
        heap = cls.heap
        while True:
            time, seq, timer = heap[0]
            pending = timer._pending
            if not timer._stopped and pending[0] == time and pending[1] == seq:
                break
            heappop(heap)  # tombstoned (stopped or superseded) member
            if not heap:  # pragma: no cover - sentinel is re-aimed on head stop
                cls.scheduled = False
                cls.target = None
                self._reap(cls)
                return
        # Re-arm before the callback, exactly like RepeatingTimer._fire: the
        # jitter draw and seq allocation happen at the same moments they
        # would under per-timer scheduling. The sentinel fired *at* the
        # member's key, so the member's own ``time`` is the current clock.
        interval = timer._interval
        jitter = timer._jitter
        if jitter > 0.0:
            next_time = time + interval + timer._rng.uniform(0.0, jitter)
        else:
            next_time = time + interval
        next_seq = self._alloc()
        timer._pending = (next_time, next_seq)
        if interval == cls.interval:
            # next_time > time, so replacing the heap top keeps the invariant
            # with a single sift instead of a pop + push pair.
            heapreplace(heap, (next_time, next_seq, timer))
        else:
            # set_interval moved the timer to a different class mid-flight.
            heappop(heap)
            self._rearm_into_new_class(timer, next_time, next_seq)
        # Re-aim the sentinel at the class's live head.
        while heap:
            head_time, head_seq, head_timer = heap[0]
            pending = head_timer._pending
            if (
                head_timer._stopped
                or pending[0] != head_time
                or pending[1] != head_seq
            ):
                heappop(heap)  # tombstoned (stopped or superseded) member
                continue
            event = cls.event  # the just-fired sentinel: free to recycle
            event.time = head_time
            event.seq = head_seq
            cls.target = (head_time, head_seq)
            self._queue.push_entry(event)  # cls.scheduled stays True
            timer._callback()
            return
        cls.scheduled = False
        cls.target = None
        self._reap(cls)
        timer._callback()

    def _rearm_into_new_class(
        self, timer: "RepeatingTimer", next_time: float, next_seq: int
    ) -> None:
        """Slow path of :meth:`_fire_class`: the timer changed interval."""
        interval = timer._interval
        target_cls = self._classes.get(interval)
        if target_cls is None:
            target_cls = _IntervalClass(interval)
            self._classes[interval] = target_cls
        timer._pending_class = target_cls
        key = (next_time, next_seq)
        heappush(target_cls.heap, (next_time, next_seq, timer))
        if not target_cls.scheduled or key < target_cls.target:
            self._retarget(target_cls)

    def _retarget(self, cls: _IntervalClass) -> None:
        """Schedule the sentinel at the head member's exact ``(time, seq)``."""
        heap = cls.heap
        while heap:
            time, seq, timer = heap[0]
            if timer._stopped or timer._pending != (time, seq):
                heappop(heap)  # tombstoned (stopped or superseded) member
                continue
            break
        queue = self._sim._queue
        if not heap:
            if cls.scheduled:
                cls.event.cancelled = True
                queue.note_cancelled()
                cls.event = None
                cls.scheduled = False
            cls.target = None
            self._reap(cls)
            return
        key = (time, seq)
        if cls.scheduled:
            if cls.target == key:
                return
            # The queued sentinel entry is stale; tombstone it and use a
            # fresh Event (the old object stays behind as the tombstone).
            cls.event.cancelled = True
            queue.note_cancelled()
            cls.event = None
        event = cls.event
        if event is None:
            event = Event(time, seq, self._fire_class, (cls,))
            cls.event = event
        else:
            event.time = time
            event.seq = seq
        queue.push_entry(event)
        cls.scheduled = True
        cls.target = key


class RepeatingTimer:
    """A periodic timer created by :meth:`Simulator.call_every`.

    With timer coalescing on (the default) the timer registers with the
    simulator's :class:`TimerWheel`; otherwise it re-schedules itself one
    event per firing, which is the original (reference) behaviour.
    """

    __slots__ = (
        "_sim",
        "_interval",
        "_callback",
        "_jitter",
        "_rng",
        "_handle",
        "_stopped",
        "_pending",
        "_pending_class",
    )

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        jitter: float,
        rng: random.Random,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._rng = rng
        self._handle: Optional[TimerHandle] = None
        self._stopped = False
        self._pending: Optional[Tuple[float, int]] = None
        self._pending_class: Optional[_IntervalClass] = None

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def interval(self) -> float:
        return self._interval

    def set_interval(self, interval: float) -> None:
        """Change the period; takes effect from the next (re)scheduling."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._interval = interval

    def start(self, start_delay: Optional[float] = None) -> None:
        if self._stopped:
            raise SimulationError("cannot restart a stopped timer")
        delay = self._next_delay() if start_delay is None else start_delay
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        wheel = self._sim._wheel
        if wheel is not None:
            wheel.add(self, self._sim.now + delay)
        else:
            self._handle = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._pending_class is not None:
            self._sim._wheel.discard(self)
            self._pending_class = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _next_delay(self) -> float:
        if self._jitter > 0:
            return self._interval + self._rng.uniform(0.0, self._jitter)
        return self._interval

    def _fire(self) -> None:
        if self._stopped:
            return
        self._handle = self._sim.schedule(self._next_delay(), self._fire)
        self._callback()
