"""Simulated network: message delivery with latency, loss and accounting.

Endpoints register under a string address. ``send`` estimates the wire size
of the payload (JSON-oriented, matching the paper's JSON REST API and Serf's
UDP messages), accounts it against both endpoints' bandwidth meters, and
schedules delivery after the topology-derived one-way latency plus jitter.

Delivery scheduling is batched: instead of one event-queue entry per
in-flight message, every pending delivery lives in one shared heap ordered by
its ``(time, seq)`` key, and exactly **one** recycled sentinel event sits in
the main queue, aimed at the head message's exact key (the same
sentinel-recycling discipline as the scheduler's timer wheel). When the
sentinel fires, the flush delivers every consecutive message whose key beats
the main queue's head — advancing the clock and event count itself — so a
burst of gossip and acks lands in one tight loop with one queue entry instead
of dozens. Below :data:`DIRECT_POST_MAX` messages in flight a send posts its
delivery directly instead, since at low density the sentinel would be
re-aimed on nearly every send. Delivery keys are allocated at *send* time
from the queue's shared sequence counter and every RNG draw (degradation,
loss, jitter) stays in the send path, so which route a message takes never
changes event order, RNG streams or metrics. The seeded equivalence tests
pin that by forcing every delivery onto the direct route.

:meth:`Network.send` and :meth:`Network.send_fanout` share one send path:
size, meter and counter accounting once per call, then drop checks, latency
and routing once per destination.

Failure injection: per-pair blocks and region partitions let tests exercise
the store's quorum behaviour and SWIM's suspicion mechanism. Blocks and
partitions are re-checked at delivery time, so a fault injected while a
message is in flight still stops it (counted under
``messages_dropped.blocked_in_flight`` / ``.partitioned_in_flight``).

Determinism profiles: under the simulator's default ``v1`` profile every
loss/jitter draw comes one-at-a-time from ``random.Random`` and every
in-flight message is a :class:`Message` object — byte-identical to the
original reference implementation. Under ``v2`` (see ``sim/loop.py``) the
same draws are taken in blocks of :data:`UNIFORM_BLOCK` from a numpy
``Generator`` and consumed in send order, and in-flight records live in a
:class:`MessageArena` (parallel lists plus a free list, heap entries carry
integer slots, one flyweight ``Message`` is refilled per delivery) whenever
they take the batched route. Event *order* is identical between profiles —
only the RNG byte stream differs — which is what the v1-vs-v2
statistical-equivalence suite checks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, FrozenSet, List, Optional, Protocol, Sequence, Set, Tuple

from repro.errors import NetworkError
from repro.sim.events import Event
from repro.sim.loop import Simulator
from repro.sim.metrics import BandwidthMeter, MetricsRegistry
from repro.sim.topology import Topology

#: Fixed per-message framing overhead (UDP/IP or minimal HTTP), bytes.
MESSAGE_OVERHEAD_BYTES = 60

#: Uniform draws taken per numpy batch under the ``v2`` profile. Big enough
#: that the per-block ``Generator.random`` + ``tolist`` overhead amortises to
#: ~30 ns/draw; small enough that short runs don't waste draws.
UNIFORM_BLOCK = 1024

#: Below this many in-flight batched messages, ``send`` posts a per-message
#: delivery event directly instead of parking the message in the shared
#: heap. At low density the sentinel is retargeted on nearly every send
#: (tombstone + re-push), which is strictly more queue work than one plain
#: post — the measured source of the 0.95x ``net_delivery`` quick-bench
#: point at 400 nodes (see benchmarks/README.md). Both paths allocate the
#: delivery ``(time, seq)`` key from the same shared counter, so any mix of
#: them drains in exactly the same order and the run stays byte-identical.
DIRECT_POST_MAX = 8


class SizedPayload:
    """A payload bundled with its precomputed wire-size estimate.

    Fanout paths (gossip rebroadcast, piggyback batches, broker fanout) send
    one payload to many recipients; wrapping it once means the recursive
    :func:`approx_size` walk runs once per unique message instead of once per
    recipient. :meth:`Network.send` unwraps the wrapper before delivery, so
    message handlers always see the raw payload.
    """

    __slots__ = ("payload", "size")

    def __init__(self, payload: object, size: Optional[int] = None) -> None:
        self.payload = payload
        self.size = approx_size(payload) if size is None else size

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SizedPayload {self.size}B {self.payload!r}>"


def approx_size(payload: object) -> int:
    """Approximate the JSON-encoded size of ``payload`` in bytes.

    This intentionally avoids actually serialising every message (the
    simulator sends millions); the estimate matches ``len(json.dumps(...))``
    within a few percent for the dict/list/str/number payloads used here.

    The walk is iterative (an explicit stack) rather than recursive: deeply
    nested payloads cost no Python frames, and the flat loop is measurably
    faster on the wide-but-shallow dicts that dominate SWIM/RPC traffic.
    Container framing (braces plus per-item separators) is added when the
    container is visited; the stack then carries only leaf/child values.
    """
    total = 0
    stack = [payload]
    pop = stack.pop
    extend = stack.extend
    while stack:
        value = pop()
        if value is None:
            total += 4
        elif value is True or value is False:
            total += 5
        elif isinstance(value, (int, float)):
            total += 8
        elif isinstance(value, str):
            total += len(value) + 2
        elif isinstance(value, SizedPayload):
            total += value.size
        elif isinstance(value, bytes):
            total += len(value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            total += 2 + len(value)
            extend(value)
        elif isinstance(value, dict):
            total += 2 + 2 * len(value)
            extend(value.keys())
            extend(value.values())
        else:
            # Fallback for unexpected objects: size of their repr.
            total += len(repr(value))
    return total


class Message:
    """A message in flight. ``payload`` should be JSON-able."""

    __slots__ = ("kind", "payload", "src", "dst", "size", "sent_at")

    def __init__(
        self,
        kind: str,
        payload: object,
        src: str,
        dst: str,
        size: int,
        sent_at: float,
    ) -> None:
        self.kind = kind
        self.payload = payload
        self.src = src
        self.dst = dst
        self.size = size
        self.sent_at = sent_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Message {self.kind} {self.src}->{self.dst} {self.size}B>"


class MessageArena:
    """Slot storage for in-flight messages: parallel lists plus a free list.

    Each in-flight message occupies one integer slot across six parallel
    lists instead of one six-field Python object, so a run with hundreds of
    thousands of sends creates no per-message objects for the GC to trace —
    the lists are long-lived and (after :meth:`~repro.sim.loop.Simulator.
    freeze_hot_state`) frozen. Slots are recycled LIFO through ``_free``;
    both allocation and release happen in event order, so slot assignment is
    deterministic. Capacity doubles on exhaustion and never shrinks.

    :meth:`load` refills a caller-owned flyweight :class:`Message` from a
    slot; the flyweight is only valid until the next ``load``. Delivery
    handlers and taps read the message synchronously, so they never notice —
    but a handler that *retains* the message object (rather than its fields)
    must run under the v1 profile, which keeps one object per message.
    """

    __slots__ = ("kind", "payload", "src", "dst", "size", "sent_at",
                 "_free", "capacity")

    def __init__(self, capacity: int = 4096) -> None:
        self.kind: List[Optional[str]] = [None] * capacity
        self.payload: List[object] = [None] * capacity
        self.src: List[Optional[str]] = [None] * capacity
        self.dst: List[Optional[str]] = [None] * capacity
        self.size: List[int] = [0] * capacity
        self.sent_at: List[float] = [0.0] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self.capacity = capacity

    def __len__(self) -> int:
        """Number of live (allocated) slots."""
        return self.capacity - len(self._free)

    def alloc(self, kind: str, payload: object, src: str, dst: str,
              size: int, sent_at: float) -> int:
        free = self._free
        if not free:
            self._grow()
            free = self._free
        slot = free.pop()
        self.kind[slot] = kind
        self.payload[slot] = payload
        self.src[slot] = src
        self.dst[slot] = dst
        self.size[slot] = size
        self.sent_at[slot] = sent_at
        return slot

    def _grow(self) -> None:
        old = self.capacity
        self.kind.extend([None] * old)
        self.payload.extend([None] * old)
        self.src.extend([None] * old)
        self.dst.extend([None] * old)
        self.size.extend([0] * old)
        self.sent_at.extend([0.0] * old)
        # New slots go on top of the (empty) free list, highest first, so the
        # next allocations take the lowest new slot — the same order a fresh
        # arena of the doubled size would produce.
        self._free.extend(range(2 * old - 1, old - 1, -1))
        self.capacity = 2 * old

    def load(self, slot: int, message: Message) -> Message:
        """Refill the flyweight ``message`` from ``slot`` and return it."""
        message.kind = self.kind[slot]
        message.payload = self.payload[slot]
        message.src = self.src[slot]
        message.dst = self.dst[slot]
        message.size = self.size[slot]
        message.sent_at = self.sent_at[slot]
        return message

    def release(self, slot: int) -> None:
        # Drop the payload/string references so the arena never pins dead
        # payload graphs; scalar fields are overwritten on reuse.
        self.payload[slot] = None
        self.kind[slot] = None
        self.src[slot] = None
        self.dst[slot] = None
        self._free.append(slot)


class _BlockUniform:
    """Per-region batched uniform tap (``v2`` profile + ``region_rng``).

    Same block discipline as :meth:`Network._next_uniform`, but each source
    region owns its own generator and block, so one region's draw count never
    shifts another region's sequence — the property the parallel kernel needs
    to run regions in separate processes.
    """

    __slots__ = ("_np_rng", "_block")

    def __init__(self, np_rng) -> None:
        self._np_rng = np_rng
        self._block: List[float] = []

    def __call__(self) -> float:
        block = self._block
        if not block:
            block[:] = self._np_rng.random(UNIFORM_BLOCK).tolist()
            block.reverse()
        return block.pop()


class Endpoint(Protocol):
    """Anything that can be attached to the network."""

    address: str
    region: str

    def handle_message(self, message: Message) -> None:
        """Called on delivery of each message addressed to this endpoint."""


#: ``target`` value marking a batch whose sentinel just fired and is being
#: drained; compares below every real ``(time, seq)`` key so sends landing
#: in the batch mid-flush never try to schedule a second sentinel.
_DRAINING = (-1.0, -1)


class _DeliveryBatch:
    """The network's in-flight messages, sharing one queue sentinel.

    ``heap`` orders pending deliveries by their ``(time, seq)`` key, which is
    allocated at send time; ``event`` is the single recycled sentinel entry
    the batch keeps in the main event queue, aimed at the head's exact key
    while ``scheduled`` is true. Messages are never cancelled, so unlike the
    timer wheel the heap holds no tombstones. Sentinel retargets from the
    send path are rare: the head delivery is almost always nearer than the
    shortest link latency a new send could add.
    """

    __slots__ = ("heap", "event", "target", "scheduled")

    def __init__(self) -> None:
        #: Entries are ``(time, seq, Message)`` in object mode or
        #: ``(time, seq, slot)`` with an int arena slot under ``v2``.
        self.heap: List[Tuple[float, int, object]] = []
        self.event: Optional[Event] = None
        self.target: Optional[Tuple[float, int]] = None
        self.scheduled = False


class Network:
    """Latency- and bandwidth-accounted message fabric.

    Parameters
    ----------
    sim:
        The simulator whose clock drives deliveries.
    topology:
        Region latency model.
    loss_rate:
        Probability that any message is silently dropped (failure injection);
        must lie in ``[0, 1]``.
    jitter_fraction:
        Per-message latency jitter: delivery latency is the topology-derived
        base times ``1 + uniform(0, jitter_fraction)``. Must be ``>= 0`` — a
        negative fraction could otherwise schedule delivery in the simulated
        past.
    record_bandwidth_events:
        When ``True`` meters keep per-message timestamped events so arbitrary
        windows can be measured; when ``False`` meters keep aggregates only
        (totals plus the observed time span — window queries that cover every
        event still answer exactly, see :meth:`BandwidthMeter.bytes_in_window`).
        Defaults to ``None``, which resolves to ``True`` under the ``v1``
        profile and ``False`` under ``v2``: the fast profile trades the
        per-message log (two list appends on every delivery) for aggregate
        meters, exactly like it trades per-message records for arena slots.
        Pass an explicit ``True`` to keep full logs under v2.
    bandwidth_horizon:
        When set, each meter discards recorded events older than this many
        seconds behind its newest event; window queries that start inside the
        horizon are unaffected (see :class:`BandwidthMeter`). Bounds memory
        on long runs that only ever measure recent windows.
    region_rng:
        When ``True``, loss/jitter and degraded-link draws come from
        per-*source-region* streams (``network@<region>`` /
        ``network/degrade@<region>``) instead of the single shared
        ``network`` stream. This decouples the regions' RNG sequences, which
        is the precondition for running each region's event loop in its own
        process (:mod:`repro.sim.parallel`): with one shared stream, which
        draw a message gets depends on the *global* interleaving of sends
        across regions. Off by default — the pinned v1/v2 determinism
        checksums consume the shared stream; runs with ``region_rng=True``
        are equally deterministic but a *different* byte stream, so never
        compare one against the other.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[Topology] = None,
        *,
        loss_rate: float = 0.0,
        jitter_fraction: float = 0.1,
        record_bandwidth_events: Optional[bool] = None,
        bandwidth_horizon: Optional[float] = None,
        region_rng: bool = False,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise NetworkError(f"loss rate must be in [0, 1], got {loss_rate}")
        if jitter_fraction < 0.0:
            raise NetworkError(
                f"jitter fraction must be >= 0, got {jitter_fraction}"
            )
        self.sim = sim
        self.topology = topology if topology is not None else Topology()
        self.loss_rate = loss_rate
        self.jitter_fraction = jitter_fraction
        if record_bandwidth_events is None:
            record_bandwidth_events = getattr(sim, "profile", "v1") != "v2"
        self.record_bandwidth_events = record_bandwidth_events
        self.bandwidth_horizon = bandwidth_horizon
        self.metrics = MetricsRegistry()
        self._endpoints: Dict[str, Endpoint] = {}
        #: Last known region per address; kept after unregister so messages
        #: racing a death still pay the dead node's real latency.
        self._last_region: Dict[str, str] = {}
        self._meters: Dict[str, BandwidthMeter] = {}
        self._blocked: Set[FrozenSet[str]] = set()
        self._blocked_regions: Set[FrozenSet[str]] = set()
        #: One-directional blocks: ``(src, dst)`` pairs (asymmetric failures).
        self._blocked_directed: Set[Tuple[str, str]] = set()
        #: Per-link degradation overrides: pair -> (latency multiplier, loss).
        self._degraded: Dict[FrozenSet[str], Tuple[float, float]] = {}
        self._rng = sim.derive_rng("network")
        # Degraded-link loss draws come from their own stream so layering a
        # degradation onto one link never shifts the base ``_rng`` sequence
        # (loss + jitter draws) seen by the rest of the run.
        self._degrade_rng = sim.derive_rng("network/degrade")
        # ``_uniform`` is the single tap every loss and jitter draw goes
        # through. v1 binds it straight to ``random.Random.random`` (the
        # reference byte stream); v2 refills a block of numpy draws and pops
        # them in send order, so draws stay deterministic per seed but come
        # from a different (much cheaper per-draw) generator.
        self._profile = getattr(sim, "profile", "v1")
        if self._profile == "v2":
            self._np_rng = sim.derive_np_rng("network")
            self._uniform_block: List[float] = []
            self._uniform = self._next_uniform
        else:
            self._np_rng = None
            self._uniform_block = []
            self._uniform = self._rng.random
        # Per-source-region streams (see the ``region_rng`` parameter). The
        # dicts are keyed by region name and built in topology order so the
        # derivations themselves are deterministic.
        self.region_rng = region_rng
        if region_rng:
            names = [r.name for r in self.topology.regions]
            self._region_degrade: Optional[Dict[str, object]] = {
                name: sim.derive_rng(f"network/degrade@{name}") for name in names
            }
            if self._profile == "v2":
                self._region_uniform: Optional[Dict[str, Callable[[], float]]] = {
                    name: _BlockUniform(sim.derive_np_rng(f"network@{name}"))
                    for name in names
                }
            else:
                self._region_uniform = {
                    name: sim.derive_rng(f"network@{name}").random
                    for name in names
                }
        else:
            self._region_degrade = None
            self._region_uniform = None
        # Region-sharded (parallel-worker) mode: when ``_export`` is set,
        # sends whose destination region is remote are handed to the exporter
        # instead of being scheduled locally — see enable_region_sharding().
        self._export: Optional[Callable[..., None]] = None
        self._remote_regions: FrozenSet[str] = frozenset()
        self._delivery_taps: list[Callable[[Message], None]] = []
        #: Wire-size table: message kind -> fixed size or callable(payload).
        self._wire_sizes: Dict[str, object] = {}
        # The per-message counters are resolved once here instead of through
        # a registry dict lookup per send/delivery (the two hottest counter
        # paths in the kernel); ``messages_dropped.<reason>`` counters are
        # cached on first use since the reason set is tiny.
        self._messages_sent = self.metrics.counter("messages_sent")
        self._bytes_sent = self.metrics.counter("bytes_sent")
        self._messages_delivered = self.metrics.counter("messages_delivered")
        # Drop counters stay lazily created: a loss-free run's registry should
        # not grow a zero-valued "messages_dropped" it never had before.
        self._messages_dropped = None
        self._drop_reason_counters: Dict[str, object] = {}
        # Delivery batching state. Sequence numbers come from the simulator
        # queue's shared counter — allocated at the same moments ``sim.post``
        # would allocate them, so batched and direct-posted deliveries
        # interleave with timers identically.
        self._in_flight = _DeliveryBatch()
        self._queue = sim._queue
        self._alloc_seq = sim._queue._seq.__next__
        # Instance copy so tests (and density experiments) can pin it.
        self._direct_post_max = DIRECT_POST_MAX
        # Direct-posted deliveries still in flight. The density check must
        # see these too: the heap alone can never climb from empty to the
        # threshold through a path that only fills once the threshold is
        # already met.
        self._direct_outstanding = 0
        # v2: in-flight records on the batched path live in slot storage and
        # handlers receive a refilled flyweight Message (valid only during
        # the handler call); v1 keeps one Message object per delivery.
        self._arena = MessageArena() if self._profile == "v2" else None
        # Flyweight refilled per arena delivery; fields are placeholders.
        self._flyweight = Message("", None, "", "", 0, 0.0)

    # ------------------------------------------------------------ membership
    def register(self, endpoint: Endpoint) -> None:
        if endpoint.address in self._endpoints:
            raise NetworkError(f"address {endpoint.address!r} already registered")
        if endpoint.region not in {r.name for r in self.topology.regions}:
            raise NetworkError(
                f"endpoint {endpoint.address!r} placed in unknown region "
                f"{endpoint.region!r}"
            )
        self._endpoints[endpoint.address] = endpoint
        self._last_region[endpoint.address] = endpoint.region

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def is_registered(self, address: str) -> bool:
        return address in self._endpoints

    def endpoint(self, address: str) -> Endpoint:
        try:
            return self._endpoints[address]
        except KeyError:
            raise NetworkError(f"unknown endpoint {address!r}") from None

    def meter(self, address: str) -> BandwidthMeter:
        meter = self._meters.get(address)
        if meter is None:
            meter = BandwidthMeter(
                address,
                record_events=self.record_bandwidth_events,
                horizon=self.bandwidth_horizon,
            )
            self._meters[address] = meter
        return meter

    # ------------------------------------------------------------- wire sizes
    def register_message_size(self, kind: str, size) -> None:
        """Register a precomputed wire size for a message ``kind``.

        ``size`` is either an ``int`` (fixed-shape messages) or a callable
        ``payload -> int``. It is consulted by :meth:`send` when the caller
        passes no explicit size, replacing the generic :func:`approx_size`
        walk for known message shapes. Re-registering a kind overwrites the
        previous entry; the size must match what ``approx_size`` would have
        returned if deterministic byte accounting across runs matters.
        """
        self._wire_sizes[kind] = size

    # ------------------------------------------------------- failure control
    def block(self, address_a: str, address_b: str) -> None:
        """Drop all traffic between two addresses (both directions)."""
        self._blocked.add(frozenset((address_a, address_b)))

    def unblock(self, address_a: str, address_b: str) -> None:
        self._blocked.discard(frozenset((address_a, address_b)))

    def block_directed(self, src: str, dst: str) -> None:
        """Drop traffic from ``src`` to ``dst`` only (asymmetric failure).

        The reverse direction keeps flowing, which is how NAT/firewall
        misconfigurations and one-way routing failures present: ``dst`` can
        still ping ``src``, but never hears an ack back.
        """
        self._blocked_directed.add((src, dst))

    def unblock_directed(self, src: str, dst: str) -> None:
        self._blocked_directed.discard((src, dst))

    def partition_regions(self, region_a: str, region_b: str) -> None:
        """Drop all traffic between two regions (both directions)."""
        self._blocked_regions.add(frozenset((region_a, region_b)))

    def heal_regions(self, region_a: str, region_b: str) -> None:
        self._blocked_regions.discard(frozenset((region_a, region_b)))

    def degrade_link(
        self,
        address_a: str,
        address_b: str,
        *,
        latency_multiplier: float = 1.0,
        loss_rate: float = 0.0,
    ) -> None:
        """Degrade one link (both directions): slower and/or lossier.

        ``latency_multiplier`` scales the topology-derived one-way latency;
        ``loss_rate`` is an *additional* drop probability applied on top of
        the network-wide one. Loss draws come from a dedicated RNG stream so
        degrading a link never perturbs the seeded event order of undegraded
        traffic. Re-degrading a pair overwrites the previous override.
        """
        if latency_multiplier <= 0:
            raise NetworkError(
                f"latency multiplier must be positive, got {latency_multiplier}"
            )
        if not 0.0 <= loss_rate <= 1.0:
            raise NetworkError(f"loss rate must be in [0, 1], got {loss_rate}")
        self._degraded[frozenset((address_a, address_b))] = (
            latency_multiplier,
            loss_rate,
        )

    def clear_link_degradation(self, address_a: str, address_b: str) -> None:
        self._degraded.pop(frozenset((address_a, address_b)), None)

    def link_degradation(
        self, address_a: str, address_b: str
    ) -> Optional[Tuple[float, float]]:
        """Current ``(latency_multiplier, loss_rate)`` override, if any."""
        return self._degraded.get(frozenset((address_a, address_b)))

    def heal_all(self) -> None:
        """Clear every injected failure: pair and directed blocks, region
        partitions, and per-link degradation overrides."""
        self._blocked.clear()
        self._blocked_regions.clear()
        self._blocked_directed.clear()
        self._degraded.clear()

    def add_delivery_tap(self, tap: Callable[[Message], None]) -> None:
        """Register a callback invoked on every successful delivery."""
        self._delivery_taps.append(tap)

    def _next_uniform(self) -> float:
        """Pop the next uniform draw from the numpy block (v2 profile).

        Draws are generated :data:`UNIFORM_BLOCK` at a time and consumed in
        generation order (the block is reversed once so ``list.pop`` walks it
        front-to-back), so the sequence of draws is a pure function of the
        seed — batch size and refill timing never change which draw the Nth
        send sees.
        """
        block = self._uniform_block
        if not block:
            block[:] = self._np_rng.random(UNIFORM_BLOCK).tolist()
            block.reverse()
        return block.pop()

    # ---------------------------------------------------------------- sending
    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: object,
        *,
        size: Optional[int] = None,
    ) -> None:
        """Send a message; delivery is scheduled, never synchronous.

        Unknown destinations and blocked/partitioned pairs silently drop the
        message (that is what the real network does); every loss is counted
        exactly once in ``metrics.counter("messages_dropped")``, with a
        per-reason counter under ``messages_dropped.<reason>``.

        ``payload`` may be a :class:`SizedPayload`, in which case its
        memoized size is used and the wrapped payload is what gets delivered.
        """
        self._send(src, (dst,), kind, payload, size)

    def send_fanout(
        self,
        src: str,
        dsts: Sequence[str],
        kind: str,
        payload: object,
        *,
        size: Optional[int] = None,
    ) -> None:
        """Send one payload to several destinations with a single prologue.

        Byte-identical to calling :meth:`send` once per destination in
        order: per-destination RNG draws (degradation, loss, jitter) happen
        in destination order, the sender's meter log and the drop/sent
        counters reach the same state, and delivery keys come from the same
        shared counter. Sender, size, meter and counters are resolved once
        per call rather than once per destination, which matters because
        gossip fan-out is ~90% of all messages in the full-protocol workload.
        """
        self._send(src, dsts, kind, payload, size)

    def _send(
        self,
        src: str,
        dsts: Sequence[str],
        kind: str,
        payload: object,
        size: Optional[int],
    ) -> None:
        """The send path behind :meth:`send` and :meth:`send_fanout`.

        The prologue (sender, wire size, sender meter, sent counters) runs
        once; then each destination in order goes through the drop checks,
        the latency draw and one of three delivery routes: export to another
        region's worker, a direct per-message post, or the in-flight heap.
        """
        sender = self._endpoints.get(src)
        if sender is None:
            raise NetworkError(f"send from unregistered endpoint {src!r}")
        if isinstance(payload, SizedPayload):
            if size is None:
                size = payload.size
            payload = payload.payload
        if size is None:
            entry = self._wire_sizes.get(kind)
            if entry is None:
                size = approx_size(payload)
            elif callable(entry):
                size = entry(payload)
            else:
                size = entry
        wire_size = size + MESSAGE_OVERHEAD_BYTES
        now = self.sim.now
        count = len(dsts)
        self.meter(src).on_send_many(now, wire_size, count)
        self._messages_sent.inc(count)
        self._bytes_sent.inc(wire_size * count)
        src_region = sender.region
        endpoints = self._endpoints
        latency_table = self.topology.latency_map()
        degraded = self._degraded
        jitter_fraction = self.jitter_fraction
        region_uniform = self._region_uniform
        if region_uniform is not None:
            uniform = region_uniform[src_region]
            degrade_rng = self._region_degrade[src_region]
        else:
            uniform = self._uniform
            degrade_rng = self._degrade_rng
        export = self._export
        batch = self._in_flight
        heap = batch.heap
        # Fault-free fast path: with no blocks, partitions, degradations or
        # loss configured, _drop_reason can only ever return
        # "unknown_destination" — that one check is kept inline and the call
        # (which makes no RNG draws in this state) is skipped entirely.
        faultless = not (
            self._blocked
            or self._blocked_directed
            or self._blocked_regions
            or degraded
            or self.loss_rate > 0
        )
        for dst in dsts:
            # The destination's region is resolved once and shared by the
            # drop checks and the latency model. A recently dead endpoint
            # routes toward where it actually lived.
            receiver = endpoints.get(dst)
            if receiver is not None:
                dst_region = receiver.region
            else:
                dst_region = self._last_region.get(dst)
            if faultless:
                if dst_region is None:
                    self._count_drop("unknown_destination")
                    continue
            else:
                drop_reason = self._drop_reason(
                    src, dst, sender, dst_region, uniform, degrade_rng
                )
                if drop_reason is not None:
                    self._count_drop(drop_reason)
                    continue
            base = latency_table[(src_region, dst_region)]
            if degraded:
                entry = degraded.get(frozenset((src, dst)))
                if entry is not None:
                    base *= entry[0]
            if jitter_fraction > 0.0:
                latency = base * (1.0 + uniform() * jitter_fraction)
            else:
                latency = base
            if latency < 0.0:
                # Degenerate topologies (negative configured latency) must
                # never schedule a delivery in the simulated past.
                latency = 0.0
            if export is not None and dst_region in self._remote_regions:
                # Region-sharded mode: the destination lives in another
                # worker. All accounting and RNG draws above already happened
                # (identical to a local send); the delivery key's seq comes
                # from the local counter exactly as the batched path would
                # allocate it, and the coordinator merges it into the
                # destination worker at the next window barrier.
                export(src_region, dst_region, now + latency,
                       self._alloc_seq(), kind, payload, src, dst,
                       wire_size, now)
                continue
            if len(heap) + self._direct_outstanding < self._direct_post_max:
                # Low in-flight density: one fire-and-forget queue entry per
                # message (see DIRECT_POST_MAX). The key comes from the same
                # counter as the batched path's, so the drain order is
                # unchanged.
                self._direct_outstanding += 1
                self.sim.post(
                    latency, self._deliver,
                    Message(kind, payload, src, dst, wire_size, now),
                )
                continue
            # Batched path: allocate the delivery key now (send order == seq
            # order, exactly as sim.post would) and park the message in the
            # in-flight heap; only the batch sentinel lives in the main queue.
            delivery_time = now + latency
            seq = self._alloc_seq()
            arena = self._arena
            if arena is not None:
                record: object = arena.alloc(kind, payload, src, dst, wire_size, now)
            else:
                record = Message(kind, payload, src, dst, wire_size, now)
            heappush(heap, (delivery_time, seq, record))
            if not batch.scheduled or (delivery_time, seq) < batch.target:
                self._retarget_deliveries(batch)

    def _drop_reason(
        self,
        src: str,
        dst: str,
        sender: Endpoint,
        dst_region: Optional[str],
        uniform: Callable[[], float],
        degrade_rng,
    ) -> Optional[str]:
        """Send-time drop decision; RNG draws happen here and only here.

        The loss/degrade streams are passed in by the caller — the shared
        ``network`` streams normally, the sender-region streams under
        ``region_rng`` — so this body stays byte-identical in both modes.

        Every container check is guarded by a truthiness test so the
        fault-free hot path never builds a frozenset per message, and the
        region-partition check routes through the resolved ``dst_region``
        (which falls back to the last known region), so traffic toward a
        recently dead endpoint across a partition counts as ``partitioned``
        rather than surviving until the ``dead_endpoint`` check.
        """
        if self._blocked and frozenset((src, dst)) in self._blocked:
            return "blocked"
        if self._blocked_directed and (src, dst) in self._blocked_directed:
            return "blocked_directed"
        if dst_region is None:
            # Never-registered destination: there is no region to route
            # toward, so drop at send time instead of inventing a latency.
            return "unknown_destination"
        if (
            self._blocked_regions
            and frozenset((sender.region, dst_region)) in self._blocked_regions
        ):
            return "partitioned"
        if self._degraded:
            entry = self._degraded.get(frozenset((src, dst)))
            if (
                entry is not None
                and entry[1] > 0.0
                and degrade_rng.random() < entry[1]
            ):
                return "degraded"
        if self.loss_rate > 0 and uniform() < self.loss_rate:
            return "loss"
        return None

    # ------------------------------------------------------- region sharding
    def enable_region_sharding(
        self,
        local_regions: Sequence[str],
        remote_regions: Sequence[str],
        address_regions: Dict[str, str],
        exporter: Callable[..., None],
    ) -> None:
        """Turn this network into one shard of a region-partitioned run.

        ``local_regions`` are the regions whose endpoints live (and register)
        in this process; any send toward a region in ``remote_regions`` is
        handed to ``exporter(src_region, dst_region, arrival_time, seq, kind,
        payload, src, dst, wire_size, sent_at)`` after all local accounting
        and RNG draws, instead of being scheduled locally. ``address_regions``
        maps *every* address in the whole simulation to its region, so
        destination regions resolve without the remote endpoints ever
        registering here.

        Requires ``region_rng=True``: with the single shared ``network``
        stream, which draw a send gets depends on the global cross-region
        interleaving of sends, which no longer exists once regions run in
        separate processes.
        """
        if not self.region_rng:
            raise NetworkError(
                "region sharding requires Network(region_rng=True) — the "
                "shared 'network' RNG stream is not decomposable by region"
            )
        local = frozenset(local_regions)
        remote = frozenset(remote_regions)
        overlap = local & remote
        if overlap:
            raise NetworkError(
                f"regions {sorted(overlap)} listed as both local and remote"
            )
        known = {r.name for r in self.topology.regions}
        unknown = (local | remote) - known
        if unknown:
            raise NetworkError(
                f"unknown regions in sharding config: {sorted(unknown)}"
            )
        self._remote_regions = remote
        self._export = exporter
        # Pre-populate the address -> region map: remote destinations are
        # routable (latency model + partition checks) without registration.
        for address, region in address_regions.items():
            self._last_region.setdefault(address, region)

    def inject_remote(
        self,
        arrival: float,
        kind: str,
        payload: object,
        src: str,
        dst: str,
        size: int,
        sent_at: float,
    ) -> None:
        """Schedule a delivery exported by another region's worker.

        Called by the parallel coordinator's barrier merge, in the
        deterministic ``(arrival, src-region index, sender seq)`` order — the
        local delivery seq is allocated here, by insertion order, so the
        destination worker's event order is a pure function of the merged
        stream. The in-flight fault re-check still runs at delivery time via
        :meth:`_deliver`, so a partition injected in this window drops a
        message sent before it, exactly as in the serial run.
        """
        sim = self.sim
        if arrival < sim.now:
            raise NetworkError(
                f"remote injection at t={arrival:.6f} behind local clock "
                f"t={sim.now:.6f} — lookahead (window width) violated"
            )
        self._direct_outstanding += 1
        self._queue.push(
            arrival, self._deliver,
            (Message(kind, payload, src, dst, size, sent_at),),
        )

    # ------------------------------------------------------ batched delivery
    def _retarget_deliveries(self, batch: _DeliveryBatch) -> None:
        """Aim the batch sentinel at the head message's exact ``(time, seq)``.

        Mirrors the timer wheel's sentinel recycling: a sentinel that is
        already queued at a now-stale key is tombstoned (the old object stays
        behind in the queue) and a fresh event takes its place; a sentinel
        that just fired is reused in place, costing no allocation.
        """
        heap = batch.heap
        queue = self._queue
        if not heap:
            if batch.scheduled:
                batch.event.cancelled = True
                queue.note_cancelled()
                batch.event = None
                batch.scheduled = False
            batch.target = None
            return
        time, seq = heap[0][0], heap[0][1]
        key = (time, seq)
        if batch.scheduled:
            if batch.target == key:
                return
            batch.event.cancelled = True
            queue.note_cancelled()
            batch.event = None
        event = batch.event
        if event is None:
            event = Event(time, seq, self._fire_deliveries, (batch,))
            batch.event = event
        else:
            event.time = time
            event.seq = seq
        queue.push_entry(event)
        batch.scheduled = True
        batch.target = key

    def _fire_deliveries(self, batch: _DeliveryBatch) -> None:
        """Sentinel callback: flush every consecutively-due delivery.

        The sentinel fired at the head message's exact key, so the first
        delivery is "paid for" by the event the loop just popped. After each
        delivery the batch keeps draining as long as its next message's key
        still beats the main queue's head and stays within the caller's
        ``run_until`` bound — each extra delivery advances the clock and the
        event count itself, exactly as if it had been queued individually.
        The queue head is peeked once and then only re-peeked after an
        iteration that actually pushed an event (tracked by the queue's
        ``pushes`` counter): handler-scheduled events always carry a fresh
        sequence number, so a stale cached key can only ever end the drain
        early (the sentinel re-aims and the flush resumes), never late.

        The delivery body inlines :meth:`_deliver` (the direct route) — the
        two must stay in lockstep; the seeded equivalence tests in
        ``tests/test_sim_network_batching.py`` enforce it. The only
        intentional difference: the delivered-messages counter is batched
        per flush instead of incremented per message (nothing in the stack
        reads it mid-flush).
        """
        sim = self.sim
        heap = batch.heap
        queue = self._queue
        endpoints_get = self._endpoints.get
        meter = self.meter
        meters_get = self._meters.get
        taps = self._delivery_taps
        arena = self._arena
        flyweight = self._flyweight
        # Mark the batch as draining so a handler sending into it mid-flush
        # never schedules a second sentinel (_DRAINING beats every real key).
        batch.scheduled = True
        batch.target = _DRAINING
        next_key = queue.peek_key()
        pushes = queue.pushes
        delivered = 0
        first = True
        while True:
            time, _seq, record = heappop(heap)
            if arena is not None:
                # ``record`` is an int slot: refill the flyweight. Handlers
                # and taps see a normal Message for the duration of the call.
                message = arena.load(record, flyweight)
            else:
                message = record
            if first:
                first = False
            else:
                sim._now = time
                sim._events_processed += 1
            receiver = endpoints_get(message.dst)
            if receiver is None:
                # Endpoint died while the message was in flight.
                self._count_drop("dead_endpoint")
            elif (
                (self._blocked or self._blocked_directed or self._blocked_regions)
                and (reason := self._in_flight_drop_reason(message, receiver))
                is not None
            ):
                self._count_drop(reason)
            else:
                m = meters_get(message.dst)
                if m is None:
                    m = meter(message.dst)
                m.on_receive(time, message.size)
                delivered += 1
                if taps:
                    for tap in taps:
                        tap(message)
                receiver.handle_message(message)
            if arena is not None:
                # Release after the handler ran: any sends the handler made
                # have already taken their slots, so the LIFO free order is
                # still a pure function of event order.
                arena.release(record)
            if not heap:
                break
            head = heap[0]
            if head[0] > sim._run_bound:
                break
            if queue.pushes != pushes:
                next_key = queue.peek_key()
                pushes = queue.pushes
            if next_key is not None and next_key < (head[0], head[1]):
                break
        if delivered:
            self._messages_delivered.value += delivered
        batch.scheduled = False
        batch.target = None
        self._retarget_deliveries(batch)

    def _count_drop(self, reason: str) -> None:
        dropped = self._messages_dropped
        if dropped is None:
            dropped = self.metrics.counter("messages_dropped")
            self._messages_dropped = dropped
        dropped.inc()
        counter = self._drop_reason_counters.get(reason)
        if counter is None:
            counter = self.metrics.counter(f"messages_dropped.{reason}")
            self._drop_reason_counters[reason] = counter
        counter.inc()

    def _in_flight_drop_reason(
        self, message: Message, receiver: Endpoint
    ) -> Optional[str]:
        """Delivery-time fault re-check: blocks/partitions injected while the
        message was in flight still stop it.

        Only consulted when at least one block or partition exists (callers
        guard on set truthiness), so fault-free runs pay nothing and keep
        their determinism checksum. The sender's region comes from
        ``_last_region`` — the sender may itself have died mid-flight.
        """
        src = message.src
        dst = message.dst
        if self._blocked and frozenset((src, dst)) in self._blocked:
            return "blocked_in_flight"
        if self._blocked_directed and (src, dst) in self._blocked_directed:
            return "blocked_in_flight"
        if self._blocked_regions:
            src_region = self._last_region.get(src)
            if (
                src_region is not None
                and frozenset((src_region, receiver.region)) in self._blocked_regions
            ):
                return "partitioned_in_flight"
        return None

    def _deliver(self, message: Message) -> None:
        """Deliver one message now (direct route; the batched flush in
        :meth:`_fire_deliveries` inlines this body — keep them in lockstep)."""
        self._direct_outstanding -= 1
        receiver = self._endpoints.get(message.dst)
        if receiver is None:
            # Endpoint died while the message was in flight.
            self._count_drop("dead_endpoint")
            return
        if self._blocked or self._blocked_directed or self._blocked_regions:
            reason = self._in_flight_drop_reason(message, receiver)
            if reason is not None:
                self._count_drop(reason)
                return
        self.meter(message.dst).on_receive(self.sim.now, message.size)
        self._messages_delivered.inc()
        for tap in self._delivery_taps:
            tap(message)
        receiver.handle_message(message)
