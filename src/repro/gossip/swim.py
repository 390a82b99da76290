"""SWIM membership agent.

Implements the protocol from "SWIM: Scalable Weakly-consistent Infection-style
Process Group Membership Protocol" (Das et al., DSN 2002) as deployed by
HashiCorp memberlist/Serf, which the paper uses as its p2p fabric:

* round-robin randomised probing with direct ping, indirect ping-req relays,
  and a suspicion period before declaring a member dead;
* incarnation numbers with self-refutation of suspicion;
* piggyback dissemination of membership updates over probe and gossip
  messages with bounded retransmissions;
* push-pull anti-entropy state sync on join and periodically thereafter.

One deliberate fidelity-preserving optimisation: like memberlist, the
dedicated gossip tick only *sends* when there are pending broadcasts, so an
idle group's background traffic is the probe traffic — which is what Fig. 8b
of the paper measures as "normal operation" (<2 KB/s even for 400-member
groups).

Membership bookkeeping lives in the vectorized
:class:`~repro.gossip.membership.MembershipTable`. The agent only touches it
through a small selection API (``gossip_targets`` / ``sync_peer`` /
``relay_sample`` / ``peek`` / snapshots), which a dict-of-records oracle in
``tests/oracles.py`` also implements; seeded v1 runs are bit-identical under
either. Probe scheduling can be handed to a shared
:class:`~repro.gossip.probe.RegionProbeBatcher` via ``probe_batcher=``, which
coalesces a whole region's probe round into one recycled sentinel event
without perturbing event order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.loop import Simulator
from repro.sim.network import Message, Network, SizedPayload
from repro.sim.process import Process
from repro.gossip.broadcast import BroadcastQueue
from repro.gossip.member import (
    RANK_BY_VALUE,
    STATE_BY_VALUE,
    Member,
    MemberState,
)
from repro.gossip.membership import MembershipTable, NodeDirectory
from repro.gossip.probe import RegionProbeBatcher

PING = "swim.ping"
ACK = "swim.ack"
PING_REQ = "swim.ping-req"
GOSSIP = "swim.gossip"
SYNC_REQ = "swim.sync-req"
SYNC_RESP = "swim.sync-resp"


@dataclass
class SwimConfig:
    """Protocol timing knobs.

    ``gossip_interval`` and ``gossip_fanout`` default to the paper's node
    agent settings (§VIII-B): 100 ms and 4.
    """

    probe_interval: float = 1.0
    probe_timeout: float = 0.3
    indirect_probes: int = 3
    suspicion_mult: float = 4.0
    gossip_interval: float = 0.1
    gossip_fanout: int = 4
    piggyback_max: int = 8
    retransmit_mult: int = 4
    sync_interval: float = 30.0
    dead_reclaim_time: float = 60.0

    def suspicion_timeout(self, group_size: int) -> float:
        """memberlist-style suspicion window, scales with log of group size."""
        scale = math.log10(max(group_size, 1) + 1)
        return self.suspicion_mult * scale * self.probe_interval


def _shuffle_exact(x: List[str], getrandbits) -> None:
    """``random.shuffle`` inlined against raw ``getrandbits``.

    Draws the exact same bit sequence as ``random.shuffle`` (Fisher-Yates with
    rejection-sampled ``_randbelow``), so seeded runs are bit-identical, but
    skips the per-draw Python ``_randbelow`` call — ~1.85x faster on the large
    probe-order lists this module shuffles. (Bulk-pulling the underlying MT
    words via ``getrandbits(32 * j)`` was measured 2x *slower*: the cost is
    the per-element Python loop, not the ``getrandbits`` C calls.)
    """
    i = len(x) - 1
    if i < 1:
        return
    m = i + 1
    k = m.bit_length()
    threshold = 1 << (k - 1)
    while i > 0:
        if m < threshold:
            k -= 1
            threshold >>= 1
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        x[i], x[r] = x[r], x[i]
        i -= 1
        m -= 1


@dataclass
class _PendingProbe:
    seq: int
    target: str  # member name
    indirect_sent: bool = False
    done: bool = False


@dataclass
class _RelayedPing:
    origin_addr: str
    origin_seq: int


class SwimAgent(Process):
    """One SWIM group member.

    Subclassed by :class:`~repro.gossip.agent.SerfAgent`, which adds
    Serf-style user events and queries on the same gossip channel.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        address: str,
        region: str,
        config: Optional[SwimConfig] = None,
        *,
        directory: Optional[NodeDirectory] = None,
        probe_batcher: Optional[RegionProbeBatcher] = None,
    ) -> None:
        super().__init__(sim, network, address, region)
        self.name = name
        self.config = config or SwimConfig()
        self.members = MembershipTable(name, directory)
        self.incarnation = 0
        self.broadcasts = BroadcastQueue(self.config.retransmit_mult)
        self.on_member_alive: List[Callable[[Member], None]] = []
        self.on_member_dead: List[Callable[[Member], None]] = []
        self._rng = sim.derive_rng(f"swim/{address}")
        # v2 profile: probe-order reshuffles come from a per-agent numpy
        # Generator (one vectorized permutation instead of an O(n) Python
        # Fisher-Yates); every other draw stays on ``_rng`` in both profiles.
        if getattr(sim, "profile", "v1") == "v2":
            self._np_rng = sim.derive_np_rng(f"swim/{address}")
        else:
            self._np_rng = None
        self._seq = 0
        self._pending_probes: Dict[int, _PendingProbe] = {}
        self._relayed: Dict[int, _RelayedPing] = {}
        # v1 probe order: a shuffled name list. v2: a numpy slot array (no
        # GC-tracked name list); names resolve lazily per probe target.
        self._probe_order: List[str] = []
        self._probe_order_slots = None
        self._probe_index = 0
        self._gossip_scheduled = False
        self._probe_batcher = probe_batcher
        self._self_wire_cache: Optional[Dict[str, object]] = None
        self._self_wire_size = 48 + len(name) + len(address) + len(region)
        self.members.upsert(self._self_member())

        self.on(PING, self._on_ping)
        self.on(ACK, self._on_ack)
        self.on(PING_REQ, self._on_ping_req)
        self.on(GOSSIP, self._on_gossip)
        self.on(SYNC_REQ, self._on_sync_req)
        self.on(SYNC_RESP, self._on_sync_resp)

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        batcher = self._probe_batcher
        if batcher is not None and batcher.interval != self.config.probe_interval:
            raise ValueError(
                f"probe batcher interval {batcher.interval} != "
                f"probe_interval {self.config.probe_interval}"
            )
        if batcher is not None:
            # Same RNG stream derivation as Process.every would use for this
            # timer slot, so batched and per-agent probe scheduling draw
            # identical jitter sequences.
            rng = self.sim.derive_rng(f"{self.address}/timer/{len(self._timers)}")
            handle = batcher.register(
                self.region,
                self._probe_tick,
                jitter=self.config.probe_interval * 0.1,
                rng=rng,
            )
            self._timers.append(handle)
        else:
            self.every(
                self.config.probe_interval,
                self._probe_tick,
                jitter=self.config.probe_interval * 0.1,
            )
        self.every(
            self.config.sync_interval,
            self._sync_tick,
            jitter=self.config.sync_interval * 0.2,
        )
        # A node that starts with a pre-seeded view (the converged steady
        # state every sweep begins from) materializes its membership caches
        # now, not lazily on the first in-run tick.
        self.members.prewarm()
        np_rng = self._np_rng
        if np_rng is not None:
            # v2: draw the first probe-order permutation now as well — it is
            # the single largest per-agent draw (O(population)) and would
            # otherwise land inside the measured region on the first probe
            # tick. It goes through the same method the first wrap would
            # use, so the generator consumption is unchanged.
            order = self.members.permuted_alive_slots(np_rng, exclude_self=True)
            if len(order):
                self._probe_order_slots = order
                self._probe_index = 0

    def join(self, entry_points: List[str]) -> None:
        """Join via push-pull sync with the given entry addresses."""
        self._broadcast_member(self._self_member())
        for entry in entry_points:
            if entry != self.address:
                self.send(
                    entry,
                    SYNC_REQ,
                    {"state": self.members.snapshot_wire()},
                    size=10 + self.members.snapshot_size(),
                )

    def leave(self) -> None:
        """Gracefully announce departure, flush gossip, then stop."""
        me = self._self_member()
        me.state = MemberState.LEFT
        self.members.upsert(me)
        self._broadcast_member(me)
        # Give the leave broadcast a few gossip rounds to flush, then crash.
        self.after(self.config.gossip_interval * 5, self.stop)

    # -------------------------------------------------------------- self info
    def _self_member(self) -> Member:
        return Member(
            self.name,
            self.address,
            self.region,
            incarnation=self.incarnation,
            state=MemberState.ALIVE,
            state_time=self.sim.now,
        )

    def _self_wire(self) -> Dict[str, object]:
        """``_self_member().to_wire()``, cached per incarnation.

        Probe traffic always advertises *alive* (a probing node is alive by
        definition), so the dict only changes on refutation. Receivers never
        mutate payloads, making the shared dict safe to put on the wire.
        """
        wire = self._self_wire_cache
        if wire is None or wire["i"] != self.incarnation:
            wire = {
                "n": self.name,
                "a": self.address,
                "r": self.region,
                "i": self.incarnation,
                "s": MemberState.ALIVE.value,
            }
            self._self_wire_cache = wire
        return wire

    def alive_members(self, *, exclude_self: bool = False) -> List[Member]:
        return self.members.alive(exclude_self=exclude_self)

    def group_size(self) -> int:
        return self.members.alive_count

    # ------------------------------------------------------------- broadcast
    def _broadcast_member(self, member: Member) -> None:
        payload = {"t": "m", **member.to_wire()}
        self.broadcasts.enqueue(
            ("member", member.name),
            payload,
            self.group_size(),
            size=member.wire_size() + 8,
        )
        self._ensure_gossip_scheduled()

    def broadcast_payload(self, key_kind: str, key_id: str, payload: Dict[str, object]) -> None:
        """Queue an arbitrary payload for epidemic dissemination (used by Serf)."""
        self.broadcasts.enqueue((key_kind, key_id), payload, self.group_size())
        self._ensure_gossip_scheduled()

    def _ensure_gossip_scheduled(self) -> None:
        if self._gossip_scheduled or not self.running:
            return
        self._gossip_scheduled = True
        self.post(self.config.gossip_interval, self._gossip_tick)

    def _gossip_tick(self) -> None:
        self._gossip_scheduled = False
        if self.broadcasts.empty:
            return
        if self._np_rng is not None:
            # v2: batched Generator.integers rejection sampling instead of
            # one Mersenne draw per candidate through rng.sample.
            targets = self.members.gossip_targets_v2(
                self._np_rng, self.config.gossip_fanout
            )
        else:
            targets = self.members.gossip_targets(
                self._rng, self.config.gossip_fanout
            )
        if targets:
            # One take() per tick: every selected peer receives the same
            # payload batch, matching memberlist's gossip behaviour. Sizing
            # happens once for the batch, not once per recipient.
            updates, size = self.broadcasts.take_with_size(self.config.piggyback_max)
            if updates:
                packet = SizedPayload({"u": updates}, size + 8)
                self.send_fanout(targets, GOSSIP, packet)
        if not self.broadcasts.empty:
            self._ensure_gossip_scheduled()

    def _piggyback(self, count: int = 3):
        """Updates to attach to a probe message, with their summed size."""
        return self.broadcasts.take_with_size(count)

    # ---------------------------------------------------------------- probing
    def _probe_tick(self) -> None:
        if self.paused:
            # Region-batched probe firings bypass Process.every's pause
            # guard; a frozen agent must not record probes it never sent.
            return
        target_name = self._next_probe_target()
        if target_name is None:
            return
        target = self.members.get(target_name)
        if target is None or target.state != MemberState.ALIVE:
            return
        self._seq += 1
        seq = self._seq
        self._pending_probes[seq] = _PendingProbe(seq=seq, target=target_name)
        updates, usize = self._piggyback()
        self.send(
            target.address,
            PING,
            {"seq": seq, "from": self._self_wire(), "u": updates},
            size=24 + self._self_wire_size + usize,
        )
        self.post(self.config.probe_timeout, self._direct_probe_timeout, seq)
        self.post(self.config.probe_timeout * 3, self._final_probe_timeout, seq)

    def _next_probe_target(self) -> Optional[str]:
        np_rng = self._np_rng
        if np_rng is not None:
            return self._next_probe_target_slots(np_rng)
        # The alive view is only materialized on wrap — a probe tick that is
        # mid-round walks the existing shuffled order without touching it.
        if self._probe_index >= len(self._probe_order):
            # alive_names returns a fresh list, so we can shuffle it in
            # place without copying.
            alive = self.members.alive_names(exclude_self=True)
            if not alive:
                return None
            self._probe_order = alive
            _shuffle_exact(self._probe_order, self._rng.getrandbits)
            self._probe_index = 0
        alive_value = MemberState.ALIVE.value
        while self._probe_index < len(self._probe_order):
            name = self._probe_order[self._probe_index]
            self._probe_index += 1
            peeked = self.members.peek(name)
            if peeked is not None and peeked[1] == alive_value:
                return name
        return self._next_probe_target()

    def _next_probe_target_slots(self, np_rng) -> Optional[str]:
        """v2 probe-order walk: one vectorized ``permutation`` per wrap
        replaces v1's per-element shuffle loop (the dominant cost of a wrap
        at thousands of members). The order lives in an untracked numpy
        slot buffer, names materialize one target at a time, and the walk
        skips members no longer alive — see
        ``MembershipTable.permuted_alive_slots``.
        """
        members = self.members
        order = self._probe_order_slots
        if order is None or self._probe_index >= len(order):
            order = members.permuted_alive_slots(np_rng, exclude_self=True)
            if not len(order):
                return None
            self._probe_order_slots = order
            self._probe_index = 0
        self._probe_index, name = members.next_alive_in_order(
            order, self._probe_index
        )
        if name is not None:
            return name
        return self._next_probe_target_slots(np_rng)

    def _direct_probe_timeout(self, seq: int) -> None:
        probe = self._pending_probes.get(seq)
        if probe is None or probe.done or probe.indirect_sent:
            return
        probe.indirect_sent = True
        target = self.members.get(probe.target)
        if target is None:
            return
        relays = self.members.relay_sample(
            self._rng, self.config.indirect_probes, probe.target
        )
        if not relays:
            return
        target_wire = target.to_wire()
        me_wire = self._self_wire()
        wire_size = 24 + target.wire_size() + self._self_wire_size
        for relay_address in relays:
            self.send(
                relay_address,
                PING_REQ,
                {"seq": seq, "target": target_wire, "from": me_wire},
                size=wire_size,
            )

    def _final_probe_timeout(self, seq: int) -> None:
        probe = self._pending_probes.pop(seq, None)
        if probe is None or probe.done:
            return
        member = self.members.get(probe.target)
        if member is not None and member.state == MemberState.ALIVE:
            self._suspect(member)

    def _on_ping(self, message: Message) -> None:
        payload = message.payload
        self._apply_updates(payload.get("u", ()))
        self._apply_updates([payload["from"]])
        updates, usize = self._piggyback()
        self.send(
            message.src,
            ACK,
            {"seq": payload["seq"], "from": self._self_wire(), "u": updates},
            size=24 + self._self_wire_size + usize,
        )

    def _on_ack(self, message: Message) -> None:
        payload = message.payload
        self._apply_updates(payload.get("u", ()))
        self._apply_updates([payload["from"]])
        seq = payload["seq"]
        relay = self._relayed.pop(seq, None)
        if relay is not None:
            # We pinged on someone's behalf; forward the good news.
            self.send(
                relay.origin_addr,
                ACK,
                {"seq": relay.origin_seq, "from": payload["from"], "u": []},
                size=90,
            )
            return
        probe = self._pending_probes.pop(seq, None)
        if probe is not None:
            probe.done = True

    def _on_ping_req(self, message: Message) -> None:
        payload = message.payload
        self._apply_updates([payload["from"]])
        target = Member.from_wire(payload["target"], self.sim.now)
        self._seq += 1
        relay_seq = self._seq
        self._relayed[relay_seq] = _RelayedPing(message.src, payload["seq"])
        updates, usize = self._piggyback()
        self.send(
            target.address,
            PING,
            {"seq": relay_seq, "from": self._self_wire(), "u": updates},
            size=24 + self._self_wire_size + usize,
        )
        # Forget the relay if no ack arrives in time.
        self.post(self.config.probe_timeout * 2, self._relayed.pop, relay_seq, None)

    # -------------------------------------------------------------- suspicion
    def _suspect(self, member: Member) -> None:
        suspect = Member(
            member.name,
            member.address,
            member.region,
            incarnation=member.incarnation,
            state=MemberState.SUSPECT,
            state_time=self.sim.now,
        )
        if self.members.apply(suspect):
            self._broadcast_member(suspect)
            self._schedule_suspicion_timeout(suspect)

    def _schedule_suspicion_timeout(self, member: Member) -> None:
        deadline = self.sim.now + self.config.suspicion_timeout(self.group_size())
        self.members.set_suspicion_deadline(member.name, deadline)
        self.post(
            deadline - self.sim.now,
            self._suspicion_expired,
            member.name,
            member.incarnation,
        )

    def _suspicion_expired(self, name: str, incarnation: int) -> None:
        member = self.members.get(name)
        if (
            member is None
            or member.state != MemberState.SUSPECT
            or member.incarnation != incarnation
        ):
            return
        dead = Member(
            member.name,
            member.address,
            member.region,
            incarnation=member.incarnation,
            state=MemberState.DEAD,
            state_time=self.sim.now,
        )
        if self.members.apply(dead):
            self._broadcast_member(dead)
            self._notify_dead(dead)

    # ---------------------------------------------------------------- updates
    def _apply_updates(self, updates) -> None:
        for wire in updates:
            if wire.get("t", "m") != "m":
                self.handle_custom_update(wire)
                continue
            name = wire["n"]
            previous = self.members.peek(name)
            if previous is None and wire["s"] in (
                MemberState.DEAD.value,
                MemberState.LEFT.value,
            ):
                # A death notice for a node we never knew is pure garbage;
                # applying it would resurrect reclaimed tombstones forever
                # via anti-entropy merges.
                continue
            if previous is not None and name != self.name:
                # Fast path: drop stale updates without building objects.
                # Most gossip traffic is re-delivery of already-known state.
                inc = wire["i"]
                if inc < previous[0]:
                    continue
                if inc == previous[0] and (
                    RANK_BY_VALUE[wire["s"]] <= RANK_BY_VALUE[previous[1]]
                ):
                    continue
            update = Member.from_wire(wire, self.sim.now)
            if update.name == self.name:
                self._handle_update_about_self(update)
                continue
            previous_state = STATE_BY_VALUE[previous[1]] if previous is not None else None
            if self.members.apply(update):
                # Re-broadcast: epidemic dissemination requires forwarding
                # any update that changed our view.
                self._broadcast_member(update)
                if update.state == MemberState.SUSPECT:
                    self._schedule_suspicion_timeout(update)
                if update.state == MemberState.ALIVE and previous_state != MemberState.ALIVE:
                    self._notify_alive(update)
                if (
                    update.state in (MemberState.DEAD, MemberState.LEFT)
                    and previous_state not in (MemberState.DEAD, MemberState.LEFT)
                ):
                    self._notify_dead(update)

    def handle_custom_update(self, wire: Dict[str, object]) -> None:
        """Hook for subclasses (Serf user events); default ignores."""

    def _handle_update_about_self(self, update: Member) -> None:
        if update.state == MemberState.ALIVE:
            return
        if update.incarnation >= self.incarnation:
            # Refute: I am alive. Bump incarnation past the accusation.
            self.incarnation = update.incarnation + 1
            me = self._self_member()
            self.members.upsert(me)
            self._broadcast_member(me)

    def _notify_alive(self, member: Member) -> None:
        for callback in self.on_member_alive:
            callback(member)

    def _notify_dead(self, member: Member) -> None:
        for callback in self.on_member_dead:
            callback(member)

    # -------------------------------------------------------------- anti-entropy
    def _sync_tick(self) -> None:
        self._reclaim_dead()
        peer_address = self.members.sync_peer(self._rng)
        if peer_address is None:
            return
        self.send(
            peer_address,
            SYNC_REQ,
            {"state": self.members.snapshot_wire()},
            size=10 + self.members.snapshot_size(),
        )

    def _reclaim_dead(self) -> None:
        self.members.expire_dead(self.sim.now - self.config.dead_reclaim_time)

    def _on_sync_req(self, message: Message) -> None:
        self.send(
            message.src,
            SYNC_RESP,
            {"state": self.members.snapshot_wire()},
            size=10 + self.members.snapshot_size(),
        )
        self._merge_state(message.payload["state"])

    def _on_sync_resp(self, message: Message) -> None:
        self._merge_state(message.payload["state"])

    def _merge_state(self, state) -> None:
        # Anti-entropy snapshots are mostly re-delivery of known state; the
        # table drops the stale bulk in one vectorized pass before the loop.
        self._apply_updates(self.members.filter_superseding(state))

    def _on_gossip(self, message: Message) -> None:
        self._apply_updates(message.payload.get("u", ()))
