"""Vectorized SWIM membership bookkeeping.

:class:`MembershipTable` is an agent's local view of its group. It keeps the
per-member protocol state — alive/suspect/faulty status, incarnation numbers, suspicion
deadlines — in numpy arrays keyed by a **stable node index** instead of a
dict of :class:`~repro.gossip.member.Member` objects. Status filtering,
suspicion expiry, dead-member reclamation and stale-update rejection become
array operations; the selection views the protocol hot paths hit every tick
(alive peers, probe-target names, gossip/sync addresses, anti-entropy
snapshots) are cached and invalidated only when membership actually changes,
so a converged group pays O(1) per tick where the dict walk paid O(n).

Node identity is interned once in a :class:`NodeDirectory` — the stable
index allocator. Every agent of one gossip group in one simulation shares
one directory (:func:`group_directory`), which shares the name/address/
region strings, the per-node wire sizes and the piggyback wire dicts across
all views of the same node; a table constructed without a directory makes a
private one. Because a shared directory grows with the whole group, a slot
may lie past the capacity of a table that has not seen that node yet: every
read treats such a slot as unknown.

A converged view is seeded in one numpy pass (:meth:`MembershipTable.seed_alive`)
rather than one ``upsert`` per member.

Semantics are pinned to a dict-of-records oracle (``MemberList`` in
``tests/oracles.py``) two ways: Hypothesis property tests drive both through
random join/suspect/refute/fault sequences, and a seeded full-protocol SWIM
run must be bit-identical — same event order, same RNG draws, same metrics —
under either (both in ``tests/test_gossip_membership.py``).
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.gossip.member import (
    GossipDrawBlock,
    Member,
    MemberState,
    supersedes,
)

#: Dense state codes used in the numpy arrays.
CODE_ALIVE, CODE_SUSPECT, CODE_DEAD, CODE_LEFT = 0, 1, 2, 3

CODE_BY_VALUE = {"alive": 0, "suspect": 1, "dead": 2, "left": 3}
VALUE_BY_CODE = ("alive", "suspect", "dead", "left")
STATE_BY_CODE = (
    MemberState.ALIVE,
    MemberState.SUSPECT,
    MemberState.DEAD,
    MemberState.LEFT,
)
#: Update-ordering ranks per code; dead and left tie (see member.py).
_RANK_BY_CODE = np.array([0, 1, 2, 2], dtype=np.int8)
#: Keyed by enum member identity: Enum.value is a descriptor hop, this isn't.
CODE_BY_STATE = {state: CODE_BY_VALUE[state.value] for state in MemberState}

_NEVER = np.inf


class _SlotAddresses(SequenceABC):
    """Virtual sequence: addresses of the slots in an index array.

    Duck-types as a list of peer addresses for ``rng.sample`` /
    ``rng.choice`` without materializing a per-agent list — the RNG draw
    sequence depends only on ``len()``, which matches by construction, and
    ``sample``/``choice`` touch only the few selected indices.
    """

    __slots__ = ("_arr", "_addresses")

    def __init__(self, arr: np.ndarray, addresses: List[str]) -> None:
        self._arr = arr
        self._addresses = addresses

    def __len__(self) -> int:
        return len(self._arr)

    def __getitem__(self, index: int) -> str:
        return self._addresses[self._arr[index]]


class NodeDirectory:
    """Global node universe: one stable index (*slot*) per node name.

    The directory interns everything about a node that is identical across
    every agent's view of it — name, address, region, estimated wire size,
    and the piggyback wire dicts for each ``(incarnation, state)`` the node
    has been seen in — so a 6400-agent simulation stores each of these once
    instead of once per agent. FOCUS deployments keep one directory per
    Serf group (:func:`group_directory`): a node's gossip address is
    group-specific, so the group is the widest scope whose identities agree.
    """

    def __init__(self) -> None:
        self._slot_of: Dict[str, int] = {}
        self.names: List[str] = []
        self.addresses: List[str] = []
        self.regions: List[str] = []
        self.region_ids: List[int] = []
        self._region_id_of: Dict[str, int] = {}
        self.region_names: List[str] = []
        self._wire_sizes: List[int] = []
        #: Per-slot interned wire dicts keyed by (incarnation, state code).
        self._wires: List[Dict[Tuple[int, int], Dict[str, object]]] = []
        # Object-array mirrors of names/addresses for vectorized view
        # rebuilds (fancy-index + tolist beats a Python listcomp ~10x at
        # 6400 slots). Built lazily, dropped whenever identity changes.
        self._names_np: Optional[np.ndarray] = None
        self._addrs_np: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.names)

    def slot_of(self, name: str) -> Optional[int]:
        return self._slot_of.get(name)

    def region_id(self, region: str) -> int:
        rid = self._region_id_of.get(region)
        if rid is None:
            rid = len(self.region_names)
            self._region_id_of[region] = rid
            self.region_names.append(region)
        return rid

    def intern(self, name: str, address: str, region: str) -> int:
        """Return ``name``'s stable slot, allocating one on first sight."""
        slot = self._slot_of.get(name)
        if slot is None:
            slot = len(self.names)
            self._slot_of[name] = slot
            self.names.append(name)
            self.addresses.append(address)
            self.regions.append(region)
            self.region_ids.append(self.region_id(region))
            self._wire_sizes.append(48 + len(name) + len(address) + len(region))
            self._wires.append({})
            self._names_np = None
            self._addrs_np = None
            return slot
        if self.addresses[slot] != address or self.regions[slot] != region:
            # A node re-registered under a new address/region: refresh the
            # interned identity and drop the now-stale wire dicts.
            self.addresses[slot] = address
            self.regions[slot] = region
            self.region_ids[slot] = self.region_id(region)
            self._wire_sizes[slot] = 48 + len(name) + len(address) + len(region)
            self._wires[slot] = {}
            self._names_np = None
            self._addrs_np = None
        return slot

    def name_array(self) -> np.ndarray:
        """Object-array view of :attr:`names` (lazily mirrored)."""
        if self._names_np is None or len(self._names_np) != len(self.names):
            self._names_np = np.array(self.names, dtype=object)
        return self._names_np

    def address_array(self) -> np.ndarray:
        """Object-array view of :attr:`addresses` (lazily mirrored)."""
        if self._addrs_np is None or len(self._addrs_np) != len(self.addresses):
            self._addrs_np = np.array(self.addresses, dtype=object)
        return self._addrs_np

    def wire_size(self, slot: int) -> int:
        return self._wire_sizes[slot]

    def wire_for(self, slot: int, incarnation: int, code: int) -> Dict[str, object]:
        """Interned piggyback dict for one ``(node, incarnation, state)``.

        Shared across every agent gossiping about that node state, and —
        because a changed state allocates a *new* dict rather than mutating
        the old one — safe to reference from in-flight messages.
        """
        cache = self._wires[slot]
        wire = cache.get((incarnation, code))
        if wire is None:
            wire = {
                "n": self.names[slot],
                "a": self.addresses[slot],
                "r": self.regions[slot],
                "i": incarnation,
                "s": VALUE_BY_CODE[code],
            }
            cache[(incarnation, code)] = wire
        return wire


def group_directory(sim, group: str) -> NodeDirectory:
    """The one :class:`NodeDirectory` shared by every agent of ``group``
    simulated in ``sim``."""
    return sim.shared(("gossip.directory", group), NodeDirectory)


class MembershipTable:
    """One agent's membership view, vectorized.

    A dict-like record API (``get`` / ``apply`` / ``upsert`` / ``alive`` /
    snapshots / the selection helpers) with the record state held in numpy
    arrays indexed by the shared
    :class:`NodeDirectory` slot. :class:`Member` objects are materialized
    on demand as *views* — nothing retains them, so an N-agent full-mesh
    simulation holds N arrays instead of N^2 member objects.

    Ordering contract (load-bearing for seeded-run equivalence): every list
    this table returns — alive members, probe-target names, gossip/sync/relay
    addresses, snapshots — is in *insertion order*, exactly like iterating
    a dict of records (the ``MemberList`` oracle in ``tests/oracles.py``).
    Removal followed by re-insertion moves a node to the end, like a dict
    re-insert.
    """

    def __init__(
        self, self_name: str, directory: Optional[NodeDirectory] = None
    ) -> None:
        self.self_name = self_name
        self.directory = directory if directory is not None else NodeDirectory()
        capacity = max(64, len(self.directory))
        self._known = np.zeros(capacity, dtype=bool)
        self._state = np.zeros(capacity, dtype=np.int8)
        self._inc = np.zeros(capacity, dtype=np.int64)
        self._state_time = np.zeros(capacity, dtype=np.float64)
        self._deadline = np.full(capacity, _NEVER, dtype=np.float64)
        #: pos[slot] == index of the slot's live entry in _order, else -1.
        self._pos = np.full(capacity, -1, dtype=np.int64)
        # Insertion order as a C int64 buffer, not a Python list: a list of
        # N distinct ints per table is N heap objects plus N GC-tracked refs,
        # which at 6400 nodes is ~41M of each across the population — the
        # cyclic collector then rescans all of it on every gen2 pass. The
        # array is opaque to the GC and mirrors into numpy via one memcpy.
        self._order = array("q")
        self._order_arr: Optional[np.ndarray] = None  # numpy mirror of _order
        self._count = 0
        self._alive_count = 0
        self._self_slot = -1
        # Deadlines set for names with no live record yet; a name-keyed dict
        # would keep them, so they must survive until insertion.
        self._pending_deadline: Dict[str, float] = {}
        # Lazily rebuilt views; None means dirty. The base view is the
        # int64 array of alive slots; the name/address lists derive from it
        # independently so a path that never asks for one never builds it.
        self._alive_cache: Optional[np.ndarray] = None  # alive slots, in order
        self._alive_excl: Optional[np.ndarray] = None  # ... minus self
        self._snapshot: Optional[List[Dict[str, object]]] = None
        self._snapshot_size: Optional[int] = None
        self._gossip_draws = GossipDrawBlock()

    # ------------------------------------------------------------- invariants
    def _grow(self, slot: int) -> None:
        capacity = len(self._known)
        if slot < capacity:
            return
        new = max(capacity * 2, slot + 1)
        for attr, fill in (
            ("_known", False),
            ("_state", 0),
            ("_inc", 0),
            ("_state_time", 0.0),
            ("_deadline", _NEVER),
            ("_pos", -1),
        ):
            old = getattr(self, attr)
            grown = np.full(new, fill, dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, attr, grown)

    def _invalidate(self, *, alive_changed: bool) -> None:
        if self._snapshot is not None or self._snapshot_size is not None:
            self._snapshot = None
            self._snapshot_size = None
        if alive_changed and self._alive_cache is not None:
            self._alive_cache = None
            self._alive_excl = None

    def _order_np(self, order: "array") -> np.ndarray:
        """Numpy mirror of ``_order``; rebuilt only when the buffer grew.

        ``tobytes`` + ``frombuffer`` is one memcpy (vs. an O(n) Python-level
        ``fromiter`` loop). A zero-copy ``frombuffer(order)`` view would be
        cheaper still, but a live buffer export makes ``array.append`` raise
        ``BufferError``, so the mirror must own its bytes.
        """
        mirror = self._order_arr
        if mirror is None or len(mirror) != len(order):
            mirror = np.frombuffer(order.tobytes(), dtype=np.int64)
            self._order_arr = mirror
        return mirror

    def _live_arr(self) -> np.ndarray:
        """Known slots in insertion order (compacts ``_order`` when stale)."""
        order = self._order
        arr = self._order_np(order)
        if len(order) == self._count:
            return arr
        live = self._pos[arr] == np.arange(len(order))
        kept = arr[live]
        if len(order) > 2 * self._count + 64:
            compacted = array("q")
            compacted.frombytes(kept.tobytes())
            self._order = compacted
            self._order_arr = kept
            self._pos[kept] = np.arange(len(kept))
        return kept

    def _live_slots(self) -> Sequence[int]:
        """Iterable twin of :meth:`_live_arr` for the Member-view paths."""
        if len(self._order) == self._count:
            return self._order
        return self._live_arr().tolist()

    _VECTOR_MIN = 64

    def prewarm(self) -> None:
        """Materialize the lazy numpy views (order mirror, alive caches).

        Agents call this at start so the first in-run probe or gossip tick
        doesn't pay the one-time O(population) view construction inside a
        measured region. Pure caching — the run is byte-identical with or
        without it.
        """
        self._alive_excl_arr()

    def _alive_arr(self) -> np.ndarray:
        """Alive slots in insertion order (int64; the base cached view)."""
        if self._alive_cache is None:
            arr = self._live_arr()
            if len(arr):
                arr = arr[self._state[arr] == CODE_ALIVE]
            self._alive_cache = arr
        return self._alive_cache

    def _alive_excl_arr(self) -> np.ndarray:
        if self._alive_excl is None:
            arr = self._alive_arr()
            self._alive_excl = arr[arr != self._self_slot] if len(arr) else arr
        return self._alive_excl

    def _take_names(self, arr: np.ndarray) -> List[str]:
        if len(arr) >= self._VECTOR_MIN:
            return self.directory.name_array()[arr].tolist()
        names = self.directory.names
        return [names[s] for s in arr.tolist()]

    # ------------------------------------------------------------- dict-like
    def __contains__(self, name: str) -> bool:
        slot = self.directory.slot_of(name)
        return slot is not None and slot < len(self._known) and bool(self._known[slot])

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Member]:
        return iter([self._view(slot) for slot in self._live_slots()])

    def _view(self, slot: int) -> Member:
        directory = self.directory
        return Member(
            directory.names[slot],
            directory.addresses[slot],
            directory.regions[slot],
            incarnation=int(self._inc[slot]),
            state=STATE_BY_CODE[self._state[slot]],
            state_time=float(self._state_time[slot]),
        )

    def get(self, name: str) -> Optional[Member]:
        slot = self.directory.slot_of(name)
        if slot is None or slot >= len(self._known) or not self._known[slot]:
            return None
        return self._view(slot)

    def peek(self, name: str) -> Optional[Tuple[int, str]]:
        """O(1) ``(incarnation, state value)`` without building a Member."""
        slot = self.directory.slot_of(name)
        if slot is None or slot >= len(self._known) or not self._known[slot]:
            return None
        return int(self._inc[slot]), VALUE_BY_CODE[self._state[slot]]

    # ---------------------------------------------------------------- writes
    def _write(self, slot: int, code: int, inc: int, state_time: float) -> None:
        was_known = self._known[slot]
        was_alive = was_known and self._state[slot] == CODE_ALIVE
        is_alive = code == CODE_ALIVE
        if not was_known:
            self._known[slot] = True
            self._count += 1
            self._pos[slot] = len(self._order)
            self._order.append(slot)
        self._state[slot] = code
        self._inc[slot] = inc
        self._state_time[slot] = state_time
        if was_alive != is_alive:
            self._alive_count += 1 if is_alive else -1
        self._invalidate(alive_changed=(was_alive != is_alive) or not was_known)

    def upsert(self, member: Member) -> None:
        """Insert or unconditionally replace a member record."""
        slot = self.directory.intern(member.name, member.address, member.region)
        if slot >= len(self._known):
            self._grow(slot)
        if member.name == self.self_name:
            self._self_slot = slot
        self._write(
            slot,
            CODE_BY_STATE[member.state],
            member.incarnation,
            member.state_time,
        )
        self._absorb_pending_deadline(member.name, slot)

    def seed_alive(self, slots: Sequence[int], state_time: float) -> None:
        """Mark every slot in ``slots`` alive at incarnation 0, in one pass.

        Equivalent to ``upsert``-ing an alive ``Member`` per slot in order,
        skipping this table's own node: unknown slots are appended to the
        insertion order, known ones are overwritten in place. The caller
        interns the nodes in :attr:`directory` first and passes each slot
        once.
        """
        slots = np.asarray(slots, dtype=np.int64)
        self_slot = self.directory.slot_of(self.self_name)
        if self_slot is not None:
            slots = slots[slots != self_slot]
        if not len(slots):
            return
        self._grow(int(slots.max()))
        known = self._known[slots]
        was_alive = int((known & (self._state[slots] == CODE_ALIVE)).sum())
        self._state[slots] = CODE_ALIVE
        self._inc[slots] = 0
        self._state_time[slots] = state_time
        new = slots[~known]
        if len(new):
            self._known[new] = True
            self._pos[new] = np.arange(len(self._order), len(self._order) + len(new))
            self._order.frombytes(new.tobytes())
            self._count += len(new)
        self._alive_count += len(slots) - was_alive
        self._invalidate(alive_changed=True)
        if self._pending_deadline:
            names = self.directory.names
            for slot in slots.tolist():
                self._absorb_pending_deadline(names[slot], slot)

    def _absorb_pending_deadline(self, name: str, slot: int) -> None:
        if self._pending_deadline:
            deadline = self._pending_deadline.pop(name, None)
            if deadline is not None:
                self._deadline[slot] = deadline

    def remove(self, name: str) -> None:
        if self._pending_deadline:
            self._pending_deadline.pop(name, None)
        slot = self.directory.slot_of(name)
        if slot is None or slot >= len(self._known) or not self._known[slot]:
            return
        self._known[slot] = False
        self._pos[slot] = -1
        self._deadline[slot] = _NEVER
        self._count -= 1
        if self._state[slot] == CODE_ALIVE:
            self._alive_count -= 1
        self._invalidate(alive_changed=True)

    def apply(self, update: Member) -> bool:
        """Apply ``update`` if it supersedes the current record.

        Returns True if the view changed (the caller should re-broadcast).
        Ordering rules: :func:`~repro.gossip.member.supersedes`.
        """
        directory = self.directory
        slot = directory.slot_of(update.name)
        known = (
            slot is not None and slot < len(self._known) and self._known[slot]
        )
        if known and not supersedes(
            update.state,
            update.incarnation,
            STATE_BY_CODE[self._state[slot]],
            int(self._inc[slot]),
        ):
            # Stale: reject *before* interning, so a stale update carrying a
            # different address/region cannot refresh the shared identity.
            return False
        slot = directory.intern(update.name, update.address, update.region)
        if slot >= len(self._known):
            self._grow(slot)
        if update.name == self.self_name:
            self._self_slot = slot
        self._write(slot, CODE_BY_STATE[update.state], update.incarnation, update.state_time)
        self._absorb_pending_deadline(update.name, slot)
        return True

    # -------------------------------------------------------------- views
    @property
    def alive_count(self) -> int:
        """Number of alive members, maintained incrementally (O(1))."""
        return self._alive_count

    def alive(self, *, exclude_self: bool = False) -> List[Member]:
        arr = self._alive_excl_arr() if exclude_self else self._alive_arr()
        return [self._view(s) for s in arr.tolist()]

    def alive_names(self, *, exclude_self: bool = False) -> List[str]:
        # Always a fresh list the caller may own: holding materialized name
        # lists per agent is what the GC then has to scan every gen2 pass.
        arr = self._alive_excl_arr() if exclude_self else self._alive_arr()
        return self._take_names(arr)

    def permuted_alive_slots(
        self, np_rng, *, exclude_self: bool = False
    ) -> np.ndarray:
        """Alive slots in a random order drawn from a numpy ``Generator``.

        The v2-profile replacement for ``alive_names`` + Fisher–Yates: one
        ``Generator.permutation`` over the slot array instead of a per-element
        Python shuffle loop. The order is a different (but still
        seed-deterministic) stream than the v1 shuffle, which is exactly what
        the v2 checksum admits. Returning slots instead of materialized name
        lists keeps the per-agent probe order in an untracked numpy buffer:
        at 6400 nodes name lists put ~41M GC-tracked pointers back on the
        heap (one 6399-entry list per agent, built *after* the v2 warmup
        freeze), which every gen2 pass then rescanned. Names are resolved
        lazily, one probe target at a time, via :meth:`next_alive_in_order`.
        """
        arr = self._alive_excl_arr() if exclude_self else self._alive_arr()
        if len(arr) < 2:
            return arr
        return arr[np_rng.permutation(len(arr))]

    def next_alive_in_order(
        self, order: np.ndarray, start: int
    ) -> Tuple[int, Optional[str]]:
        """Walk ``order`` (a slot array) from ``start`` to the next alive
        member; returns ``(next_index, name-or-None)``.

        The skip condition (``known`` and currently alive) is the same
        ``peek(name)``-based filter the v1 name-list walk applies.
        """
        state = self._state
        known = self._known
        names = self.directory.names
        idx = start
        n = len(order)
        while idx < n:
            slot = int(order[idx])
            idx += 1
            if known[slot] and state[slot] == CODE_ALIVE:
                return idx, names[slot]
        return idx, None

    def suspects(self) -> List[Member]:
        arr = self._live_arr()
        if not len(arr):
            return []
        return [self._view(s) for s in arr[self._state[arr] == CODE_SUSPECT].tolist()]

    # --------------------------------------------------- selection hot paths
    def gossip_targets(self, rng: random.Random, max_fanout: int) -> List[str]:
        """Addresses of up to ``max_fanout`` random alive peers.

        Exactly one ``rng.sample`` draw over the insertion-ordered alive
        view, so a dict-of-records view draws identically.
        """
        arr = self._alive_excl_arr()
        count = len(arr)
        if not count:
            return []
        peers = _SlotAddresses(arr, self.directory.addresses)
        return rng.sample(peers, min(max_fanout, count))

    def gossip_targets_v2(self, np_rng, max_fanout: int) -> List[str]:
        """v2-profile twin of :meth:`gossip_targets` on a numpy ``Generator``.

        ``rng.sample`` was the single hottest per-tick RNG cost left at 6400
        nodes (one Mersenne draw per candidate, through a virtual-sequence
        ``__getitem__`` per hit). Here the k-of-n without-replacement draw is
        rejection-sampled from a :class:`~repro.gossip.member.GossipDrawBlock`
        of batched ``Generator.integers`` draws, amortizing the generator
        call over ~1k ticks. The draw sequence is a pure function of the
        generator state and the alive-count history, so the result stays
        deterministic.
        """
        arr = self._alive_excl_arr()
        count = len(arr)
        if not count:
            return []
        addresses = self.directory.addresses
        if max_fanout >= count:
            if count == 1:
                return [addresses[int(arr[0])]]
            perm = np_rng.permutation(count)
            return [addresses[s] for s in arr[perm].tolist()]
        picked = self._gossip_draws.draw(np_rng, count, max_fanout)
        return [addresses[int(arr[d])] for d in picked]

    def sync_peer(self, rng: random.Random) -> Optional[str]:
        """Address of one random alive peer for push-pull anti-entropy."""
        arr = self._alive_excl_arr()
        if not len(arr):
            return None
        return rng.choice(_SlotAddresses(arr, self.directory.addresses))

    def relay_sample(
        self, rng: random.Random, count: int, exclude_name: str
    ) -> List[str]:
        """Addresses of up to ``count`` relays for an indirect probe."""
        arr = self._alive_excl_arr()
        if len(arr):
            excluded = self.directory.slot_of(exclude_name)
            if excluded is not None:
                arr = arr[arr != excluded]
        if not len(arr):
            return []
        relays = _SlotAddresses(arr, self.directory.addresses)
        return rng.sample(relays, min(count, len(arr)))

    # -------------------------------------------------------------- batches
    def filter_superseding(
        self, updates: Sequence[Dict[str, object]]
    ) -> Sequence[Dict[str, object]]:
        """Drop updates that cannot change this view, in one array pass.

        Exactly the stale-update fast path of ``SwimAgent._apply_updates``
        (incarnation dominates; at equal incarnation dead/left > suspect >
        alive; updates about *self* and about unknown-but-living members are
        always kept), evaluated with numpy over the whole batch. Falls back
        to returning the batch untouched when it is small, contains
        non-membership payloads, or mentions the same member twice (the
        sequential loop must then see intermediate states).
        """
        n = len(updates)
        if n < 16:
            return updates
        try:
            names = [w["n"] for w in updates]
            incs = np.fromiter((w["i"] for w in updates), np.int64, count=n)
            codes = np.fromiter(
                (CODE_BY_VALUE[w["s"]] for w in updates), np.int8, count=n
            )
        except (KeyError, TypeError):
            return updates  # custom (non-membership) payloads in the batch
        if len(set(names)) != n:
            return updates
        slot_of = self.directory._slot_of
        slots = np.fromiter(
            (slot_of.get(name, -1) for name in names), np.int64, count=n
        )
        # A shared directory can hold slots past this table's capacity:
        # those nodes are unknown here, not the last row's.
        bounded = np.clip(slots, 0, len(self._known) - 1)
        known = (slots >= 0) & (slots < len(self._known)) & self._known[bounded]
        prev_inc = self._inc[bounded]
        prev_rank = _RANK_BY_CODE[self._state[bounded]]
        rank = _RANK_BY_CODE[codes]
        stale_known = known & (
            (incs < prev_inc) | ((incs == prev_inc) & (rank <= prev_rank))
        )
        dead_unknown = ~known & (codes >= CODE_DEAD)
        keep = ~(stale_known | dead_unknown)
        if self._self_slot >= 0:
            keep |= slots == self._self_slot
        if keep.all():
            return updates
        return [w for w, k in zip(updates, keep.tolist()) if k]

    def expire_dead(self, cutoff: float) -> int:
        """Reclaim dead/left records older than ``cutoff``; returns count."""
        arr = self._live_arr()
        if not len(arr):
            return 0
        stale = arr[
            (self._state[arr] >= CODE_DEAD) & (self._state_time[arr] < cutoff)
        ].tolist()
        names = self.directory.names
        for slot in stale:
            self.remove(names[slot])
        return len(stale)

    # ------------------------------------------------------------- suspicion
    def set_suspicion_deadline(self, name: str, deadline: float) -> None:
        slot = self.directory.slot_of(name)
        if slot is not None and slot < len(self._known) and self._known[slot]:
            self._deadline[slot] = deadline
        else:
            self._pending_deadline[name] = deadline

    def due_suspects(self, now: float) -> List[str]:
        """Names of suspects whose suspicion deadline has passed."""
        arr = self._live_arr()
        if not len(arr):
            return []
        due = arr[
            (self._state[arr] == CODE_SUSPECT) & (self._deadline[arr] <= now)
        ].tolist()
        names = self.directory.names
        return [names[s] for s in due]

    # ---------------------------------------------------------------- regions
    def region_mask(self, region: str) -> np.ndarray:
        """Known-member bitmap for one region (indexed by directory slot)."""
        rid = self.directory._region_id_of.get(region)
        mask = self._known.copy()
        if rid is None:
            mask[:] = False
            return mask
        count = min(len(mask), len(self.directory))
        ids = np.fromiter(self.directory.region_ids, dtype=np.int64, count=count)
        mask[:count] &= ids == rid
        mask[count:] = False
        return mask

    def region_alive_counts(self) -> Dict[str, int]:
        """Alive members per region, one vectorized pass."""
        arr = self._alive_arr()
        region_ids = self.directory.region_ids
        counts: Dict[str, int] = {}
        if len(arr):
            ids = np.fromiter(region_ids, dtype=np.int64, count=len(region_ids))
            got = np.bincount(ids[arr], minlength=len(self.directory.region_names))
            for rid, count in enumerate(got.tolist()):
                if count:
                    counts[self.directory.region_names[rid]] = count
        return counts

    # --------------------------------------------------------------- snapshot
    def snapshot_wire(self) -> List[Dict[str, object]]:
        """Full state for push-pull sync; cached until membership changes."""
        if self._snapshot is None:
            directory = self.directory
            inc = self._inc
            state = self._state
            self._snapshot = [
                directory.wire_for(slot, int(inc[slot]), state[slot])
                for slot in self._live_slots()
            ]
        return self._snapshot

    def snapshot_size(self) -> int:
        """Estimated wire size of :meth:`snapshot_wire`; cached likewise."""
        if self._snapshot_size is None:
            arr = self._live_arr()
            sizes = np.fromiter(
                self.directory._wire_sizes,
                dtype=np.int64,
                count=len(self.directory),
            )
            self._snapshot_size = int(2 + (sizes[arr] + 1).sum()) if len(arr) else 2
        return self._snapshot_size
