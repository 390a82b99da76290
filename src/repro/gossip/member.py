"""Membership records and the SWIM update-ordering rules.

The ordering rules (which update supersedes which) follow SWIM/memberlist:
incarnation numbers dominate; at equal incarnation, ``dead``/``left``
supersedes ``suspect`` supersedes ``alive``. A node refutes suspicion about
itself by bumping its incarnation and re-broadcasting ``alive``.
"""

from __future__ import annotations

import enum
from typing import Dict, List


class MemberState(str, enum.Enum):
    """SWIM member lifecycle states; LEFT is the graceful variant of DEAD."""
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"
    LEFT = "left"


_STATE_RANK = {
    MemberState.ALIVE: 0,
    MemberState.SUSPECT: 1,
    MemberState.LEFT: 2,
    MemberState.DEAD: 2,
}

#: Fast lookups used on the gossip hot path (avoids Enum.__call__).
STATE_BY_VALUE = {state.value: state for state in MemberState}
RANK_BY_VALUE = {state.value: rank for state, rank in _STATE_RANK.items()}


def supersedes(
    new_state: MemberState,
    new_incarnation: int,
    old_state: MemberState,
    old_incarnation: int,
) -> bool:
    """True if an update ``(new_state, new_incarnation)`` should be applied."""
    if new_incarnation != old_incarnation:
        return new_incarnation > old_incarnation
    return _STATE_RANK[new_state] > _STATE_RANK[old_state]


class Member:
    """One member as seen by one agent (views may differ transiently)."""

    __slots__ = ("name", "address", "region", "incarnation", "state", "state_time")

    def __init__(
        self,
        name: str,
        address: str,
        region: str,
        incarnation: int = 0,
        state: MemberState = MemberState.ALIVE,
        state_time: float = 0.0,
    ) -> None:
        self.name = name
        self.address = address
        self.region = region
        self.incarnation = incarnation
        self.state = state
        self.state_time = state_time

    def to_wire(self) -> Dict[str, object]:
        """Compact dict for piggybacking on gossip messages."""
        return {
            "n": self.name,
            "a": self.address,
            "r": self.region,
            "i": self.incarnation,
            "s": self.state.value,
        }

    def wire_size(self) -> int:
        """Estimated JSON size of :meth:`to_wire`, cheap enough for hot paths."""
        return 48 + len(self.name) + len(self.address) + len(self.region)

    @classmethod
    def from_wire(cls, data: Dict[str, object], time: float) -> "Member":
        return cls(
            name=data["n"],  # type: ignore[arg-type]
            address=data["a"],  # type: ignore[arg-type]
            region=data["r"],  # type: ignore[arg-type]
            incarnation=data["i"],  # type: ignore[arg-type]
            state=STATE_BY_VALUE[data["s"]],  # type: ignore[index]
            state_time=time,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Member {self.name} {self.state.value} inc={self.incarnation}>"


class GossipDrawBlock:
    """Amortized k-of-n index draws for the v2 profile's gossip sampling.

    ``Generator.integers`` pays a few microseconds of pure-Python argument
    handling before the C draw, which at one call per gossip tick undid its
    win over ``rng.sample``. Indices are therefore drawn a block at a time
    and consumed from a plain list; the block is discarded whenever the
    candidate count changes so every index stays uniform over the current
    population. The (bound, draw) consumption sequence is a pure function
    of the generator state and the alive-count history, so v2 runs stay
    deterministic.

    The block is sized for the per-agent consumption rate (a handful of
    draws per gossip tick): large blocks made the *first* refill of every
    agent in a big sweep generate three orders of magnitude more draws
    than the run consumed.
    """

    __slots__ = ("_block", "_pos", "_bound")

    SIZE = 64

    def __init__(self) -> None:
        self._block: List[int] = []
        self._pos = 0
        self._bound = -1

    def draw(self, np_rng, count: int, k: int) -> List[int]:
        """``k`` distinct uniform indices in ``[0, count)`` via rejection.

        ``k`` is the gossip fanout (tiny) while ``count`` is the alive
        population, so collisions are rare and the expected cost is ``k``
        list reads.
        """
        if self._bound != count:
            self._block = []
            self._pos = 0
            self._bound = count
        block = self._block
        pos = self._pos
        picked: List[int] = []
        while len(picked) < k:
            if pos >= len(block):
                block = np_rng.integers(0, count, size=self.SIZE).tolist()
                self._block = block
                pos = 0
            d = block[pos]
            pos += 1
            if d not in picked:
                picked.append(d)
        self._pos = pos
        return picked
