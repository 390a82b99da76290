"""Host pace: how long a fixed pure-Python probe takes on this host right now.

A shared host does not run at one speed. On the 2-vCPU box the benchmark was
written on, the same loop switched between about 27 ms and about 46 ms every
few hundred milliseconds to tens of seconds (README, "Why speed is rescaled").
A wall-clock speed over a 15 s window then mostly measures how the window
fell across those levels. The benchmark therefore cuts the measured window
into short slices, runs :func:`probe` between them, and rescales each
slice's interpreter time by the probes on either side of it; the garbage
collector's share, timed by :class:`GcClock`, is kept as timed
(:func:`reference_seconds`). The result reads as wall seconds on a host
whose probe takes :data:`REFERENCE_PROBE_S`.

The probe touches only its own small, preallocated list, dict and object,
and allocates no container objects, so it cannot trigger the garbage
collector or depend on the program's heap. No program code runs inside it.
"""

from __future__ import annotations

import gc
import time
from typing import List, Optional, Sequence

#: Loop iterations in one repetition of the probe.
PROBE_ITERATIONS = 8_000
#: Repetitions per probe; the probe reports their median, so one
#: preemption inside a repetition does not move it.
PROBE_REPS = 3
#: Seconds one repetition is taken to last on the reference host. Rescaled
#: speeds read as speeds on a host where the probe takes this long.
REFERENCE_PROBE_S = 0.0015


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, key: int) -> int:
        self.value = (self.value + key) & 0xFFFF
        return self.value


_TABLE = list(range(1024))
_MAP = dict.fromkeys(range(1024), 0)
_CELL = _Cell()


def _repetition() -> float:
    table, mapping, bump = _TABLE, _MAP, _CELL.bump
    clock = time.perf_counter
    begin = clock()
    for i in range(PROBE_ITERATIONS):
        key = table[(i * 7) & 1023]
        mapping[key] = bump(key) ^ mapping[key]
    return clock() - begin


def probe() -> float:
    """Seconds one probe repetition takes now (median of the repetitions)."""
    times = sorted(_repetition() for _ in range(PROBE_REPS))
    return times[len(times) // 2]


class GcClock:
    """Wall seconds the garbage collector runs while the clock is open."""

    def __init__(self) -> None:
        self.total_s = 0.0
        self._began: Optional[float] = None

    def _callback(self, phase: str, info) -> None:
        if phase == "start":
            self._began = time.perf_counter()
        elif self._began is not None:
            self.total_s += time.perf_counter() - self._began
            self._began = None

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def reference_seconds(walls: Sequence[float], gc_walls: Sequence[float],
                      probes: Sequence[float]) -> float:
    """Wall seconds of consecutive slices, rescaled to the reference host.

    ``probes`` has one more entry than ``walls``: the probe before the first
    slice and one after each slice. Each slice's interpreter time (its wall
    time less its garbage-collection time, ``gc_walls``) is rescaled by the
    mean of the probes on either side of it. Collection time is counted as
    timed: a full collection walks the whole heap and waits on memory, which
    the cache-resident probe does not measure.
    """
    if len(probes) != len(walls) + 1 or len(gc_walls) != len(walls):
        raise ValueError(f"{len(walls)} slices need {len(walls) + 1} probes and "
                         f"{len(walls)} collection times, got {len(probes)} "
                         f"and {len(gc_walls)}")
    total = 0.0
    for index, (wall, collecting) in enumerate(zip(walls, gc_walls)):
        around = (probes[index] + probes[index + 1]) / 2.0
        total += (wall - collecting) * REFERENCE_PROBE_S / around + collecting
    return total


def median_probe_ms(probes: List[float]) -> float:
    ordered = sorted(probes)
    return ordered[len(ordered) // 2] * 1000.0
