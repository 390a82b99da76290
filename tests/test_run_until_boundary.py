"""``run_until(t)`` boundary semantics, pinned across every backend.

One rule, held by the calendar queue and by the heap oracle in
``tests/oracles.py``: the bound is **inclusive**. An event stamped exactly ``t`` executes inside
``run_until(t)``; a zero-delay event posted by a callback running at
``t`` also executes; only stamps strictly greater than ``t`` carry over.
After the call returns, an event scheduled at exactly ``now`` belongs to
the *next* call — that is what lets the parallel kernel inject
cross-region messages at a window barrier and know they sort into the
following window on either queue.
"""

from contextlib import ExitStack

import pytest

from repro.sim.events import EventQueue
from repro.sim.loop import Simulator
from tests.oracles import HeapEventQueue, heap_scheduler

BACKENDS = ["heap", "calendar"]


def make_sim(scheduler: str) -> Simulator:
    with heap_scheduler() if scheduler == "heap" else ExitStack():
        sim = Simulator(seed=0)
    expected = HeapEventQueue if scheduler == "heap" else EventQueue
    assert type(sim._queue) is expected
    return sim


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_event_at_exact_bound_runs_inside_the_call(scheduler):
    sim = make_sim(scheduler)
    fired = []
    sim.schedule_at(1.0, fired.append, "at-bound")
    sim.schedule_at(1.0 + 1e-12, fired.append, "past-bound")
    sim.run_until(1.0)
    assert fired == ["at-bound"]
    assert sim.now == 1.0
    sim.run_until(2.0)
    assert fired == ["at-bound", "past-bound"]


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_zero_delay_post_from_callback_at_bound_runs_inside(scheduler):
    sim = make_sim(scheduler)
    fired = []
    sim.schedule_at(1.0, lambda: sim.post(0.0, fired.append, "chained"))
    sim.run_until(1.0)
    assert fired == ["chained"]


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_event_at_now_after_return_runs_in_next_call(scheduler):
    # The parallel kernel's barrier-injection contract: after
    # run_until(t) returns, scheduling at exactly t lands in the next
    # window, on either queue.
    sim = make_sim(scheduler)
    sim.run_until(1.0)
    fired = []
    sim.schedule_at(1.0, fired.append, "injected")
    assert fired == []
    sim.run_until(1.0)
    assert fired == ["injected"]


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_ties_at_bound_run_in_schedule_order(scheduler):
    sim = make_sim(scheduler)
    fired = []
    for i in range(5):
        sim.schedule_at(1.0, fired.append, i)
    sim.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]
