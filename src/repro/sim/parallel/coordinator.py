"""Conservative-window coordinator for the region-sharded kernel.

The coordinator forks one worker process per region group (see
``partition.assign_regions``), then advances all workers through lockstep
time windows:

* **Window width (lookahead)** = ``Topology.min_inter_region_latency()``.
  Jitter only ever *adds* latency (the multiplier is ``>= 1``) and
  cross-region latency multipliers below 1.0 are rejected at plan
  validation, so a message sent anywhere inside window ``k`` can only
  arrive strictly after the barrier that ends it — every export from
  window ``k`` is in the destination worker's queue before the window
  containing its arrival time begins. That is the classical conservative
  PDES invariant, with the geo topology's latency floor as lookahead.
* **Barrier merge**: at each barrier the coordinator routes every exported
  record to the worker owning its destination region and sorts each
  worker's inbound batch by ``(arrival_time, src-region topology index,
  sender seq)``. Sender seqs are allocated at *send* time from the sending
  worker's queue counter (the same discipline the batched delivery path
  uses), so the merge order is a pure function of seed + plan — two runs,
  or two different worker counts, produce the same injection order.

Failure handling: a worker that raises ships its traceback back over the
pipe; a worker that dies (killed, segfault, OOM) is detected by polling
``Process.is_alive`` while waiting — both surface as a
:class:`~repro.errors.SimulationError` naming the worker and its regions,
never a hang. The remaining workers are terminated on the way out.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.parallel.partition import (
    assign_regions,
    plan_event_surplus,
    validate_plan_for_parallel,
)
from repro.sim.parallel.worker import ShardBuilder, worker_main
from repro.sim.topology import Topology

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_INTERVAL = 0.05


class ParallelSimulation:
    """Drives one region-sharded run; see the module docstring.

    Parameters
    ----------
    builder:
        ``builder(worker_index, owned_regions) -> WorkerShard``, executed
        inside each forked worker. Because workers fork (never spawn), the
        builder may be any callable — closures included — and must build the
        *entire* shard state itself: forked children share nothing written
        after the fork.
    topology:
        The region set being partitioned; all shards must build their
        networks over an identical topology.
    workers:
        Requested worker count; clamped to the number of regions. ``1`` is
        allowed (a single worker owning every region — useful for harness
        tests, though callers wanting serial semantics should just run the
        shard in-process and skip the fork entirely).
    window:
        Override the window width; defaults to the topology's
        ``min_inter_region_latency()``. Must not exceed it, or lookahead is
        violated and injection raises.
    plan:
        Optional fault plan, validated here for parallel-runnability and
        used to reconcile the replicated chaos events in
        :meth:`event_surplus`. The builder is responsible for putting the
        same plan on its shards (``WorkerShard.plan``).
    region_of_address:
        Required when ``plan`` is set: address -> region for plan
        validation and surplus accounting (the coordinator never builds a
        shard, so it cannot derive the mapping itself).
    """

    def __init__(
        self,
        builder: ShardBuilder,
        *,
        topology: Optional[Topology] = None,
        workers: int = 2,
        window: Optional[float] = None,
        plan: Optional[FaultPlan] = None,
        region_of_address: Optional[Dict[str, str]] = None,
    ) -> None:
        self.topology = topology if topology is not None else Topology()
        region_names = [r.name for r in self.topology.regions]
        if len(region_names) < 2:
            raise SimulationError(
                "the parallel kernel needs a multi-region topology "
                "(one region has no latency floor to derive lookahead from)"
            )
        self.builder = builder
        self.assignments = assign_regions(region_names, workers)
        self.workers = len(self.assignments)
        self._region_index = {name: i for i, name in enumerate(region_names)}
        self._worker_of_region = {
            region: i
            for i, owned in enumerate(self.assignments)
            for region in owned
        }
        lookahead = self.topology.min_inter_region_latency()
        self.window = lookahead if window is None else window
        if not 0.0 < self.window <= lookahead:
            raise SimulationError(
                f"window {self.window:g}s must be in (0, {lookahead:g}s] — "
                f"wider than the min inter-region latency breaks lookahead"
            )
        self.plan = plan
        if plan is not None and not plan.empty:
            if region_of_address is None:
                raise SimulationError(
                    "a fault plan needs region_of_address for validation "
                    "and replication accounting"
                )
            validate_plan_for_parallel(plan, region_of_address)
        self._region_of_address = region_of_address
        self.windows_run = 0
        self.messages_exchanged = 0

    def event_surplus(self) -> int:
        """Extra ``events_processed`` from chaos events replicated across
        workers (0 without a plan); subtract from the summed worker totals
        to compare against a serial run."""
        if self.plan is None or self.plan.empty:
            return 0
        return plan_event_surplus(
            self.plan, self.assignments, self._region_of_address
        )

    # --------------------------------------------------------------- running
    def run(self, duration: float) -> List[dict]:
        """Run every shard to ``duration``; returns per-worker summaries."""
        if duration <= 0:
            raise SimulationError(f"duration must be positive, got {duration}")
        if not hasattr(os, "fork"):
            raise SimulationError(
                "the parallel kernel requires fork-capable multiprocessing "
                "(POSIX); run with workers=1 on this platform"
            )
        context = multiprocessing.get_context("fork")
        connections = []
        processes = []
        try:
            all_regions = set(self._region_index)
            for index, owned in enumerate(self.assignments):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=worker_main,
                    args=(
                        child_conn,
                        index,
                        owned,
                        tuple(sorted(all_regions - set(owned))),
                        self.builder,
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                connections.append(parent_conn)
                processes.append(process)
            inbound: List[List[tuple]] = [[] for _ in processes]
            now = 0.0
            while now < duration:
                end = min(now + self.window, duration)
                for index in range(len(processes)):
                    self._send(index, connections, processes,
                               ("window", end, inbound[index]))
                next_inbound: List[List[tuple]] = [[] for _ in processes]
                for index in range(len(processes)):
                    reply = self._receive(index, connections, processes)
                    for dst_region, records in reply[1].items():
                        target = self._worker_of_region[dst_region]
                        next_inbound[target].extend(records)
                        self.messages_exchanged += len(records)
                region_index = self._region_index
                for batch in next_inbound:
                    batch.sort(
                        key=lambda r: (r[0], region_index[r[1]], r[2])
                    )
                inbound = next_inbound
                now = end
                self.windows_run += 1
            summaries: List[dict] = []
            for index in range(len(processes)):
                self._send(index, connections, processes, ("finish",))
                reply = self._receive(index, connections, processes)
                summaries.append(reply[1])
            for process in processes:
                process.join(timeout=10.0)
            return summaries
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            for conn in connections:
                conn.close()

    def _send(self, index: int, connections, processes, message) -> None:
        """Send a command to worker ``index``; a broken pipe (the worker
        died or errored before this command) is converted into the same
        clear diagnostics ``_receive`` produces, never a raw OS error."""
        try:
            connections[index].send(message)
        except (BrokenPipeError, OSError):
            # Drain the worker's side of the pipe: an ("error", traceback)
            # reply raises with the real cause; a silent death raises the
            # died-mid-run error. Either way _receive raises.
            self._receive(index, connections, processes)
            self._worker_failed(index, processes[index], "closed its pipe")

    def _receive(self, index: int, connections, processes):
        """Next reply from worker ``index``; raises instead of hanging."""
        conn = connections[index]
        process = processes[index]
        while True:
            if conn.poll(_POLL_INTERVAL):
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    # A worker that exits with our command still unread in
                    # its socket resets the connection instead of closing it.
                    self._worker_failed(index, process, "closed its pipe")
                if reply[0] == "error":
                    raise SimulationError(
                        f"parallel worker {index} "
                        f"(regions {', '.join(self.assignments[index])}) "
                        f"failed:\n{reply[1]}"
                    )
                return reply
            if not process.is_alive():
                # One last poll: the worker may have replied and exited
                # before the liveness check saw it die.
                if conn.poll(0):
                    continue
                self._worker_failed(
                    index, process, f"died (exit code {process.exitcode})"
                )

    def _worker_failed(self, index: int, process, what: str) -> None:
        raise SimulationError(
            f"parallel worker {index} "
            f"(regions {', '.join(self.assignments[index])}) {what} "
            f"mid-run — simulation state is unrecoverable; rerun with "
            f"workers=1 to reproduce serially"
        )
