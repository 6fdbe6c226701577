"""Reference schedulers for differential tests.

Verbatim copies of the step-by-step HLS list scheduler, the
rescanning task-level list scheduler (with its ``_Timeline`` and
``_priorities``) and the list-popping ``Dfg.topological_order`` that
the heap- and table-driven kernels in ``repro.hls.schedule`` and
``repro.schedule.list_scheduler`` replaced.  Only tests import this
module: the kernels must reproduce these results bit for bit
(``tests/test_scheduler_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.estimate.model import CostModel
from repro.graph.partition import Partition
from repro.hls.dfg import Dfg, HlsError
from repro.hls.schedule import HlsSchedule, _latency_table, alap_schedule
from repro.schedule.asap_alap import _edge_delay, _latency
from repro.schedule.schedule import (Schedule, ScheduleEntry, ScheduleError,
                                     TransferEntry)

__all__ = ["topological_order", "list_schedule_ops", "list_schedule"]


def topological_order(dfg: Dfg) -> list[int]:
    indeg = {uid: len(op.inputs) for uid, op in dfg.ops.items()}
    succs: dict[int, list[int]] = {uid: [] for uid in dfg.ops}
    for op in dfg.ops.values():
        for dep in op.inputs:
            succs[dep].append(op.uid)
    ready = sorted(uid for uid, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        uid = ready.pop(0)
        order.append(uid)
        for succ in succs[uid]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    if len(order) != len(dfg.ops):
        raise HlsError(f"dfg {dfg.name!r} contains a cycle")
    return order


def list_schedule_ops(dfg: Dfg, latency_of,
                      fu_limits: dict[str, int]) -> HlsSchedule:
    """Resource-constrained list scheduling, priority = ALAP urgency."""
    table = _latency_table(dfg, latency_of)
    missing = set(table) - set(fu_limits)
    if missing:
        raise HlsError(f"no FU limit for categories {sorted(missing)}")
    if any(fu_limits[c] < 1 for c in table):
        raise HlsError("every used category needs at least one FU")

    alap = alap_schedule(dfg, latency_of)
    priority = alap.start  # smaller ALAP start = more urgent
    succs = dfg.successor_map()

    start: dict[int, int] = {}
    finished: dict[int, int] = {}
    # distinct inputs: a repeated input is one predecessor, and the
    # successor map lists its consumer once
    remaining = {uid: len(set(op.inputs)) for uid, op in dfg.ops.items()}
    ready = sorted([uid for uid, k in remaining.items() if k == 0],
                   key=lambda u: (priority[u], u))
    busy_until: dict[str, list[int]] = {
        cat: [0] * fu_limits[cat] for cat in table}

    step = 0
    pending = dict(remaining)
    guard = 0
    while ready or len(finished) < len(dfg.ops):
        guard += 1
        if guard > 10 * (len(dfg.ops) + 1) * (max(table.values(), default=1) + 1):
            raise HlsError("list scheduler failed to make progress")
        progressed = False
        for uid in list(ready):
            op = dfg.ops[uid]
            data_ready = max((finished[d] for d in op.inputs), default=0)
            if data_ready > step:
                continue
            pool = busy_until[op.category]
            fu = min(range(len(pool)), key=lambda i: pool[i])
            if pool[fu] > step:
                continue
            start[uid] = step
            finished[uid] = step + table[op.category]
            pool[fu] = finished[uid]
            ready.remove(uid)
            for succ in succs[uid]:
                pending[succ] -= 1
                if pending[succ] == 0:
                    ready.append(succ)
            ready.sort(key=lambda u: (priority[u], u))
            progressed = True
        step += 1
        if not progressed and not ready and len(finished) < len(dfg.ops):
            continue
    return HlsSchedule(dfg, start, table)


@dataclass
class _Timeline:
    """Busy intervals of one exclusive resource, kept sorted."""

    busy: list[tuple[int, int]] = field(default_factory=list)

    def earliest_slot(self, after: int, duration: int) -> int:
        """First start >= after such that [start, start+duration) is free."""
        start = after
        for b_start, b_end in self.busy:
            if b_end <= start:
                continue
            if b_start >= start + duration:
                break
            start = b_end
        return start

    def reserve(self, start: int, duration: int) -> None:
        self.busy.append((start, start + duration))
        self.busy.sort()


def _priorities(partition: Partition, model: CostModel) -> dict[str, int]:
    """Critical-path-to-sink length of every node (higher = schedule first)."""
    graph = partition.graph
    prio: dict[str, int] = {}
    for name in reversed(graph.topological_order()):
        lat = _latency(model, partition, name)
        downstream = 0
        for edge in graph.out_edges(name):
            downstream = max(downstream,
                             _edge_delay(model, partition, edge)
                             + prio[edge.dst])
        prio[name] = lat + downstream
    return prio


def list_schedule(partition: Partition, model: CostModel) -> Schedule:
    """Compute a static schedule for a coloured partitioning graph.

    Deterministic: ties between equal-priority ready nodes break on the
    node name, so repeated runs produce identical schedules (important
    for reproducible STGs and memory maps downstream).
    """
    graph = partition.graph
    if model.graph is not graph:
        raise ScheduleError("cost model was built for a different graph")

    prio = _priorities(partition, model)
    schedule = Schedule(partition)
    timelines: dict[str, _Timeline] = {}
    bus = _Timeline()

    def timeline(resource: str) -> _Timeline:
        if resource not in timelines:
            timelines[resource] = _Timeline()
        return timelines[resource]

    remaining_preds = {n: len(graph.in_edges(n)) for n in graph.node_names}
    ready = [n for n, k in remaining_preds.items() if k == 0]

    while ready:
        ready.sort(key=lambda n: (-prio[n], n))
        node = ready.pop(0)
        resource = partition.resource_of(node)
        latency = _latency(model, partition, node)

        earliest = 0
        pending_reads: list[tuple[str, int, int]] = []  # (edge, write_end, read_ticks)
        for edge in graph.in_edges(node):
            producer = schedule.entry(edge.src)
            if partition.resource_of(edge.src) == resource:
                earliest = max(earliest, producer.end)
                continue
            # cut edge: write burst after the producer finished ...
            write_ticks = model.write_ticks(edge)
            write_start = bus.earliest_slot(producer.end, write_ticks)
            bus.reserve(write_start, write_ticks)
            schedule.add_transfer(TransferEntry(
                edge.name, "write", write_start, write_start + write_ticks))
            # ... then a read burst for this consumer
            pending_reads.append((edge.name, write_start + write_ticks,
                                  model.read_ticks(edge)))

        for edge_name, write_end, read_ticks in pending_reads:
            read_start = bus.earliest_slot(write_end, read_ticks)
            bus.reserve(read_start, read_ticks)
            schedule.add_transfer(TransferEntry(
                edge_name, "read", read_start, read_start + read_ticks))
            earliest = max(earliest, read_start + read_ticks)

        line = timeline(resource)
        start = line.earliest_slot(earliest, latency)
        line.reserve(start, latency)
        schedule.add(ScheduleEntry(node, resource, start, start + latency))

        for edge in graph.out_edges(node):
            remaining_preds[edge.dst] -= 1
            if remaining_preds[edge.dst] == 0:
                ready.append(edge.dst)

    if len(schedule.entries) != len(graph.node_names):
        missing = set(graph.node_names) - set(schedule.entries)
        raise ScheduleError(f"unschedulable nodes (cycle?): {sorted(missing)}")
    return schedule
