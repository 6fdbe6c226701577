"""Resource-constrained list scheduling.

Produces the static schedule of COOL's partitioning phase: every
processing unit executes one node at a time; payloads of cut edges move
over the single system bus (write burst by the producer side, later a
read burst for the consumer side), and the bus carries one burst at a
time.  Priorities are critical-path lengths, so the scheduler is the
classic latency-weighted list scheduler of the HLS literature applied at
task granularity.

The partitioners schedule one graph under many trial mappings, so the
kernel reads the cost model's compiled tables
(:meth:`repro.estimate.CostModel.schedule_tables`: topological order,
per-node latency per resource, in-edges with their burst lengths,
out-edges with their transfer times) instead of querying the model per
node and edge.  Each call then:

* computes every priority (the critical path to a sink, transfer time
  included on cut edges) in one reverse pass over the topological order;
* pops ready nodes from a heap keyed ``(-priority, name)``: names are
  unique, so the key is a total order and the pop order is fixed;
* keeps every timeline as parallel sorted start/end lists.  Each
  interval is booked into a gap the scan found free, so intervals never
  overlap and their ends ascend with their starts: a ``bisect`` on the
  ends skips exactly the intervals a scan from the front would have
  passed over, and the scan stops where the new interval belongs;
* adds entries and transfers to the :class:`Schedule` in the order it
  places them (the fingerprint hashes the transfer list in that order).
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush

from ..estimate.model import CostModel
from ..graph.partition import Partition
from .schedule import Schedule, ScheduleEntry, ScheduleError, TransferEntry

__all__ = ["list_schedule"]


class _Timeline:
    """Busy intervals of one exclusive resource, as sorted start/end lists."""

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []

    def book(self, after: int, duration: int) -> int:
        """Reserve the first free [start, start+duration) with start >= after.

        Returns ``start``.  The scan stops at the first interval that
        starts after the slot, which is where the slot is inserted.
        """
        starts, ends = self.starts, self.ends
        start = after
        # intervals ending at or before ``after`` cannot collide
        k = bisect_right(ends, after)
        while k < len(ends):
            if ends[k] > start:
                if starts[k] >= start + duration:
                    break
                start = ends[k]
            k += 1
        starts.insert(k, start)
        ends.insert(k, start + duration)
        return start


def list_schedule(partition: Partition, model: CostModel) -> Schedule:
    """Compute a static schedule for a coloured partitioning graph.

    Deterministic: ties between equal-priority ready nodes break on the
    node name, so repeated runs produce identical schedules (important
    for reproducible STGs and memory maps downstream).
    """
    graph = partition.graph
    if model.graph is not graph:
        raise ScheduleError("cost model was built for a different graph")

    tables = model.schedule_tables()
    names = tables.names
    count = len(names)
    resource = [""] * count
    latency = [0] * count
    prio = [0] * count
    for i in reversed(range(count)):
        name = names[i]
        res = resource[i] = partition.resource_of(name)
        lat = tables.latency[i].get(res)
        if lat is None:  # no table entry: let the model raise or answer
            lat = model.latency(name, res)
        latency[i] = lat
        downstream = 0
        for dst, transfer in tables.out_edges[i]:
            delay = prio[dst] if resource[dst] == res \
                else transfer + prio[dst]
            if delay > downstream:
                downstream = delay
        prio[i] = lat + downstream

    in_edges = tables.in_edges
    remaining = [len(edges) for edges in in_edges]
    ready = [(-prio[i], names[i], i) for i in range(count)
             if not remaining[i]]
    heapify(ready)
    schedule = Schedule(partition)
    end = [0] * count
    timelines: dict[str, _Timeline] = {}
    bus = _Timeline()

    while ready:
        _, node, i = heappop(ready)
        res = resource[i]

        earliest = 0
        pending_reads: list[tuple[str, int, int]] = []  # (edge, write_end, read_ticks)
        for src, edge_name, write_ticks, read_ticks in in_edges[i]:
            if resource[src] == res:
                if end[src] > earliest:
                    earliest = end[src]
                continue
            # cut edge: write burst after the producer finished ...
            write_start = bus.book(end[src], write_ticks)
            schedule.add_transfer(TransferEntry(
                edge_name, "write", write_start, write_start + write_ticks))
            # ... then a read burst for this consumer
            pending_reads.append((edge_name, write_start + write_ticks,
                                  read_ticks))

        for edge_name, write_end, read_ticks in pending_reads:
            read_start = bus.book(write_end, read_ticks)
            schedule.add_transfer(TransferEntry(
                edge_name, "read", read_start, read_start + read_ticks))
            earliest = max(earliest, read_start + read_ticks)

        line = timelines.get(res)
        if line is None:
            line = timelines[res] = _Timeline()
        lat = latency[i]
        start = line.book(earliest, lat)
        schedule.add(ScheduleEntry(node, res, start, start + lat))
        end[i] = start + lat

        for dst, _ in tables.out_edges[i]:
            remaining[dst] -= 1
            if remaining[dst] == 0:
                heappush(ready, (-prio[dst], names[dst], dst))

    if len(schedule.entries) != len(graph.node_names):
        missing = set(graph.node_names) - set(schedule.entries)
        raise ScheduleError(f"unschedulable nodes (cycle?): {sorted(missing)}")
    return schedule
