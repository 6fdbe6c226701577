"""Operation scheduling for high-level synthesis.

The OSCAR-era algorithm set: ASAP and ALAP for mobility analysis,
resource-constrained **list scheduling** as the workhorse, and
**force-directed scheduling** (Paulin/Knight style, simplified to
distribution-graph forces) for latency-constrained allocation studies.

A schedule maps every DFG operation to a start step; an operation of
category ``c`` occupies one unit of the ``c`` functional-unit pool for
``latency(c)`` consecutive steps (units are not pipelined here --
conservative, and matching the datapath controller's step counting).

:func:`list_schedule_ops` runs in every HLS call, so it is event
driven.  Its priority is the ALAP start at the ASAP horizon, from one
forward and one reverse pass over the topological order.  It keeps
three kinds of heap:

* per category, the eligible ops keyed ``(ALAP start, uid)``;
* per category, the free times of the category's FUs;
* one heap of released ops that are not eligible yet, keyed by the
  step they become eligible.  An op whose last predecessor is placed
  in step ``s`` is eligible from ``max(data ready, s + 1)``: a step
  only considers ops that were ready when it began (this matters only
  for 0-latency categories).

Time then jumps to the next event: the earliest waiting op or the
earliest FU release of a category with eligible ops.  This equals
stepping every cycle and scanning every ready op, because categories
never share FUs (the order in which categories are served within a
step cannot matter), an idle step changes nothing, and the output is
start times only: which FU an op took never leaves the scheduler, since
:func:`repro.hls.binding.bind` re-derives FU indices by left-edge.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .dfg import Dfg, HlsError

__all__ = ["HlsSchedule", "asap_schedule", "alap_schedule", "list_schedule_ops",
           "force_directed_schedule"]


@dataclass
class HlsSchedule:
    """Start step of every operation plus derived quantities."""

    dfg: Dfg
    start: dict[int, int]
    latency_of: dict[str, int]

    @property
    def length(self) -> int:
        """Total schedule length in steps."""
        return max((self.start[uid] + self.latency_of[op.category]
                    for uid, op in self.dfg.ops.items()), default=0)

    def ops_active_at(self, step: int) -> list[int]:
        return [uid for uid, op in self.dfg.ops.items()
                if self.start[uid] <= step
                < self.start[uid] + self.latency_of[op.category]]

    def fu_usage(self) -> dict[str, int]:
        """Peak concurrent operations per category (= FUs needed)."""
        usage: dict[str, int] = {}
        for step in range(self.length):
            per_cat: dict[str, int] = {}
            for uid in self.ops_active_at(step):
                cat = self.dfg.ops[uid].category
                per_cat[cat] = per_cat.get(cat, 0) + 1
            for cat, n in per_cat.items():
                usage[cat] = max(usage.get(cat, 0), n)
        return usage

    def validate(self, fu_limits: dict[str, int] | None = None) -> list[str]:
        problems = []
        for uid, op in self.dfg.ops.items():
            for dep in op.inputs:
                dep_cat = self.dfg.ops[dep].category
                if self.start[uid] < self.start[dep] \
                        + self.latency_of[dep_cat]:
                    problems.append(f"op {uid} starts before input {dep} "
                                    f"finishes")
        if fu_limits is not None:
            for cat, peak in self.fu_usage().items():
                if peak > fu_limits.get(cat, 0):
                    problems.append(f"category {cat}: {peak} concurrent ops "
                                    f"exceed {fu_limits.get(cat, 0)} FUs")
        return problems


def _latency_table(dfg: Dfg, latency_of) -> dict[str, int]:
    return {cat: latency_of(cat) for cat in dfg.categories()}


def asap_schedule(dfg: Dfg, latency_of) -> HlsSchedule:
    """Unconstrained earliest-start schedule."""
    table = _latency_table(dfg, latency_of)
    start: dict[int, int] = {}
    for uid in dfg.topological_order():
        op = dfg.ops[uid]
        start[uid] = max((start[d] + table[dfg.ops[d].category]
                          for d in op.inputs), default=0)
    return HlsSchedule(dfg, start, table)


def alap_schedule(dfg: Dfg, latency_of,
                  deadline: int | None = None) -> HlsSchedule:
    """Latest-start schedule meeting ``deadline`` (default: ASAP length)."""
    table = _latency_table(dfg, latency_of)
    horizon = deadline if deadline is not None \
        else asap_schedule(dfg, latency_of).length
    succs = dfg.successor_map()
    start: dict[int, int] = {}
    for uid in reversed(dfg.topological_order()):
        op = dfg.ops[uid]
        latest = horizon - table[op.category]
        for succ in succs[uid]:
            latest = min(latest, start[succ] - table[op.category])
        if latest < 0:
            raise HlsError(f"deadline {horizon} infeasible for op {uid}")
        start[uid] = latest
    return HlsSchedule(dfg, start, table)


def _alap_priority(dfg: Dfg, table: dict[str, int],
                   succs: dict[int, list[int]]) -> dict[int, int]:
    """ALAP start of every op at the ASAP horizon (smaller = more urgent).

    The same numbers as ``alap_schedule(dfg, latency_of).start`` from
    one forward pass (ASAP finish times, whose maximum is the horizon)
    and one reverse pass, without building either schedule.
    """
    ops = dfg.ops
    order = dfg.topological_order()
    finish: dict[int, int] = {}
    for uid in order:
        op = ops[uid]
        finish[uid] = max((finish[d] for d in op.inputs), default=0) \
            + table[op.category]
    horizon = max(finish.values(), default=0)
    latest: dict[int, int] = {}
    for uid in reversed(order):
        bound = horizon
        for succ in succs[uid]:
            if latest[succ] < bound:
                bound = latest[succ]
        latest[uid] = bound - table[ops[uid].category]
        if latest[uid] < 0:
            raise HlsError(f"deadline {horizon} infeasible for op {uid}")
    return latest


def list_schedule_ops(dfg: Dfg, latency_of,
                      fu_limits: dict[str, int]) -> HlsSchedule:
    """Resource-constrained list scheduling, priority = ALAP urgency.

    Each step, every category starts its most urgent data-ready ops
    (ties on uid) on its free FUs; an op released by a predecessor
    placed in step ``s`` competes from step ``s + 1`` on.  Time jumps
    from one event to the next (see the module docstring).
    """
    table = _latency_table(dfg, latency_of)
    missing = set(table) - set(fu_limits)
    if missing:
        raise HlsError(f"no FU limit for categories {sorted(missing)}")
    if any(fu_limits[c] < 1 for c in table):
        raise HlsError("every used category needs at least one FU")

    ops = dfg.ops
    succs = dfg.successor_map()
    priority = _alap_priority(dfg, table, succs)
    # distinct inputs: a repeated input is one predecessor, and the
    # successor map lists its consumer once
    pending = {uid: len(set(op.inputs)) for uid, op in ops.items()}
    data_ready = dict.fromkeys(ops, 0)
    # ops not yet eligible, keyed (eligible step, priority, uid)
    waiting = [(0, priority[uid], uid) for uid, k in pending.items()
               if k == 0]
    heapq.heapify(waiting)
    # per category: eligible ops keyed (priority, uid); FU free times
    ready: dict[str, list[tuple[int, int]]] = {cat: [] for cat in table}
    free_at = {cat: [0] * fu_limits[cat] for cat in table}

    start: dict[int, int] = {}
    step = 0
    while True:
        while waiting and waiting[0][0] <= step:
            _, prio, uid = heapq.heappop(waiting)
            heapq.heappush(ready[ops[uid].category], (prio, uid))
        next_step = waiting[0][0] if waiting else None
        for cat, queue in ready.items():
            pool = free_at[cat]
            lat = table[cat]
            while queue and pool[0] <= step:
                _, uid = heapq.heappop(queue)
                start[uid] = step
                done = step + lat
                heapq.heapreplace(pool, done)
                for succ in succs[uid]:
                    if done > data_ready[succ]:
                        data_ready[succ] = done
                    pending[succ] -= 1
                    if pending[succ] == 0:
                        eligible = max(data_ready[succ], step + 1)
                        heapq.heappush(waiting,
                                       (eligible, priority[succ], succ))
                        if next_step is None or eligible < next_step:
                            next_step = eligible
            if queue and (next_step is None or pool[0] < next_step):
                next_step = pool[0]
        if next_step is None:
            break
        step = next_step
    if len(start) != len(ops):
        raise HlsError("list scheduler failed to make progress")
    # insertion order = the order a cycle-by-cycle scan places ops in:
    # by step, then by urgency across categories
    order = sorted(start, key=lambda u: (start[u], priority[u], u))
    return HlsSchedule(dfg, {uid: start[uid] for uid in order}, table)


def force_directed_schedule(dfg: Dfg, latency_of,
                            deadline: int | None = None) -> HlsSchedule:
    """Simplified force-directed scheduling (distribution-graph forces).

    Operations are placed one at a time into the step of their mobility
    window that minimizes the category's expected concurrency -- the
    classic latency-constrained FU-minimizing heuristic.
    """
    table = _latency_table(dfg, latency_of)
    asap = asap_schedule(dfg, latency_of)
    horizon = deadline if deadline is not None else asap.length
    alap = alap_schedule(dfg, latency_of, horizon)

    start: dict[int, int] = {}
    # distribution graph: expected usage per (category, step)
    distribution: dict[tuple[str, int], float] = {}

    def window(uid: int) -> tuple[int, int]:
        lo = asap.start[uid] if uid not in start else start[uid]
        hi = alap.start[uid] if uid not in start else start[uid]
        return lo, hi

    for uid, op in dfg.ops.items():
        lo, hi = asap.start[uid], alap.start[uid]
        weight = 1.0 / (hi - lo + 1)
        for s in range(lo, hi + 1):
            for k in range(table[op.category]):
                key = (op.category, s + k)
                distribution[key] = distribution.get(key, 0.0) + weight

    # place operations most-constrained first (smallest mobility)
    order = sorted(dfg.ops,
                   key=lambda u: (alap.start[u] - asap.start[u], u))
    for uid in order:
        op = dfg.ops[uid]
        lo = max([asap.start[uid]]
                 + [start[d] + table[dfg.ops[d].category]
                    for d in op.inputs if d in start])
        hi = alap.start[uid]
        if lo > hi:
            hi = lo  # dependencies squeezed the window; extend horizon
        best_step, best_force = lo, float("inf")
        for s in range(lo, hi + 1):
            force = sum(distribution.get((op.category, s + k), 0.0)
                        for k in range(table[op.category]))
            if force < best_force:
                best_step, best_force = s, force
        start[uid] = best_step
        # update the distribution: this op is now fixed
        old_lo, old_hi = asap.start[uid], alap.start[uid]
        weight = 1.0 / (old_hi - old_lo + 1)
        for s in range(old_lo, old_hi + 1):
            for k in range(table[op.category]):
                distribution[(op.category, s + k)] -= weight
        for k in range(table[op.category]):
            key = (op.category, best_step + k)
            distribution[key] = distribution.get(key, 0.0) + 1.0

    schedule = HlsSchedule(dfg, start, table)
    problems = [p for p in schedule.validate() if "starts before" in p]
    if problems:
        raise HlsError("force-directed schedule broke dependencies:\n  "
                       + "\n  ".join(problems))
    return schedule
