"""Operation scheduling for high-level synthesis.

The OSCAR-era algorithm set: ASAP and ALAP for mobility analysis,
resource-constrained **list scheduling** as the workhorse, and
**force-directed scheduling** (Paulin/Knight style, simplified to
distribution-graph forces) for latency-constrained allocation studies.

A schedule maps every DFG operation to a start step; an operation of
category ``c`` occupies one unit of the ``c`` functional-unit pool for
``latency(c)`` consecutive steps (units are not pipelined here --
conservative, and matching the datapath controller's step counting).
"""

from __future__ import annotations

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
