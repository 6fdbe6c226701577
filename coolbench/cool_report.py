"""Metric definitions and their computation from passes and traces.

``END_TO_END`` and ``PER_LAYER`` are the metric tables ``BENCHMARK.json``
lists (a unit test holds the two in step): name, unit, better.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from cool_stats import (layer_self_times, percentile, tail_percentile,
                        top_layer_seconds)

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("design_s.p50", "s", "lower"),
    ("design_s.p80", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("makespan_ticks", "ticks", "lower"),
    ("clbs", "count", "lower"),
    ("guard_literals", "count", "lower"),
    ("cosim_cycles", "cycles", "lower"),
)

PER_LAYER = (
    ("verify.busy_s", "s", "lower"),
    ("verify.oracle_busy_s", "s", "lower"),
    ("verify.relational_busy_s", "s", "lower"),
    ("verify.oracle_runs", "count", "lower"),
    ("verify.fixpoint_busy_s", "s", "lower"),
    ("verify.pairs", "count", "lower"),
    ("verify.product_states", "count", "lower"),
    ("symbolic.bdd_nodes", "count", "lower"),
    ("symbolic.ite_hit_rate", "ratio", "higher"),
    ("hls.calls", "count", "lower"),
    ("hls.busy_s", "s", "lower"),
    ("flow.area_repairs", "count", "lower"),
    ("hls.useful_frac", "ratio", "higher"),
    ("partition.busy_s", "s", "lower"),
    ("schedule.list_schedule.calls", "count", "lower"),
    ("schedule.list_schedule.busy_s", "s", "lower"),
    ("stg.busy_s", "s", "lower"),
    ("comm.busy_s", "s", "lower"),
    ("controllers.busy_s", "s", "lower"),
    ("codegen.busy_s", "s", "lower"),
    ("codegen.care_busy_s", "s", "lower"),
    ("sim.busy_s", "s", "lower"),
    ("pipeline.fingerprint.calls", "count", "lower"),
    ("pipeline.fingerprint.busy_s", "s", "lower"),
    ("pipeline.cache.hit_rate", "ratio", "higher"),
    ("flow.other_s", "s", "lower"),
    ("flow.layer_coverage", "ratio", "higher"),
    ("store.get.calls", "count", "lower"),
    ("store.get.busy_s", "s", "lower"),
    ("store.get.bytes", "B", "lower"),
    ("store.decode_busy_s", "s", "lower"),
    ("store.l2_hit_rate", "ratio", "higher"),
    ("store.quarantined", "count", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.busy_s", "s", "lower"),
    ("store.put.bytes", "B", "lower"),
    ("shard.map_s", "s", "lower"),
    ("shard.reduce_s", "s", "lower"),
    ("shard.imbalance", "ratio", "lower"),
    ("shard.payload_bytes", "B", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("repeat.wall_ratio", "ratio", "lower"),
    ("host.raw_wall_s", "s", "lower"),
    ("host.speed", "ratio", "higher"),
)

UNITS = {name: unit for name, unit, _better in END_TO_END + PER_LAYER}

#: Later passes may be this share faster than the first before the run
#: fails: more would be a process-level memo serving the repeat.  It is
#: the bound of ``wall_s`` (a unit test holds the two in step).
REPEAT_TOLERANCE = 0.15


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def pass_seconds(result, meter) -> float:
    """Nominal seconds of one pass."""
    return meter.seconds(result.begun, result.begun + result.wall_s)


def design_seconds(passes, meter) -> list[float]:
    """Nominal seconds of every design of every pass."""
    return [meter.seconds(begun, begun + seconds) for p in passes
            for begun, seconds in zip(p.design_begun, p.design_s)]


def repeat_ratios(passes, meter) -> tuple[float, float]:
    """The median and the slowest later pass, each against the first
    pass, in nominal time."""
    first = pass_seconds(passes[0], meter)
    later = [pass_seconds(p, meter) / first for p in passes[1:]]
    return statistics.median(later), max(later)


def repeat_problems(passes, meter) -> list[str]:
    """A problem when even the slowest later pass ran faster than the
    first beyond tolerance.

    A memo that serves repeats speeds up every later pass, while a
    stall of the host can slow the one first pass by more than the
    tolerance: on ``store_warm`` single 0.4 s passes spread by about
    +-15% around their median, so a check against the median or the
    fastest later pass fails runs of unchanged code.
    """
    if len(passes) < 2:
        return []
    _median, slowest = repeat_ratios(passes, meter)
    if slowest >= 1.0 - REPEAT_TOLERANCE:
        return []
    return [f"every later pass took at most {slowest:.3f} of the first "
            f"pass's time: a repeat is served by a process-level memo"]


def shard_values(sharded) -> dict[str, float]:
    """The ``shard.*`` metrics of a sharded sweep (0 where none ran)."""
    if sharded is None:
        return dict.fromkeys(("shard.map_s", "shard.reduce_s",
                              "shard.imbalance", "shard.payload_bytes"), 0)
    seconds = [row["seconds"] for row in sharded.stats.shards]
    return {
        "shard.map_s": sharded.stats.map_seconds,
        "shard.reduce_s": sharded.stats.reduce_seconds,
        "shard.imbalance": max(seconds) / statistics.fmean(seconds),
        "shard.payload_bytes": sharded.payload_bytes,
    }


def end_to_end(passes, setup_s: float, rss_mb: float, meter) -> dict:
    samples = design_seconds(passes, meter)
    values = {
        "wall_s": statistics.median(pass_seconds(p, meter) for p in passes),
        "design_s.p50": percentile(samples, 50),
        "design_s.p80": percentile(samples, 80),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **passes[0].totals,
    }
    return {name: _metric(name, values[name]) for name, _u, _b in END_TO_END}


def _layer_spans(spans, name: str) -> list[dict]:
    return [s for s in spans if s["kind"] == "layer" and s["name"] == name]


def _layer_key(span) -> str:
    # reachable_set_summary is the relational cross-check only when
    # asked to be; the plain reachability sweep is verify.reachable
    if span["name"] == "verify.relational" \
            and not span["attributes"].get("relational_check"):
        return "verify.reachable"
    return span["name"]


def per_layer(spans, setup_spans, traced, passes, sharded, meter) -> dict:
    """Per-layer metrics of the traced pass (``store.put.*`` from the
    traced set-up, where the store is written; ``shard.*`` from the
    untraced sharded sweep, where the workload has one)."""
    layers = layer_self_times(spans, key=_layer_key)
    put_layers = layer_self_times(setup_spans)

    def busy(name, table=layers):
        entry = table.get(name)
        return entry.busy_s if entry else 0.0

    def calls(name, table=layers):
        entry = table.get(name)
        return entry.calls if entry else 0

    def attr_sum(name, key, source=spans):
        return sum(s["attributes"].get(key) or 0
                   for s in _layer_spans(source, name))

    verifies = _layer_spans(spans, "verify")
    flow_wall = sum(s["duration"] for s in spans if s["kind"] == "flow"
                    and s["name"] == "flow")
    covered = top_layer_seconds(spans, "flow")
    decodes = _layer_spans(spans, "store.decode")
    untraced = [pass_seconds(p, meter) for p in passes]
    values = {
        "verify.busy_s": busy("verify"),
        "verify.oracle_busy_s": busy("verify.oracle"),
        "verify.relational_busy_s": busy("verify.relational"),
        "verify.oracle_runs": sum(1 for s in verifies
                                  if s["attributes"].get("oracle")),
        "verify.fixpoint_busy_s": busy("verify.fixpoint"),
        "verify.pairs": attr_sum("verify", "pairs"),
        "verify.product_states": attr_sum("verify", "product_states"),
        "symbolic.bdd_nodes": attr_sum("verify", "bdd_nodes"),
        "symbolic.ite_hit_rate": statistics.fmean(
            s["attributes"]["ite_hit_rate"] for s in verifies)
        if verifies else 0.0,
        "hls.calls": calls("hls"),
        "hls.busy_s": busy("hls"),
        "flow.area_repairs": traced.area_repairs,
        "hls.useful_frac": traced.fpgas / calls("hls")
        if calls("hls") else 0.0,
        "partition.busy_s": busy("partition"),
        "schedule.list_schedule.calls": calls("schedule.list_schedule"),
        "schedule.list_schedule.busy_s": busy("schedule.list_schedule"),
        "stg.busy_s": busy("stg"),
        "comm.busy_s": busy("comm"),
        "controllers.busy_s": busy("controllers"),
        "codegen.busy_s": busy("codegen"),
        "codegen.care_busy_s": busy("codegen.care"),
        "sim.busy_s": busy("sim"),
        "pipeline.fingerprint.calls": calls("pipeline.fingerprint"),
        "pipeline.fingerprint.busy_s": busy("pipeline.fingerprint"),
        "pipeline.cache.hit_rate": traced.cache_hits / traced.cache_lookups
        if traced.cache_lookups else 0.0,
        "flow.other_s": max(0.0, flow_wall - covered),
        "flow.layer_coverage": covered / flow_wall if flow_wall else 0.0,
        "store.get.calls": calls("store.get"),
        "store.get.busy_s": busy("store.get"),
        "store.get.bytes": attr_sum("store.get", "bytes"),
        "store.decode_busy_s": busy("store.decode"),
        "store.l2_hit_rate": sum(1 for s in decodes
                                 if s["attributes"].get("hit"))
        / len(decodes) if decodes else 0.0,
        "store.quarantined": traced.store_quarantined,
        "store.put.calls": calls("store.put", put_layers),
        "store.put.busy_s": busy("store.put", put_layers),
        "store.put.bytes": attr_sum("store.put", "bytes", setup_spans),
        **shard_values(sharded),
        "trace.overhead_frac": pass_seconds(traced, meter)
        / statistics.median(untraced) - 1.0,
        "repeat.wall_ratio": repeat_ratios(passes, meter)[0],
        "host.raw_wall_s": statistics.median(p.wall_s for p in passes),
        "host.speed": meter.speed(),
    }
    return {name: _metric(name, values[name]) for name, _u, _b in PER_LAYER}


def write_and_render(spans, path: Path) -> str | None:
    """Write the JSONL trace and render it as ``repro.obs report`` does."""
    from repro.obs import load_trace, render_report
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
    loaded = load_trace(path)
    if len(loaded) != len(spans) \
            or "per-stage breakdown" not in render_report(loaded):
        return f"trace {path.name} does not render"
    return None


def print_human(args, metrics, tally, problems, passes, meter) -> None:
    width = max(len(name) for name in metrics)
    raw = statistics.median(p.wall_s for p in passes)
    print(f"coolbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(passes)} untraced pass(es); host at "
          f"{meter.speed():.3f} of nominal speed; raw pass wall {raw:.4f} s")
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    if len(passes) > 1:
        median, slowest = repeat_ratios(passes, meter)
        print(f"  later passes take {median:.3f} (median) and {slowest:.3f} "
              f"(slowest) of the first pass's time (fail when the slowest "
              f"is below {1.0 - REPEAT_TOLERANCE:.2f})")
    samples = sum(len(p.design_s) for p in passes)
    tail = tail_percentile(samples)
    print(f"  design samples: {samples}; highest percentile with ten "
          f"samples beyond: {f'p{tail:g}' if tail else 'none'}")
    print(f"  failed_frac  {tally.failed_frac:.6g} "
          f"({tally.failed}/{tally.attempted} designs)")
    for reason in tally.reasons + problems:
        print(f"  FAIL {reason}")
