"""Verification v3 at suite scale: the symbolic fixpoint tier.

Drives :func:`repro.controllers.verify_composition` over the same
52-design population as ``bench_controller_synthesis`` (50-graph
workload suite + two larger random graphs), plus -- at full suite size
-- the 200/500-node scale designs the explicit tier could never
materialize, and persists the numbers to
``BENCH_verify_composition.json`` at the repo root:

* ``symbolic`` -- the default tier, the one proof a flow run makes
  (no oracle runs on that path): how many designs were *proved*
  trace-equivalent to their minimized STG under every admissible
  environment and every stream length (restart loop included), step
  system sizes, determinized pair counts, per-design timings for the
  five slowest proofs, and wall-clock.
* ``explicit_crosscheck`` -- the first oracle: every suite design goes
  through ``strategy="exhaustive"`` (the materialized bounded product)
  and its verdict must be identical to the symbolic one.  Its
  wall-clock is the baseline the headline speedup is measured against.
* ``relational_crosscheck`` -- the second oracle: every suite design's
  reachable sets are re-derived by relational BDD image iteration
  (``symbolic_trace_equivalence(..., relational_check=True)``), which
  raises on a disagreement with the enumerated sets; the re-run
  fixpoint must also return the symbolic verdict and pair count.
* ``scale`` -- the designs beyond the explicit tier's reach: 200- and
  500-node random task graphs proved by the unbounded symbolic tier
  alone (tens of thousands of product states, > ``max_states``).
* ``tiers`` -- per-tier design counts over everything verified.  A
  design falling back to sampling is a regression: the symbolic tier
  has no state bound, so coverage is gated at 1.0.
* ``sampled_baseline`` -- the environment-sampling tier forced on
  every suite design (the cost floor).

The functional gates always apply: every design equivalent under every
strategy, symbolic and explicit verdicts identical, every suite design
re-derived relationally in agreement, zero fallbacks.
The timing gates -- the ``random_80_80`` symbolic proof at least 3x
faster than the committed explicit baseline, and a >= 500-node design
proved -- run only at full suite size, like the other benches
(millisecond timings on shared CI runners are noise).

Runs under pytest-benchmark or standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_verify_composition.py --graphs 8
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from bench_controller_synthesis import _suite_designs
from repro.automata import AutomataError, symbolic_trace_equivalence
from repro.controllers import synthesize_system_controller, verify_composition
from repro.controllers.verify import (DEFAULT_MAX_PRODUCT_STATES,
                                      _symbolic_inputs)
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import cool_board
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg
from repro.workloads import scale_suite

RESULTS_PATH = Path(__file__).resolve().parents[1] / \
    "BENCH_verify_composition.json"

DEFAULT_GRAPHS = 50
SUITE_SEED = 7
#: Beyond-``max_states`` designs the symbolic tier must prove alone;
#: they join the run at full suite size only (the 500-node proof walks
#: ~65k product states -- minutes, not CI-smoke material).
LARGE_SCALE_SIZES = (200, 500)
#: The committed explicit-tier wall-clock for ``random_80_80`` (the
#: pre-symbolic BENCH baseline) and the speedup the symbolic fixpoint
#: must hold against it.
EXPLICIT_80_BASELINE_S = 4.692301
MIN_80_SPEEDUP = 3.0
#: Per-design slow list depth persisted in the JSON.
SLOWEST_KEPT = 5
#: Fraction of the suite the symbolic tier must actually prove.  It
#: has no state bound, so any fallback to sampling is a regression.
MIN_SYMBOLIC_COVERAGE = 1.0


def _scale_designs(sizes):
    """(graph, schedule) for the beyond-max_states scale-suite specs.

    Same spread-the-board random mapping as the scale graphs of
    ``bench_controller_synthesis`` -- maximal parallelism across the
    COOL board's units is what drives the reachable product past
    ``max_states``.
    """
    if not sizes:  # small smoke runs skip the scale suite
        return []
    big = cool_board()
    designs = []
    for spec in scale_suite(sizes):
        graph = spec.build()
        rng = random.Random(spec.nodes)
        mapping = {node.name: rng.choice(big.resource_names)
                   for node in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, big.fpga_names,
                                 big.processor_names)
        designs.append((graph, list_schedule(partition,
                                             CostModel(graph, big))))
    return designs


def _prepare(designs):
    return [(graph, *_stg_and_controller(schedule))
            for graph, schedule in designs]


def _stg_and_controller(schedule):
    mini, _ = minimize_stg(build_stg(schedule))
    return mini, synthesize_system_controller(mini)


def _timed_checks(prepared, strategy, max_states):
    out = []
    for graph, mini, controller in prepared:
        started = time.perf_counter()
        check = verify_composition(mini, controller, graph=graph,
                                   max_states=max_states,
                                   strategy=strategy)
        out.append((graph.name, check, time.perf_counter() - started))
    return out


def _relational_agrees(mini, controller, check) -> bool:
    """Does the relational re-derivation confirm the symbolic proof?"""
    reference, product, classes = _symbolic_inputs(mini, controller)
    try:
        result = symbolic_trace_equivalence(reference, product, classes,
                                            relational_check=True)
    except AutomataError:
        return False
    return (result.image_iterations > 0
            and result.pairs_checked == check.pairs_checked
            and result.equivalent == check.equivalent)


def measure(n_graphs: int = DEFAULT_GRAPHS, seed: int = SUITE_SEED,
            max_states: int = DEFAULT_MAX_PRODUCT_STATES,
            scale_sizes: tuple = ()) -> dict:
    prepared = _prepare(_suite_designs(n_graphs, seed))
    scale_prepared = _prepare(_scale_designs(scale_sizes))

    symbolic_started = time.perf_counter()
    per_design = _timed_checks(prepared, "symbolic", max_states)
    symbolic_total_s = time.perf_counter() - symbolic_started

    explicit = _timed_checks(prepared, "exhaustive", max_states)
    explicit_s = sum(seconds for _, _, seconds in explicit)
    agreeing = sum(a.equivalent == b.equivalent
                   for (_, a, _), (_, b, _) in zip(per_design, explicit))

    relational_started = time.perf_counter()
    relational_agreeing = sum(
        _relational_agrees(mini, controller, check)
        for (_, mini, controller), (_, check, _) in zip(prepared,
                                                        per_design))
    relational_s = time.perf_counter() - relational_started

    scale_per_design = _timed_checks(scale_prepared, "symbolic",
                                     max_states)

    sampled_started = time.perf_counter()
    sampled_checks = [verify_composition(mini, controller, graph=graph,
                                         strategy="sampled")
                      for graph, mini, controller in prepared]
    sampled_s = time.perf_counter() - sampled_started

    proved = [(name, check, seconds) for name, check, seconds in per_design
              if check.tier == "symbolic"]
    fallbacks = [(name, check) for name, check, _ in per_design
                 if check.tier == "sampled"]
    symbolic_s = sum(seconds for _, _, seconds in proved)
    slowest = sorted(proved, key=lambda entry: entry[2],
                     reverse=True)[:SLOWEST_KEPT]
    seconds_of = {name: seconds for name, _, seconds in per_design}
    explicit_seconds_of = {name: seconds for name, _, seconds in explicit}
    tier_counts: dict = {}
    for _, check, _ in per_design + scale_per_design:
        tier_counts[check.tier] = tier_counts.get(check.tier, 0) + 1
    return {
        "suite": {
            "graphs": len(prepared),
            "workload_graphs": n_graphs,
            "seed": seed,
            "max_states": max_states,
            "scale_sizes": list(scale_sizes),
        },
        "symbolic": {
            "proved": len(proved),
            "equivalent": sum(check.equivalent
                              for _, check, _ in proved),
            "verify_s": round(symbolic_s, 6),
            "product_states": sum(check.product_states
                                  for _, check, _ in proved),
            "largest_product": max((check.product_states
                                    for _, check, _ in proved), default=0),
            "projections": sum(check.projections_checked
                               for _, check, _ in proved),
            "pairs_checked": sum(check.pairs_checked
                                 for _, check, _ in proved),
            "starts_checked": sum(check.starts_checked
                                  for _, check, _ in proved),
            "slowest_designs": [{
                "name": name,
                "seconds": round(seconds, 6),
                "product_states": check.product_states,
                "pairs_checked": check.pairs_checked,
            } for name, check, seconds in slowest],
        },
        "tiers": tier_counts,
        "explicit_crosscheck": {
            "designs": len(explicit),
            "agreeing": agreeing,
            "verify_s": round(explicit_s, 6),
            "random_80_80": None if "random_80_80" not in seconds_of else {
                "symbolic_s": round(seconds_of["random_80_80"], 6),
                "explicit_s": round(
                    explicit_seconds_of["random_80_80"], 6),
                "baseline_s": EXPLICIT_80_BASELINE_S,
                "speedup_x": round(
                    EXPLICIT_80_BASELINE_S / seconds_of["random_80_80"], 2),
            },
        },
        "relational_crosscheck": {
            "designs": len(prepared),
            "agreeing": relational_agreeing,
            "verify_s": round(relational_s, 6),
        },
        "scale": {
            "designs": [{
                "name": name,
                "seconds": round(seconds, 6),
                "tier": check.tier,
                "equivalent": check.equivalent,
                "product_states": check.product_states,
                "pairs_checked": check.pairs_checked,
                "projections": check.projections_checked,
                "bdd_nodes": check.bdd_nodes,
                "bdd_ite_hit_rate": check.bdd_ite_hit_rate,
            } for name, check, seconds in scale_per_design],
            "largest_proved_states": max(
                (check.product_states for _, check, _ in scale_per_design
                 if check.tier == "symbolic" and check.equivalent),
                default=0),
        },
        "fallback": {
            "designs": len(fallbacks),
            "all_reasons_recorded": all(check.fallback_reason
                                        for _, check in fallbacks),
            "equivalent": sum(check.equivalent for _, check in fallbacks),
            "names": sorted(name for name, _ in fallbacks),
        },
        "sampled_baseline": {
            "verify_s": round(sampled_s, 6),
            "equivalent": sum(check.equivalent
                              for check in sampled_checks),
            "designs": len(sampled_checks),
            "environments": sampled_checks[0].environments
            if sampled_checks else 0,
            "activations": sampled_checks[0].activations
            if sampled_checks else 0,
        },
        "symbolic_total_s": round(symbolic_total_s, 6),
    }


def check(payload: dict, timing_margin: float | None = 1.0) -> None:
    """The verification-v3 gate (shared by pytest and the CLI).

    ``timing_margin=None`` skips the wall-clock and scale gates (CI
    smoke on shared runners); the functional gates always apply.
    """
    symbolic = payload["symbolic"]
    crosscheck = payload["explicit_crosscheck"]
    relational = payload["relational_crosscheck"]
    fallback = payload["fallback"]
    sampled = payload["sampled_baseline"]
    scale = payload["scale"]
    designs = payload["suite"]["graphs"]

    assert symbolic["equivalent"] == symbolic["proved"], \
        "a symbolic-tier design failed the equivalence proof"
    assert fallback["designs"] == 0, \
        (f"the unbounded symbolic tier fell back to sampling on "
         f"{fallback['names']}")
    assert sampled["equivalent"] == sampled["designs"], \
        "a design failed the forced sampled tier"
    assert symbolic["proved"] + fallback["designs"] == designs
    assert symbolic["proved"] >= MIN_SYMBOLIC_COVERAGE * designs, \
        (f"symbolic tier only covered {symbolic['proved']}/{designs} "
         f"designs (min {MIN_SYMBOLIC_COVERAGE:.0%})")
    assert crosscheck["agreeing"] == crosscheck["designs"] == designs, \
        "symbolic and explicit tiers disagree on a suite verdict"
    assert relational["agreeing"] == relational["designs"] == designs, \
        "the relational re-derivation disagrees on a suite design"
    for entry in scale["designs"]:
        assert entry["tier"] == "symbolic" and entry["equivalent"], \
            f"scale design {entry['name']} not proved symbolically"
    if timing_margin is not None:
        assert scale["largest_proved_states"] > \
            payload["suite"]["max_states"], \
            "no beyond-max_states design proved at full suite size"
        assert max(entry["product_states"] for entry in scale["designs"]) \
            >= 50_000, "the 500-node scale design is missing"
        speed = crosscheck["random_80_80"]
        assert speed is not None, "random_80_80 missing from the suite"
        budget = EXPLICIT_80_BASELINE_S / MIN_80_SPEEDUP * timing_margin
        assert speed["symbolic_s"] <= budget, \
            (f"random_80_80 symbolic proof ({speed['symbolic_s']}s) lost "
             f"the {MIN_80_SPEEDUP}x speedup vs the explicit baseline "
             f"({EXPLICIT_80_BASELINE_S}s)")


def report(payload: dict) -> str:
    suite = payload["suite"]
    symbolic = payload["symbolic"]
    crosscheck = payload["explicit_crosscheck"]
    relational = payload["relational_crosscheck"]
    fallback = payload["fallback"]
    sampled = payload["sampled_baseline"]
    lines = ["Verification v3 -- symbolic fixpoint tier at suite scale:"]
    lines.append(f"  suite               : {suite['graphs']} designs "
                 f"+ {len(payload['scale']['designs'])} scale "
                 f"(explicit max_states {suite['max_states']})")
    lines.append(f"  symbolic tier       : {symbolic['proved']} proved in "
                 f"{symbolic['verify_s'] * 1e3:8.1f} ms "
                 f"({symbolic['product_states']} product states, "
                 f"{symbolic['pairs_checked']} pairs, "
                 f"{symbolic['projections']} projections)")
    for entry in symbolic["slowest_designs"]:
        lines.append(f"    slow proof        : {entry['name']} "
                     f"({entry['seconds'] * 1e3:.1f} ms, "
                     f"{entry['product_states']} states, "
                     f"{entry['pairs_checked']} pairs)")
    lines.append(f"  explicit crosscheck : {crosscheck['agreeing']}/"
                 f"{crosscheck['designs']} verdicts identical in "
                 f"{crosscheck['verify_s'] * 1e3:8.1f} ms")
    lines.append(f"  relational check    : {relational['agreeing']}/"
                 f"{relational['designs']} reachable sets re-derived in "
                 f"{relational['verify_s'] * 1e3:8.1f} ms")
    if crosscheck["random_80_80"]:
        speed = crosscheck["random_80_80"]
        lines.append(f"  random_80_80        : {speed['symbolic_s']}s "
                     f"symbolic vs {speed['baseline_s']}s committed "
                     f"explicit ({speed['speedup_x']}x)")
    for entry in payload["scale"]["designs"]:
        lines.append(f"  scale proof         : {entry['name']} "
                     f"({entry['seconds']:.1f} s, "
                     f"{entry['product_states']} states, "
                     f"{entry['pairs_checked']} pairs, "
                     f"{entry['bdd_nodes']} BDD nodes)")
    lines.append(f"  tiers               : {payload['tiers']} "
                 f"(fallbacks {fallback['designs']})")
    lines.append(f"  sampled baseline    : {sampled['designs']} designs in "
                 f"{sampled['verify_s'] * 1e3:8.1f} ms "
                 f"({sampled['environments']} environments x "
                 f"{sampled['activations']} activations)")
    return "\n".join(lines)


def test_verify_composition_benchmark(benchmark, run_once):
    payload = run_once(benchmark, measure)
    assert payload["suite"]["workload_graphs"] >= 50
    check(payload, timing_margin=None)
    print("\n" + report(payload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Symbolic composition verification at suite scale")
    parser.add_argument("--graphs", type=int, default=DEFAULT_GRAPHS,
                        help="workload suite size (default %(default)s)")
    parser.add_argument("--seed", type=int, default=SUITE_SEED,
                        help="suite seed (default %(default)s)")
    parser.add_argument("--max-states", type=int,
                        default=DEFAULT_MAX_PRODUCT_STATES,
                        help="explicit-tier product bound "
                             "(default %(default)s)")
    parser.add_argument("--no-scale", action="store_true",
                        help="skip the 200/500-node scale proofs even at "
                             "full suite size")
    parser.add_argument("--no-write", action="store_true",
                        help="skip writing BENCH_verify_composition.json "
                             "(CI smoke runs)")
    args = parser.parse_args(argv)
    full = args.graphs >= DEFAULT_GRAPHS
    scale_sizes = LARGE_SCALE_SIZES if full and not args.no_scale else ()
    payload = measure(args.graphs, args.seed, args.max_states,
                      scale_sizes=scale_sizes)
    check(payload, timing_margin=1.0 if scale_sizes else None)
    if not args.no_write:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(report(payload))
    if not args.no_write:
        print(f"  results -> {RESULTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
