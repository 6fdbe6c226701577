"""Tests for verified composition: product-of-controllers ≡ minimized STG.

Covers the tiered checker on the bundled apps (the unbounded symbolic
fixpoint tier as default, environment sampling as recorded fallback),
the ``verify`` pipeline stage (FlowResult exposure + fingerprint
caching + tier configuration) and the detector's teeth: a tampered
controller must be caught by *every* tier, with a concrete
distinguishing trace from the symbolic one.  The two oracles the flow
no longer runs -- the explicit weak-bisimulation tier and the
relational image re-derivation of the reachable sets -- are checked
against the symbolic verdict here, on the bundled apps, the tampered
controller and guard-simplified suite designs.
"""

import types

import pytest

from repro.apps import dct_stage, four_band_equalizer, fuzzy_controller
from repro.automata import AutomataError, symbolic_trace_equivalence
from repro.controllers import (Fsm, SystemController,
                               simplify_controller_guards,
                               synthesize_system_controller,
                               verify_composition)
from repro.controllers.verify import (_dependency_violations,
                                      _multiset_diff, _symbolic_inputs)
from repro.estimate import CostModel
from repro.flow import CoolFlow
from repro.graph import from_mapping
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import cool_board, minimal_board
from repro.schedule import list_schedule
from repro.stg import (StateKind, Stg, StgState, StgTransition, build_stg,
                       minimize_stg)
from repro.workloads import workload_suite


def implementation(graph, arch, hw_nodes=()):
    mapping = {}
    for node in graph.internal_nodes():
        mapping[node.name] = arch.fpga_names[0] if node.name in hw_nodes \
            else arch.processor_names[0]
    partition = from_mapping(graph, mapping, arch.fpga_names,
                             arch.processor_names)
    schedule = list_schedule(partition, CostModel(graph, arch))
    mini, _ = minimize_stg(build_stg(schedule))
    return graph, mini, synthesize_system_controller(mini)


def tamper(controller):
    """Drop the first ``start_*`` action of one sequencer."""
    resource, sequencer = next((r, f)
                               for r, f in controller.sequencers.items()
                               if any(a.startswith("start_")
                                      for a in f.outputs))
    tampered = Fsm(sequencer.name)
    for state in sequencer.states:
        tampered.add_state(state,
                           sequencer.state_outputs.get(state, ()))
    tampered.initial = sequencer.initial
    dropped = False
    for t in sequencer.transitions:
        actions = t.actions
        if not dropped and any(a.startswith("start_") for a in actions):
            actions = tuple(a for a in actions
                            if not a.startswith("start_"))
            dropped = True
        tampered.add_transition(t.src, t.dst, t.conditions, actions)
    assert dropped
    return SystemController(
        controller.name, controller.phase_fsm,
        {**controller.sequencers, resource: tampered},
        controller.done_flags)


BUNDLED = [
    (four_band_equalizer(words=8), minimal_board(), ("band0", "gain0")),
    (fuzzy_controller(), cool_board(), ("fz_e", "defuzz")),
    (dct_stage(), minimal_board(), ("s0", "s1")),
]


class TestSymbolicTier:
    @pytest.mark.parametrize("graph,arch,hw", BUNDLED,
                             ids=lambda value: getattr(value, "name", None))
    def test_bundled_apps_proved_equivalent(self, graph, arch, hw):
        graph, mini, controller = implementation(graph, arch, hw)
        check = verify_composition(mini, controller, graph=graph)
        assert check.equivalent, check.mismatches
        assert check.tier == "symbolic"
        assert check.fallback_reason is None
        # one proof per run: no oracle, no relational re-derivation
        assert check.oracle is None
        assert check.image_iterations == 0
        assert check.bdd_nodes > 0
        assert check.bdd_unique_table > 0
        assert 0.0 <= check.bdd_ite_hit_rate <= 1.0
        assert check.pairs_checked > 0
        # one projection per processing unit plus one per memory command
        assert check.projections_checked > len(controller.sequencers)
        assert check.product_states > len(controller.phase_fsm.states)
        assert check.reference_states > len(controller.phase_fsm.states)
        assert check.composite_configurations == check.product_states
        assert check.starts_checked >= len(graph.nodes)

    def test_restart_loop_is_part_of_the_product(self):
        from repro.controllers.verify import (controller_product_automaton,
                                              stg_step_automaton)
        _, mini, controller = implementation(*BUNDLED[0])
        for automaton in (controller_product_automaton(controller, 4000),
                          stg_step_automaton(mini, 4000)):
            restart = automaton.symbols.id_of("restart")
            assert restart is not None, automaton.name
            loops = [t for t in automaton.transitions
                     if restart in t.conditions]
            assert loops, f"{automaton.name} has no restart edge"

    def test_tampered_controller_fails_every_tier(self):
        graph, mini, controller = implementation(*BUNDLED[0])
        tampered = tamper(controller)
        # the default symbolic tier, with a concrete shortest
        # distinguishing trace in ?letter/!action form
        check = verify_composition(mini, tampered, graph=graph)
        assert check.tier == "symbolic"
        assert not check.equivalent
        trace_mismatches = [m for m in check.mismatches
                            if "not weakly trace-equivalent" in m]
        assert trace_mismatches
        assert any("trace " in m and " is possible only in " in m
                   for m in trace_mismatches)
        assert any("!start_" in m for m in trace_mismatches)
        # explicit bisimulation tier independently
        check = verify_composition(mini, tampered, graph=graph,
                                   strategy="exhaustive")
        assert check.tier == "bisimulation"
        assert not check.equivalent
        assert any("not weakly bisimilar" in m for m in check.mismatches)

    def test_unminimized_stg_also_equivalent(self):
        graph = four_band_equalizer(words=8)
        mapping = {n.name: minimal_board().processor_names[0]
                   for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping,
                                 minimal_board().fpga_names,
                                 minimal_board().processor_names)
        schedule = list_schedule(partition,
                                 CostModel(graph, minimal_board()))
        stg = build_stg(schedule)
        controller = synthesize_system_controller(stg)
        check = verify_composition(stg, controller, graph=graph)
        assert check.equivalent, check.mismatches
        assert check.tier == "symbolic"

    def test_max_states_no_longer_limits_the_default_tier(self):
        # the symbolic tier is unbounded: a max_states far below the
        # reachable product must still produce a symbolic proof (the
        # bound only reaches the explicit tier)
        graph, mini, controller = implementation(*BUNDLED[0])
        check = verify_composition(mini, controller, graph=graph,
                                   max_states=5)
        assert check.tier == "symbolic"
        assert check.equivalent, check.mismatches
        assert check.fallback_reason is None
        assert check.oracle is None

    def test_fixpoint_blowup_falls_back_with_reason(self, monkeypatch):
        # the sampled fallback survives for symbolic-tier failures: a
        # violated determinacy contract (simulated by shrinking the
        # pair-fixpoint safety valve) must land on the sampled tier
        # with the reason recorded
        import repro.automata.symbolic as symbolic
        graph, mini, controller = implementation(*BUNDLED[0])
        monkeypatch.setattr(symbolic, "MAX_PAIR_FIXPOINT", 1)
        check = verify_composition(mini, controller, graph=graph)
        assert check.tier == "sampled"
        assert check.equivalent
        assert "pair fixpoint exceeds" in check.fallback_reason

    def test_strict_strategies_refuse_to_fall_back(self):
        # the explicit tier is the one strict strategy: past its state
        # bound it raises instead of sampling (the symbolic tier always
        # records its fallback, see the test above)
        _, mini, controller = implementation(*BUNDLED[0])
        with pytest.raises(AutomataError):
            verify_composition(mini, controller, max_states=5,
                               strategy="exhaustive")

    def test_mirrored_deadlock_detected(self):
        # an STG stuck behind an unsatisfiable guard, faithfully
        # mirrored by its controller: every projection is bisimilar
        # (both sides deadlock identically), so completion must be
        # checked structurally -- no restart-admissible configuration
        stg = Stg("deadlock")
        stg.add_state(StgState("R", StateKind.GLOBAL_RESET))
        stg.add_state(StgState("X", StateKind.GLOBAL_EXEC))
        stg.add_state(StgState("D", StateKind.GLOBAL_DONE))
        stg.add_state(StgState("r_sw", StateKind.RESET, resource="sw"))
        stg.add_state(StgState("w_a", StateKind.WAIT, node="a",
                               resource="sw"))
        stg.add_state(StgState("x_a", StateKind.EXEC, node="a",
                               resource="sw"))
        stg.add_state(StgState("d_a", StateKind.DONE, node="a",
                               resource="sw"))
        stg.initial = "R"
        stg.add_transition(StgTransition("R", "r_sw",
                                         actions=("reset_sw",)))
        stg.add_transition(StgTransition("r_sw", "X"))
        stg.add_transition(StgTransition("X", "w_a"))
        # 'ghost' never starts, so done_ghost is never admissible
        stg.add_transition(StgTransition("w_a", "x_a",
                                         conditions=("done_ghost",),
                                         actions=("start_a",)))
        stg.add_transition(StgTransition("x_a", "d_a",
                                         conditions=("done_a",)))
        stg.add_transition(StgTransition("d_a", "D"))
        controller = synthesize_system_controller(stg)
        check = verify_composition(stg, controller)
        assert check.tier == "symbolic"
        assert not check.equivalent
        assert sum("never completes an activation" in m
                   for m in check.mismatches) == 2
        # the explicit tier sees the same structural deadlock
        explicit = verify_composition(stg, controller,
                                      strategy="exhaustive")
        assert not explicit.equivalent
        assert sum("never completes an activation" in m
                   for m in explicit.mismatches) == 2

    def test_schedule_sanity_catches_a_mirrored_dependency_bug(self):
        # bisimulation alone cannot see a schedule bug both sides
        # mirror faithfully: with a (fabricated) reversed dependency
        # the STG's own trace must fail the task-graph sanity check
        # even though controllers ≡ STG holds
        graph, mini, controller = implementation(*BUNDLED[0])
        reversed_edge = types.SimpleNamespace(
            edges=[types.SimpleNamespace(src="gain0", dst="band0")])
        check = verify_composition(mini, controller, graph=reversed_edge)
        assert check.tier == "symbolic"
        assert not check.equivalent
        assert any("schedule sanity" in m for m in check.mismatches)

    def test_bad_arguments_rejected(self):
        _, mini, controller = implementation(*BUNDLED[0])
        with pytest.raises(ValueError):
            verify_composition(mini, controller, strategy="guess")
        # the oracle-running default is gone, not aliased
        with pytest.raises(ValueError, match="unknown verification"):
            verify_composition(mini, controller, strategy="auto")
        with pytest.raises(ValueError):
            verify_composition(mini, controller, activations=0)


def _bundled(index, tampered=False):
    def build():
        graph, mini, controller = implementation(*BUNDLED[index])
        return graph, mini, tamper(controller) if tampered else controller
    return build


def _guard_simplified(spec):
    """A ``tests/test_guard_simplify.py`` suite design, guards reduced."""
    def build():
        graph = spec.build()
        result = GreedyPartitioner().partition(
            PartitioningProblem(graph, minimal_board()))
        stg, _ = minimize_stg(build_stg(result.schedule))
        simplified, stats = simplify_controller_guards(
            synthesize_system_controller(stg))
        assert stats["simplified"]
        return graph, stg, simplified
    return build


#: The oracles' coverage: the bundled apps, the tampered controller and
#: the guard-simplified designs of the guard-simplification tests.
DIFFERENTIAL = [
    *((f"bundled-{graph.name}", _bundled(index))
      for index, (graph, _arch, _hw) in enumerate(BUNDLED)),
    (f"tampered-{BUNDLED[0][0].name}", _bundled(0, tampered=True)),
    *((f"guards-{spec.family}-{spec.seed}", _guard_simplified(spec))
      for spec in workload_suite(20, seed=5)[:6]),
]


class TestOracles:
    """The symbolic verdict against both reference implementations."""

    @pytest.mark.parametrize("build", [build for _, build in DIFFERENTIAL],
                             ids=[name for name, _ in DIFFERENTIAL])
    def test_symbolic_verdict_matches_both_oracles(self, build):
        graph, stg, controller = build()
        symbolic = verify_composition(stg, controller, graph=graph,
                                      strategy="symbolic")
        explicit = verify_composition(stg, controller, graph=graph,
                                      strategy="exhaustive")
        assert symbolic.tier == "symbolic"
        assert explicit.tier == "bisimulation"
        assert symbolic.equivalent == explicit.equivalent, \
            (symbolic.mismatches, explicit.mismatches)
        assert symbolic.product_states == explicit.product_states
        # the relational image iteration re-derives both reachable sets
        # from per-letter transition BDDs (it raises on disagreement)
        reference, product, classes = _symbolic_inputs(stg, controller)
        relational = symbolic_trace_equivalence(reference, product,
                                                classes,
                                                relational_check=True)
        assert relational.image_iterations > 0
        assert 0.0 < relational.bdd_stats["ite_hit_rate"] <= 1.0
        assert relational.pairs_checked == symbolic.pairs_checked
        if symbolic.equivalent:
            assert relational.equivalent


class TestSampledTier:
    def test_streams_activations_through_restart(self):
        graph, mini, controller = implementation(*BUNDLED[0])
        check = verify_composition(mini, controller, graph=graph,
                                   strategy="sampled", activations=3)
        assert check.equivalent, check.mismatches
        assert check.tier == "sampled"
        assert check.environments == 3
        assert check.activations == 3
        # every activation of every environment checks every start
        assert check.starts_checked >= 3 * 3 * len(graph.nodes)
        assert check.fallback_reason is None

    def test_tampered_controller_detected(self):
        graph, mini, controller = implementation(*BUNDLED[0])
        check = verify_composition(mini, tamper(controller), graph=graph,
                                   strategy="sampled")
        assert not check.equivalent
        assert check.mismatches

    def test_restart_cycle_emissions_are_not_a_blind_spot(self):
        # a command emitted during the restart cycle itself must land
        # in the next activation's trace, not vanish between traces
        graph, mini, controller = implementation(*BUNDLED[0])
        phase = controller.phase_fsm
        noisy = Fsm(phase.name)
        for state in phase.states:
            noisy.add_state(state, phase.state_outputs.get(state, ()))
        noisy.initial = phase.initial
        for t in phase.transitions:
            actions = t.actions
            if "restart" in t.conditions:
                actions = actions + ("write_spurious",)
            noisy.add_transition(t.src, t.dst, t.conditions, actions)
        broken = SystemController(controller.name, noisy,
                                  controller.sequencers,
                                  controller.done_flags)
        check = verify_composition(mini, broken, graph=graph,
                                   strategy="sampled")
        assert not check.equivalent
        assert any("write_spurious" in m for m in check.mismatches)

    def test_summary_round_trips_tier_fields(self):
        graph, mini, controller = implementation(*BUNDLED[0])
        summary = verify_composition(mini, controller, graph=graph,
                                     strategy="sampled").summary()
        assert summary["tier"] == "sampled"
        assert summary["activations"] == 2
        assert summary["fallback_reason"] is None


class TestTraceCheckHelpers:
    def test_multiset_diff_sees_multiplicities(self):
        # equal action *sets*, different multiplicities: the old set
        # symmetric difference reported nothing here
        reference = ["start_a", "start_a", "write_e"]
        candidate = ["start_a", "write_e", "write_e"]
        message = _multiset_diff(reference, candidate)
        assert "'write_e': 1" in message
        assert "'start_a': 1" in message
        assert "surplus" in message and "missing" in message

    def test_dependency_anchor_is_first_occurrence(self):
        edges = [types.SimpleNamespace(src="a", dst="b")]
        # replayed start of 'b': the *first* one ran before its
        # producer -- a last-occurrence anchor would miss it
        actions = ["start_b", "start_a", "start_b"]
        assert _dependency_violations(actions, edges) == [("a", "b")]
        assert _dependency_violations(
            ["start_a", "start_b", "start_b"], edges) == []

    def test_dependency_missing_producer_flagged(self):
        edges = [types.SimpleNamespace(src="a", dst="b")]
        assert _dependency_violations(["start_b"], edges) == [("a", "b")]
        assert _dependency_violations([], edges) == []


class TestVerifyFlowStage:
    @pytest.fixture(scope="class")
    def flow_and_result(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner())
        return flow, graph, flow.run(graph)

    def test_composition_check_exposed(self, flow_and_result):
        _, _, result = flow_and_result
        assert result.composition_check is not None
        assert result.composition_check.equivalent
        assert result.composition_check.tier == "symbolic"
        assert result.stage_runs.get("verify") == 1
        assert "verify" in result.stage_seconds

    def test_report_mentions_verification(self, flow_and_result):
        _, _, result = flow_and_result
        assert "verified composition" in result.report()
        assert "symbolic fixpoint" in result.report()
        assert "BDD nodes" in result.report()
        assert "oracle" not in result.report()

    def test_stage_is_fingerprint_cached(self, flow_and_result):
        flow, graph, _ = flow_and_result
        warm = flow.run(graph)
        assert warm.composition_check is not None
        assert warm.composition_check.equivalent
        assert warm.stage_runs.get("verify", 0) == 0

    def test_tier_options_are_part_of_the_stage_key(self, flow_and_result):
        flow, graph, _ = flow_and_result
        sampled_flow = CoolFlow(minimal_board(),
                                partitioner=GreedyPartitioner(),
                                stage_cache=flow.stage_cache,
                                verify_strategy="sampled")
        result = sampled_flow.run(graph)
        # same upstream artifacts, different verify options: only the
        # verify stage re-runs and the sampled tier produces the verdict
        assert result.stage_runs.get("verify") == 1
        assert result.stage_runs.get("controllers", 0) == 0
        assert result.composition_check.tier == "sampled"
        assert "sampled" in result.report()

    def test_explicit_bound_is_not_part_of_the_codegen_key(
            self, flow_and_result):
        # verify_max_states only reaches the explicit tier: a flow that
        # differs in it alone re-runs verify, never codegen
        flow, graph, _ = flow_and_result
        bounded_flow = CoolFlow(minimal_board(),
                                partitioner=GreedyPartitioner(),
                                stage_cache=flow.stage_cache,
                                verify_max_states=5)
        result = bounded_flow.run(graph)
        assert result.stage_runs.get("verify") == 1
        assert result.stage_runs["codegen"] == 0
        assert result.composition_check.tier == "symbolic"
        assert result.composition_check.equivalent

    def test_default_flow_never_reaches_an_oracle(self, monkeypatch):
        import repro.automata.symbolic as symbolic
        import repro.controllers.verify as verify

        def forbidden(*args, **kwargs):
            raise AssertionError("the explicit oracle ran on the flow")

        summary = symbolic.reachable_set_summary

        def enumerated_only(engine, system, relational_check=False):
            assert not relational_check, "the relational oracle ran"
            return summary(engine, system)

        monkeypatch.setattr(verify, "_verify_exhaustive", forbidden)
        monkeypatch.setattr(symbolic, "reachable_set_summary",
                            enumerated_only)
        graph = workload_suite(1, seed=11)[0].build()
        result = CoolFlow(minimal_board(),
                          partitioner=GreedyPartitioner()).run(graph)
        check = result.composition_check
        assert check.tier == "symbolic"
        assert check.equivalent, check.mismatches
        assert check.oracle is None
        assert check.image_iterations == 0

    def test_opt_out(self):
        graph = four_band_equalizer(words=8)
        flow = CoolFlow(minimal_board(), partitioner=GreedyPartitioner(),
                        verify_composition=False)
        result = flow.run(graph)
        assert result.composition_check is None
        assert result.stage_runs.get("verify", 0) == 0


class TestObservableClassDeterminism:
    """Pin: the symbolic verdict must not depend on hash order.

    ``_observable_classes`` seeds its per-unit classes from the distinct
    resource names, and the greedy packing of memory commands runs over
    the resulting class list -- if unordered-set iteration ever escaped
    into that list (the site at verify.py previously iterated
    ``set(resource_of.values())`` unsorted), two hosts could check and
    label different projections.  Downstream, the symbolic tier's
    interleaved variable order, pair-fixpoint exploration and BDD
    construction must be equally hash-independent: the pinned evidence
    is the full stats row of a symbolic run (pairs explored per class,
    engine node/unique-table counts, reachable-set BDD sizes).
    Computing all of it under two different ``PYTHONHASHSEED`` values
    must give identical results.
    """

    SCRIPT = """
import json
from repro.apps import four_band_equalizer
from repro.controllers import synthesize_system_controller
from repro.controllers.verify import (_node_resources, _observable_classes,
                                      _system_alphabet,
                                      controller_step_system,
                                      stg_step_system)
from repro.automata import symbolic_trace_equivalence
from repro.estimate import CostModel
from repro.graph import from_mapping
from repro.platform import minimal_board
from repro.schedule import list_schedule
from repro.stg import build_stg, minimize_stg

graph, arch = four_band_equalizer(words=8), minimal_board()
mapping = {node.name: arch.fpga_names[0]
           if node.name in ("band0", "gain0") else arch.processor_names[0]
           for node in graph.internal_nodes()}
partition = from_mapping(graph, mapping, arch.fpga_names,
                         arch.processor_names)
schedule = list_schedule(partition, CostModel(graph, arch))
mini, _ = minimize_stg(build_stg(schedule))
controller = synthesize_system_controller(mini)
product = controller_step_system(controller)
reference = stg_step_system(mini)
reference.expand_all()
actions, bursts = _system_alphabet((reference, product))
classes = _observable_classes(actions, bursts, _node_resources(controller))
result = symbolic_trace_equivalence(reference, product, classes,
                                    relational_check=True)
print(json.dumps({
    "classes": [[label, sorted(members)] for label, members in classes],
    "equivalent": result.equivalent,
    "pairs": [[v.label, v.pairs] for v in result.verdicts],
    "states": [result.left_states, result.right_states],
    "image_iterations": result.image_iterations,
    "bdd": {key: value for key, value in sorted(result.bdd_stats.items())
            if key != "ite_hit_rate"},
    "ite_hit_rate": round(result.bdd_stats["ite_hit_rate"], 9),
}))
"""

    def _classes_under_hash_seed(self, seed):
        import os
        import subprocess
        import sys
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep \
            + env.get("PYTHONPATH", "")
        completed = subprocess.run([sys.executable, "-c", self.SCRIPT],
                                   env=env, capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        import json
        return json.loads(completed.stdout)

    def test_symbolic_run_identical_across_hash_seeds(self):
        first = self._classes_under_hash_seed(0)
        second = self._classes_under_hash_seed(4242)
        assert first == second
        assert first["equivalent"]
        assert len(first["classes"]) > 1  # the partition is non-trivial
        assert first["image_iterations"] > 0
        assert first["bdd"]["nodes"] > 0
