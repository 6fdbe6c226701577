"""Guard-simplification soundness: original vs simplified guards.

The symbolic pipeline may only change *representation*, never
observable behaviour:

* controller-level: :func:`repro.controllers.simplify_controller_guards`
  reduces FSM condition literals against reachability care sets -- the
  simplified FSMs must step identically on **every** harvested care
  valuation, and the rebuilt controller must still prove equivalent to
  its STG (the paper's headline claim, now on simplified guards);
* kernel-level: :func:`repro.automata.simplify_automaton_guards` and
  ``minimize_automaton(simplify_guards=True)`` must preserve the
  sequential input->output map on exhaustive/random input vectors and
  never end up with more states than the syntactic minimizer.

The population is a 20-design ``workload_suite`` -- the same randomized
harness the kernel-equivalence tests use -- plus crafted corner cases.
"""

import itertools
import random

import pytest

from repro.automata import (AutomatonBuilder, SequentialRunner,
                            minimize_automaton, refine_partition,
                            simplify_automaton_guards)
from repro.controllers import (harvest_care_sets,
                               simplify_controller_guards,
                               synthesize_system_controller,
                               verify_composition)
from repro.partition import GreedyPartitioner
from repro.partition.base import PartitioningProblem
from repro.platform import minimal_board
from repro.stg import build_stg, minimize_stg
from repro.workloads import workload_suite

SUITE = workload_suite(20, seed=5)


def suite_design(spec):
    graph = spec.build()
    result = GreedyPartitioner().partition(
        PartitioningProblem(graph, minimal_board()))
    stg, _ = minimize_stg(build_stg(result.schedule))
    return graph, stg


@pytest.mark.parametrize("spec", SUITE,
                         ids=lambda s: f"{s.family}-{s.seed}")
def test_simplified_controller_steps_identically_on_care_vectors(spec):
    """Property: on every reachable valuation, original == simplified."""
    _graph, stg = suite_design(spec)
    controller = synthesize_system_controller(stg)
    care = harvest_care_sets(controller)
    simplified, stats = simplify_controller_guards(controller,
                                                   care_sets=care)
    assert stats["simplified"]
    assert stats["literals_after"] <= stats["literals_before"]
    for original, reduced in zip(controller.fsms, simplified.fsms):
        observed = care.get(original.name, {})
        for state in original.states:
            for valuation in observed.get(state, ()):
                assert original.step(state, set(valuation)) == \
                    reduced.step(state, set(valuation)), \
                    (original.name, state, sorted(valuation))


@pytest.mark.parametrize("spec", SUITE[:6],
                         ids=lambda s: f"{s.family}-{s.seed}")
def test_simplified_controller_still_verifies_against_stg(spec):
    graph, stg = suite_design(spec)
    controller = synthesize_system_controller(stg)
    simplified, stats = simplify_controller_guards(controller)
    assert stats["simplified"]
    check = verify_composition(stg, simplified, graph=graph)
    assert check.equivalent, check.mismatches
    assert check.tier == "symbolic"


def test_suite_reduces_literals_somewhere():
    """The reachability don't-cares must actually buy something."""
    total_before = total_after = 0
    for spec in SUITE[:8]:
        _graph, stg = suite_design(spec)
        controller = synthesize_system_controller(stg)
        _simplified, stats = simplify_controller_guards(controller)
        total_before += stats["literals_before"]
        total_after += stats["literals_after"]
    assert total_after < total_before


# ----------------------------------------------------------------------
# kernel-level simplification
# ----------------------------------------------------------------------
def random_ordered_automaton(rng, n_states=4, n_signals=4):
    builder = AutomatonBuilder(f"rand{rng.randint(0, 1 << 30)}")
    states = [f"s{i}" for i in range(n_states)]
    signals = [f"c{i}" for i in range(n_signals)]
    actions = ["x", "y"]
    for state in states:
        builder.add_state(state,
                          outputs=tuple(rng.sample(actions,
                                                   rng.randint(0, 1))))
    for _ in range(rng.randint(n_states, 3 * n_states)):
        src, dst = rng.choice(states), rng.choice(states)
        if rng.random() < 0.3:
            # a guard cover with negated literals / OR-terms
            cubes = []
            for _ in range(rng.randint(1, 2)):
                picks = rng.sample(signals, rng.randint(1, 2))
                cubes.append(tuple((s, rng.random() < 0.7) for s in picks))
            builder.add_transition(src, dst, guard_cover=cubes,
                                   actions=tuple(rng.sample(
                                       actions, rng.randint(0, 2))))
        else:
            builder.add_transition(
                src, dst,
                conditions=tuple(rng.sample(signals, rng.randint(0, 2))),
                actions=tuple(rng.sample(actions, rng.randint(0, 2))))
    return builder.build(initial="s0"), signals


def assert_sequentially_equal(left, right, signals):
    """Exhaustive input vectors, every state, both automata."""
    runner_l, runner_r = SequentialRunner(left), SequentialRunner(right)
    assert left.state_names == right.state_names
    for state in range(len(left)):
        for k in range(len(signals) + 1):
            for combo in itertools.combinations(signals, k):
                inputs_l = left.symbols.ids_of(set(combo))
                inputs_r = right.symbols.ids_of(set(combo))
                next_l, out_l = runner_l.step(state, inputs_l)
                next_r, out_r = runner_r.step(state, inputs_r)
                assert left.name_of(next_l) == right.name_of(next_r), \
                    (left.name_of(state), combo)
                assert left.symbols.names_of(out_l) == \
                    right.symbols.names_of(out_r)


def test_simplify_automaton_guards_preserves_step_semantics():
    rng = random.Random(17)
    for _ in range(60):
        automaton, signals = random_ordered_automaton(rng)
        simplified = simplify_automaton_guards(automaton, ordered=True)
        assert_sequentially_equal(automaton, simplified, signals)


def test_simplify_never_adds_literals():
    from repro.automata.simplify import SimplifyReport
    rng = random.Random(29)
    for _ in range(40):
        automaton, _signals = random_ordered_automaton(rng)
        report = SimplifyReport()
        simplify_automaton_guards(automaton, ordered=True, report=report)
        assert report["literals_after"] <= report["literals_before"]


def test_minimize_with_guard_canonical_never_coarser_than_plain():
    rng = random.Random(41)
    for _ in range(40):
        automaton, _ = random_ordered_automaton(rng)
        plain = refine_partition(automaton, ordered=True)
        semantic = refine_partition(automaton, ordered=True,
                                    guard_canonical=True)
        assert semantic.n_blocks <= plain.n_blocks


def test_minimize_simplify_guards_preserves_traces():
    rng = random.Random(53)
    for _ in range(25):
        automaton, signals = random_ordered_automaton(rng)
        merged, _refinement = minimize_automaton(automaton, ordered=True,
                                                 simplify_guards=True)
        runner_a = SequentialRunner(automaton)
        runner_m = SequentialRunner(merged)
        for _ in range(20):
            trace = [set(rng.sample(signals, rng.randint(0, 3)))
                     for _ in range(12)]
            state_a, state_m = automaton.initial, merged.initial
            for inputs in trace:
                state_a, out_a = runner_a.step(
                    state_a, automaton.symbols.ids_of(inputs))
                state_m, out_m = runner_m.step(
                    state_m, merged.symbols.ids_of(inputs))
                assert automaton.symbols.names_of(out_a) == \
                    merged.symbols.names_of(out_m)


def test_guard_canonical_merges_semantically_equal_cascades():
    """Disjoint cascades in swapped priority order are one behaviour."""
    builder = AutomatonBuilder("swap")
    for state in ("p", "q", "sink"):
        builder.add_state(state)
    builder.add_transition("sink", "sink")
    # p: a&!b -> sink(x);  !a&b -> sink(y)
    builder.add_transition("p", "sink",
                           guard_cover=[(("a", True), ("b", False))],
                           actions=("x",))
    builder.add_transition("p", "sink",
                           guard_cover=[(("a", False), ("b", True))],
                           actions=("y",))
    # q: same two branches, opposite priority order (disjoint guards,
    # so the outcome map is identical)
    builder.add_transition("q", "sink",
                           guard_cover=[(("a", False), ("b", True))],
                           actions=("y",))
    builder.add_transition("q", "sink",
                           guard_cover=[(("a", True), ("b", False))],
                           actions=("x",))
    automaton = builder.build(initial="p")
    plain = refine_partition(automaton, ordered=True)
    semantic = refine_partition(automaton, ordered=True,
                                guard_canonical=True)
    assert plain.n_blocks == 3          # syntactic order keeps p != q
    assert semantic.n_blocks == 2       # semantics merges them
    merged, _ = minimize_automaton(automaton, ordered=True,
                                   simplify_guards=True)
    assert len(merged) == 2


def test_care_sets_drop_redundant_join_literal():
    builder = AutomatonBuilder("join")
    builder.add_state("wait")
    builder.add_state("go")
    builder.add_transition("wait", "go", conditions=("done_a", "done_b"),
                           actions=("start",))
    builder.add_transition("go", "go")
    automaton = builder.build(initial="wait")
    # reachability: done_a is always latched while waiting
    care = {"wait": [{"done_a"}, {"done_a", "done_b"}]}
    simplified = simplify_automaton_guards(automaton, ordered=True,
                                           care_sets=care)
    (first,) = simplified.out(0)
    assert simplified.symbols.names_of(first.conditions) == ("done_b",)
