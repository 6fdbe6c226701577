"""Verified composition: product-of-controllers ≡ minimized STG.

The paper's central correctness claim is that the *composition* of
communicating controllers (phase FSM x per-resource sequencers, talking
over ``go`` / ``phase_done_*`` / the done-flag registers) implements
exactly the scheduled behaviour the STG specifies.  This module checks
that claim for every synthesized design with a **tiered strategy**:

**Symbolic tier (default exhaustive tier)**.  Both sides are explored
as :class:`~repro.automata.LazyStepSystem` step systems under the
*admissible environment closure*: per state, the environment may stay
silent, deliver the done pulse of any in-flight node (started,
completion not yet reported), or -- once the activation completed --
pulse ``restart``.  Nothing automaton-shaped is materialized and there
is **no state bound**: equivalence is decided per observable class by
the determinized τ-closed pair fixpoint of
:func:`repro.automata.symbolic_trace_equivalence` (weak bisimilarity
coincides with weak trace equivalence on these determinate systems --
see :mod:`repro.automata.symbolic`), the reachable sets live as BDD
characteristic functions, and on designs small enough for the explicit
oracle the per-letter partitioned transition-relation BDDs are
re-imaged to the same fixpoint as a cross-check of the relational
machinery (``docs/SYMBOLIC_VERIFY.md``).

**Explicit tier -- materialized weak bisimulation** (the cross-check
oracle, and ``strategy="exhaustive"``).  The controller side is
:func:`repro.automata.synchronous_product` over the exact harness
composition; the STG side is the token executor explored through the
same :func:`repro.automata.reachable_automaton` materializer (both
bounded by ``max_states``).  The two automata are compared by **weak
bisimulation** (:func:`repro.automata.weak_bisimilar` -- kernel
partition refinement on the τ-saturated disjoint union), projected per
observable class.  Under ``strategy="auto"`` this tier re-proves every
design whose step systems stay within ``ORACLE_MAX_STATES``, and any
verdict disagreement with the symbolic tier is itself a mismatch:

* one projection per processing unit, keeping that unit's commands
  (its reads/starts/writes and its reset) -- interleaving *across*
  concurrent units is not observable, the per-unit command order is;
* one projection per remaining external signal.

Because the admissible closure branches over *every* environment
decision and the ``restart`` edge loops the product back through the
reset phase, a passing exhaustive tier (symbolic or explicit) proves
trace equivalence for **all** admissible environments and **all**
stream lengths of back-to-back activations -- flag-register clearing,
consume-once ``go`` re-arming and the flush of the internal latches
included.  (Simultaneous done
pulses are covered by the single-pulse alphabet: the flag registers
latch-and-hold, so delivering pulses in consecutive cycles reaches the
same configurations.)  Data-dependency order on the *controller* side
needs no separate check: a controller that starts a consumer without
its producer's done flag diverges from the STG under the environment
that withholds that pulse.  The STG's own traces are still
sanity-checked against the task graph -- bisimulation cannot see a
schedule bug both sides mirror faithfully.

**Sampled tier -- environment sampling** (fallback, recorded in
``CompositionCheck.fallback_reason``).  When an exhaustive tier bails
out (``strategy="auto"`` only falls back when the symbolic tier's
determinacy contract is violated), both sides run in closed loop against a family
of deterministic environments (unit latencies drawn per (environment,
node)) for ``activations`` back-to-back activations through the
restart path, and their observable behaviour must agree per
activation: identical per-resource start sequences, identical action
multisets (compared as multisets -- equal sets with different
multiplicities are a mismatch), and intact data-dependency order
anchored on each node's *first* start per activation.

``CompositionCheck.tier`` records which tier produced the verdict.
The check is exposed to the flow as the ``verify`` pipeline stage
(fingerprint-cached like every other stage) and surfaces in
``FlowResult.composition_check``.
"""

from __future__ import annotations

import random
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass

from ..automata import (AutomataError, LazyStepSystem,
                        SynchronousComposition, TokenExecutor,
                        symbolic_trace_equivalence, weak_bisimilar)
from ..automata.product import (ProductEnvironment, composition_stepper,
                                reachable_automaton, synchronous_product)
from ..obs import span as obs_span
from ..stg.interp import StgExecutor
from ..stg.states import StateKind, Stg
from .system_controller import (PHASE_DONE_STATE, ControllerHarness,
                                SystemController, controller_composition)

__all__ = ["CompositionCheck", "verify_composition",
           "controller_product_automaton", "controller_step_system",
           "stg_step_automaton", "stg_step_system",
           "DEFAULT_MAX_PRODUCT_STATES", "ORACLE_MAX_STATES"]

_START = "start_"
_DONE = "done_"
_RESTART = "restart"
#: Controller-only strobes that have no STG counterpart.
_CONTROLLER_ONLY = ("system_done",)

#: Largest reachable product (per side) the *explicit* bisimulation
#: tier attempts.  Only that tier materializes automata, so only it is
#: bounded: the default symbolic tier explores lazily and proves
#: designs of any size.  Calibrated on the bench suite: the 80-node
#: scale graph (~2500 composite states) proves explicitly in a few
#: seconds, so every pre-scale suite design fits the oracle bound.
DEFAULT_MAX_PRODUCT_STATES = 4000

#: Under ``strategy="auto"``, designs whose step systems both stay
#: within this many states are additionally re-proved by the explicit
#: bisimulation tier (and the symbolic tier's relational BDD image
#: iteration is cross-checked against the enumerated reachable set).
#: Deliberately below the suite's largest design: the oracle exists to
#: keep the two tiers honest against each other on the broad population
#: of small designs, not to re-pay the explicit cost on the long poles
#: the symbolic tier was built to retire.
ORACLE_MAX_STATES = 1200


@dataclass(frozen=True)
class CompositionCheck:
    """Outcome of one composed-controller vs. STG equivalence check.

    ``tier`` is ``"symbolic"`` (exhaustive and unbounded: every
    admissible environment, every stream length, lazy step systems +
    BDD fixpoints), ``"bisimulation"`` (exhaustive via the explicit
    materialized product, bounded by ``max_states``) or ``"sampled"``
    (deterministic environment family, ``activations`` streamed
    activations each).  ``fallback_reason`` records why an exhaustive
    tier was skipped when the sampled tier produced the verdict;
    ``oracle`` records the explicit cross-check verdict when the
    symbolic tier ran it.
    """

    equivalent: bool
    tier: str
    environments: int = 0
    activations: int = 1
    starts_checked: int = 0
    actions_checked: int = 0
    composite_configurations: int = 0
    #: Exhaustive tiers: reachable step-system/automaton sizes and the
    #: number of per-observable-class projections checked.
    product_states: int = 0
    reference_states: int = 0
    projections_checked: int = 0
    #: Symbolic tier observability: determinized set pairs explored by
    #: the per-class fixpoints, BDD image iterations of the relational
    #: cross-check, and the owning engine's node / unique-table /
    #: ite-hit-rate counters -- the numbers that make a verify
    #: regression diagnosable from the bench JSON alone.
    pairs_checked: int = 0
    image_iterations: int = 0
    bdd_nodes: int = 0
    bdd_unique_table: int = 0
    bdd_ite_hit_rate: float = 0.0
    #: ``"agrees"`` / ``"disagrees"`` when the explicit oracle re-proved
    #: the design under ``strategy="auto"``, None when it did not run.
    oracle: str | None = None
    fallback_reason: str | None = None
    mismatches: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "tier": self.tier,
            "environments": self.environments,
            "activations": self.activations,
            "starts_checked": self.starts_checked,
            "actions_checked": self.actions_checked,
            "composite_configurations": self.composite_configurations,
            "product_states": self.product_states,
            "reference_states": self.reference_states,
            "projections_checked": self.projections_checked,
            "pairs_checked": self.pairs_checked,
            "image_iterations": self.image_iterations,
            "bdd_nodes": self.bdd_nodes,
            "bdd_unique_table": self.bdd_unique_table,
            "bdd_ite_hit_rate": self.bdd_ite_hit_rate,
            "oracle": self.oracle,
            "fallback_reason": self.fallback_reason,
            "mismatches": list(self.mismatches),
        }


# ----------------------------------------------------------------------
# tier 1: exhaustive weak bisimulation under the admissible closure
# ----------------------------------------------------------------------
class _AdmissibleEnvironment(ProductEnvironment):
    """All environment behaviours the processing units can exhibit.

    The environment state is the set of in-flight nodes (``start_*``
    seen, ``done_*`` not yet delivered).  Admissible letters: silence,
    the done pulse of any in-flight node, and -- once ``completed``
    holds for the configuration -- the ``restart`` command, which loops
    streamed activations into the reachable product.
    """

    def __init__(self, completed) -> None:
        super().__init__()
        self._completed = completed

    def initial_state(self):
        return frozenset()

    def letters(self, env_state, config):
        letters = [frozenset()]
        letters.extend(frozenset({_DONE + node})
                       for node in sorted(env_state))
        if self._completed(config):
            letters.append(frozenset({_RESTART}))
        return letters

    def advance(self, env_state, letter, actions):
        in_flight = set(env_state)
        for action in actions:
            if action.startswith(_START):
                in_flight.add(action[len(_START):])
        for signal in letter:
            if signal.startswith(_DONE):
                in_flight.discard(signal[len(_DONE):])
        return frozenset(in_flight)


#: Fingerprint-keyed memo of materialized products: the verify stage
#: and the guard don't-care harvester both need the same product in one
#: flow run, and the BFS is the most expensive step for large designs.
#: Automatons are immutable, so sharing the instance is safe; the lock
#: keeps lookup/insert/evict atomic when CoolFlow runs on several
#: threads of one process.
_PRODUCT_CACHE: "OrderedDict[tuple[str, int], object]" = OrderedDict()
_PRODUCT_CACHE_MAX = 8
_PRODUCT_CACHE_LOCK = threading.Lock()


def controller_product_automaton(
        controller: SystemController,
        max_states: int = DEFAULT_MAX_PRODUCT_STATES):
    """The harness composition, materialized under the admissible closure.

    One side of the bisimulation tier, exposed for kernel-level
    inspection: a finite automaton of every configuration the
    communicating controllers can reach under any admissible
    environment, restart loop included.  Results are memoized by
    ``(controller fingerprint, max_states)`` so the verify tier and the
    guard-simplification harvest share one materialization per flow.
    """
    key = (controller.fingerprint(), max_states)
    with _PRODUCT_CACHE_LOCK:
        cached = _PRODUCT_CACHE.get(key)
        if cached is not None:
            _PRODUCT_CACHE.move_to_end(key)
            return cached
    components, config = controller_composition(controller)
    phase = components[0]  # phase-first ordering set by controller_composition

    def completed(config_key: tuple) -> bool:
        states = SynchronousComposition.component_states(config_key)
        return phase.name_of(states[0]) == PHASE_DONE_STATE

    product = synchronous_product(
        components, config,
        environment=_AdmissibleEnvironment(completed),
        held=(_RESTART,), max_states=max_states)
    with _PRODUCT_CACHE_LOCK:
        _PRODUCT_CACHE[key] = product
        while len(_PRODUCT_CACHE) > _PRODUCT_CACHE_MAX:
            _PRODUCT_CACHE.popitem(last=False)
    return product


def stg_step_automaton(stg: Stg,
                       max_states: int = DEFAULT_MAX_PRODUCT_STATES):
    """The STG's token-semantics step automaton under the same closure.

    Steps fire **one round** each (``max_rounds=1``) instead of the
    executor's default run-to-fixpoint: the controller composition
    walks chained STG transitions in consecutive clock cycles, and the
    environment may slip a done pulse between them -- the reference
    must expose those intermediate configurations or harmless
    input-vs-pending-output interleavings would read as mismatches.
    ``restart`` resets the executor -- a fresh activation -- so the
    reference automaton contains the same restart loop as the product.
    """
    automaton = stg.to_automaton()
    final = frozenset(automaton.index_of(s.name)
                      for s in stg.states_of_kind(StateKind.GLOBAL_DONE))
    executor = TokenExecutor(automaton, final=final)
    symbols = automaton.symbols

    def completed(snapshot: tuple) -> bool:
        return executor.done_in(snapshot)

    def step(snapshot: tuple, letter: frozenset):
        if _RESTART in letter:
            executor.reset()
            return executor.snapshot(), ()
        executor.restore(snapshot)
        emitted = executor.step(symbols.ids_of(letter), max_rounds=1)
        return executor.snapshot(), symbols.names_of(emitted)

    return reachable_automaton(
        f"{stg.name}_steps", executor.snapshot(), step,
        environment=_AdmissibleEnvironment(completed),
        label_of=lambda snapshot, index: f"q{index}",
        max_states=max_states)


# ----------------------------------------------------------------------
# lazy step systems (the symbolic tier's unbounded side views)
# ----------------------------------------------------------------------
#: Fingerprint-keyed memo of *fully expanded* controller step systems:
#: the symbolic verify tier and the guard don't-care harvester need the
#: same exploration in one flow run.  Only fully expanded systems are
#: published (expansion drives a single scratch composition, so a
#: half-explored system is not shareable); once expanded they are
#: read-only and therefore safe to share across threads.
_STEP_SYSTEM_CACHE: "OrderedDict[str, LazyStepSystem]" = OrderedDict()
_STEP_SYSTEM_CACHE_MAX = 8
_STEP_SYSTEM_CACHE_LOCK = threading.Lock()


def controller_step_system(controller: SystemController) -> LazyStepSystem:
    """The harness composition as a fully expanded lazy step system.

    The symbolic twin of :func:`controller_product_automaton`: same
    scratch composition, same admissible closure, same state identity
    and discovery order -- but states are dense indices and step rows
    plain tuples, with no ``max_states`` bound and no automaton
    materialization.  Memoized by controller fingerprint.
    """
    key = controller.fingerprint()
    with _STEP_SYSTEM_CACHE_LOCK:
        cached = _STEP_SYSTEM_CACHE.get(key)
        if cached is not None:
            _STEP_SYSTEM_CACHE.move_to_end(key)
            return cached
    components, config = controller_composition(controller)
    phase = components[0]  # phase-first ordering set by controller_composition

    def completed(config_key: tuple) -> bool:
        states = SynchronousComposition.component_states(config_key)
        return phase.name_of(states[0]) == PHASE_DONE_STATE

    initial, step = composition_stepper(components, config,
                                        held=(_RESTART,))
    system = LazyStepSystem("controller_composition", initial, step,
                            _AdmissibleEnvironment(completed))
    system.expand_all()
    with _STEP_SYSTEM_CACHE_LOCK:
        _STEP_SYSTEM_CACHE[key] = system
        while len(_STEP_SYSTEM_CACHE) > _STEP_SYSTEM_CACHE_MAX:
            _STEP_SYSTEM_CACHE.popitem(last=False)
    return system


def stg_step_system(stg: Stg) -> LazyStepSystem:
    """The STG's token-semantics step system under the same closure.

    The symbolic twin of :func:`stg_step_automaton` -- one-round steps,
    ``restart`` resetting the executor -- as an unbounded lazy step
    system.  Not cached: the verifier expands it exactly once per
    check, and the backing executor makes a half-shared system unsafe.
    """
    automaton = stg.to_automaton()
    final = frozenset(automaton.index_of(s.name)
                      for s in stg.states_of_kind(StateKind.GLOBAL_DONE))
    executor = TokenExecutor(automaton, final=final)
    symbols = automaton.symbols

    def completed(snapshot: tuple) -> bool:
        return executor.done_in(snapshot)

    def step(snapshot: tuple, letter: frozenset):
        if _RESTART in letter:
            executor.reset()
            return executor.snapshot(), ()
        executor.restore(snapshot)
        emitted = executor.step(symbols.ids_of(letter), max_rounds=1)
        return executor.snapshot(), tuple(symbols.names_of(emitted))

    return LazyStepSystem(f"{stg.name}_steps", executor.snapshot(), step,
                          _AdmissibleEnvironment(completed))


def _has_restart_edge(automaton) -> bool:
    """Does any reachable configuration admit the restart command?"""
    restart = automaton.symbols.id_of(_RESTART)
    return restart is not None and any(restart in t.conditions
                                       for t in automaton.transitions)


def _automaton_alphabet(automata) -> tuple[set[str], list[frozenset[str]]]:
    """External actions + co-emission bursts of materialized automata."""
    actions: set[str] = set()
    bursts: list[frozenset[str]] = []
    for automaton in automata:
        symbols = automaton.symbols
        for t in automaton.transitions:
            names = symbols.names_of(t.actions)
            actions.update(names)
            if len(names) > 1:
                bursts.append(frozenset(names))
    return actions, bursts


def _system_alphabet(systems) -> tuple[set[str], list[frozenset[str]]]:
    """External actions + co-emission bursts of expanded step systems."""
    actions: set[str] = set()
    bursts: list[frozenset[str]] = []
    seen: set[tuple] = set()
    for system in systems:
        for _state, _letter, step_actions, _succ in system.iter_rows():
            if not step_actions or step_actions in seen:
                continue
            # rows intern action tuples, so distinct tuples are few
            seen.add(step_actions)
            actions.update(step_actions)
            if len(step_actions) > 1:
                bursts.append(frozenset(step_actions))
    return actions, bursts


def _observable_classes(actions: set[str],
                        bursts: list[frozenset[str]],
                        resource_of: dict[str, str]
                        ) -> list[tuple[str, frozenset[str]]]:
    """Partition the external action alphabet into projection classes.

    The exhaustive tiers compare the two sides once per class, with
    exactly that class observable.  A class is *admissible* when no
    single step of either side emits two of its members -- the kernel
    interns a step's actions in canonical (sorted) order, so two
    same-step observables would be order-indistinguishable and alias.

    Classes are built in two moves:

    * one *seed* class per processing unit holding its ``start_*``
      commands and its ``reset_*`` line -- the order of starts within a
      unit is observable (it is the schedule) and at most one fires per
      step by construction;
    * every remaining signal (the ``read_*``/``write_*`` memory
      commands) is then *packed* into the first class it does not
      conflict with (greedy coloring over the co-emission bursts of
      both sides), opening a fresh class only when every existing one
      clashes.  Packing is sound -- each projection only gets *more*
      observable, so the per-class check is strictly stronger than the
      old one-singleton-per-signal sweep -- and it collapses the
      hundreds of per-signal projections of a large design into a
      handful.  Controller-only strobes are never observable.

    The conflict test is indexed per action (``action -> co-emitted
    partners``) instead of scanning every burst per candidate class:
    on the 80-node scale graph the flat scan was millions of frozenset
    intersections and the single hottest line of the verify stage.
    """
    actions = actions - set(_CONTROLLER_ONLY)
    partners: dict[str, set[str]] = {}
    for burst in bursts:
        burst = burst & actions
        if len(burst) <= 1:
            continue
        for action in burst:
            partners.setdefault(action, set()).update(burst)
    owner: dict[str, str] = {f"reset_{r}": r
                             for r in sorted(set(resource_of.values()))}
    for action in actions:
        if action.startswith(_START):
            owner[action] = resource_of.get(action[len(_START):], "?")
    seeds: dict[str, set[str]] = {}
    loose: list[str] = []
    for action in sorted(actions):
        unit = owner.get(action)
        if unit is not None:
            seeds.setdefault(unit, set()).add(action)
        else:
            loose.append(action)
    classes: list[tuple[str, set[str]]] = sorted(
        (label, members) for label, members in seeds.items())
    empty: set[str] = set()
    for action in loose:
        conflicts = partners.get(action, empty)
        for _label, members in classes:
            if not (conflicts & members):
                members.add(action)
                break
        else:
            classes.append((action, {action}))
    return [(label, frozenset(members)) for label, members in classes]


def _schedule_sanity_mismatches(stg: Stg, graph, environments: int,
                                max_cycles: int,
                                activations: int) -> list[str]:
    """STG-vs-schedule sanity: dependency order of the STG's own traces.

    An equivalence tier proves controller ≡ STG, not STG ≡ schedule: a
    broken STG faithfully mirrored by its controller would still pass,
    so the task-graph dependency order of the STG's own traces is
    checked separately (the controller side is then covered
    transitively by the equivalence verdict).
    """
    if graph is None:
        return []
    mismatches: list[str] = []
    for environment in range(environments):
        stg_done, stg_traces = _run_stg(stg, environment, max_cycles,
                                        activations)
        if not stg_done:
            mismatches.append(
                f"env {environment}: STG never reached its global "
                f"DONE state (activation {len(stg_traces) - 1}, "
                f"schedule sanity)")
        for index, actions in enumerate(stg_traces):
            for src, dst in _dependency_violations(actions, graph.edges):
                mismatches.append(
                    f"env {environment} activation {index}: STG "
                    f"trace starts {dst!r} before its producer "
                    f"{src!r} (schedule sanity)")
    return mismatches


def _system_has_restart(system: LazyStepSystem) -> bool:
    """Does any reachable state of the expanded system admit restart?

    Letters are interned on first use, so the restart letter exists in
    the system's alphabet iff some reachable (completed) configuration
    admitted it -- the lazy twin of :func:`_has_restart_edge`.
    """
    return any(_RESTART in system.letter_of(letter_id)
               for letter_id in range(system.n_letters))


def _verify_symbolic(stg: Stg, controller: SystemController, graph,
                     max_states: int, activations: int,
                     environments: int, max_cycles: int,
                     oracle: bool) -> CompositionCheck:
    """Symbolic tier: unbounded lazy step systems + fixpoint equivalence.

    With ``oracle`` (``strategy="auto"``), designs whose step systems
    fit ``ORACLE_MAX_STATES`` are re-proved by the explicit
    bisimulation tier -- a verdict disagreement is itself a mismatch --
    and the relational BDD image iteration is cross-checked against
    the enumerated reachable sets.  Raises
    :class:`~repro.automata.AutomataError` only when the determinacy
    contract of the pair fixpoint is violated (``strategy="auto"``
    records that as the sampled tier's fallback reason).
    """
    product_system = controller_step_system(controller)
    reference_system = stg_step_system(stg)
    reference_system.expand_all()
    actions, bursts = _system_alphabet((reference_system, product_system))
    classes = _observable_classes(actions, bursts,
                                  _node_resources(controller))
    small = oracle and max(len(reference_system),
                           len(product_system)) <= ORACLE_MAX_STATES
    result = symbolic_trace_equivalence(reference_system, product_system,
                                        classes, relational_check=small)

    mismatches: list[str] = []
    for verdict in result.verdicts:
        if not verdict.equivalent:
            mismatches.append(
                f"projection {verdict.label!r}: STG and controller "
                f"composition are not weakly trace-equivalent "
                f"({verdict.explain('the STG', 'the controller composition')})")

    # completion: restart is admissible exactly at completed
    # configurations, so an interned restart letter *is* the proof that
    # the activation can finish; this catches the *mirrored* deadlock
    # trace equivalence is blind to (see _verify_exhaustive).
    completion_ok = True
    for system, what in ((reference_system, "STG"),
                         (product_system, "controller composition")):
        if not _system_has_restart(system):
            completion_ok = False
            mismatches.append(
                f"{what} never completes an activation under any "
                f"admissible environment (no restart-admissible "
                f"configuration reached)")

    mismatches.extend(_schedule_sanity_mismatches(stg, graph, environments,
                                                  max_cycles, activations))

    oracle_verdict: str | None = None
    if small:
        symbolic_core = result.equivalent and completion_ok
        try:
            explicit = _verify_exhaustive(stg, controller, None, max_states,
                                          activations, environments,
                                          max_cycles)
        except AutomataError:
            # the caller capped max_states below the oracle threshold:
            # the symbolic verdict stands alone, exactly as on designs
            # past the threshold
            explicit = None
        if explicit is not None:
            if explicit.equivalent == symbolic_core:
                oracle_verdict = "agrees"
            else:
                oracle_verdict = "disagrees"
                mismatches.append(
                    f"explicit bisimulation oracle disagrees with the "
                    f"symbolic tier (explicit: "
                    f"{'equivalent' if explicit.equivalent else 'inequivalent'}"
                    f", symbolic: "
                    f"{'equivalent' if symbolic_core else 'inequivalent'}; "
                    f"explicit mismatches: "
                    f"{'; '.join(explicit.mismatches) or 'none'})")

    starts = 0
    actions_total = 0
    for _state, _letter, step_actions, _succ in reference_system.iter_rows():
        actions_total += len(step_actions)
        starts += sum(1 for action in step_actions
                      if action.startswith(_START))
    return CompositionCheck(
        equivalent=not mismatches,
        tier="symbolic",
        environments=0,
        activations=activations,
        starts_checked=starts,
        actions_checked=actions_total,
        composite_configurations=len(product_system),
        product_states=len(product_system),
        reference_states=len(reference_system),
        projections_checked=len(classes),
        pairs_checked=result.pairs_checked,
        image_iterations=result.image_iterations,
        bdd_nodes=result.bdd_stats["nodes"],
        bdd_unique_table=result.bdd_stats["unique_table"],
        bdd_ite_hit_rate=result.bdd_stats["ite_hit_rate"],
        oracle=oracle_verdict,
        mismatches=tuple(mismatches))


def _verify_exhaustive(stg: Stg, controller: SystemController, graph,
                       max_states: int, activations: int,
                       environments: int, max_cycles: int
                       ) -> CompositionCheck:
    """Bisimulation tier; raises AutomataError when the product is too big."""
    product = controller_product_automaton(controller, max_states)
    reference = stg_step_automaton(stg, max_states)
    actions, bursts = _automaton_alphabet((reference, product))
    classes = _observable_classes(actions, bursts,
                                  _node_resources(controller))
    mismatches: list[str] = []
    for label, observable in classes:
        result = weak_bisimilar(reference, product, observable=observable)
        if not result.bisimilar:
            mismatches.append(
                f"projection {label!r}: STG and controller composition "
                f"are not weakly bisimilar ({result.explain()})")

    # completion: restart is admissible exactly at completed
    # configurations, so a reachable restart edge *is* the proof that
    # the activation can finish.  A one-sided deadlock already fails
    # the projections (the ?restart letter is visible on one side
    # only); this catches the *mirrored* deadlock bisimulation is
    # blind to.
    for automaton, what in ((reference, "STG"),
                            (product, "controller composition")):
        if not _has_restart_edge(automaton):
            mismatches.append(
                f"{what} never completes an activation under any "
                f"admissible environment (no restart-admissible "
                f"configuration reached)")

    mismatches.extend(_schedule_sanity_mismatches(stg, graph, environments,
                                                  max_cycles, activations))

    symbols = reference.symbols
    starts = sum(1 for t in reference.transitions
                 for a in symbols.names_of(t.actions)
                 if a.startswith(_START))
    actions_total = sum(len(t.actions) for t in reference.transitions)
    return CompositionCheck(
        equivalent=not mismatches,
        tier="bisimulation",
        environments=0,
        activations=activations,
        starts_checked=starts,
        actions_checked=actions_total,
        composite_configurations=len(product),
        product_states=len(product),
        reference_states=len(reference),
        projections_checked=len(classes),
        mismatches=tuple(mismatches))


# ----------------------------------------------------------------------
# tier 2: deterministic-environment sampling with streamed activations
# ----------------------------------------------------------------------
def _latency_of(environment: int, node: str) -> int:
    """Deterministic unit latency for (environment, node).

    Environment 0 is the ideal one-cycle responder; later environments
    stagger completions so the two sides are exercised under skewed
    interleavings, not just the lockstep one.
    """
    if environment == 0:
        return 1
    rng = random.Random(f"verify-composition:{environment}:{node}")
    return rng.randint(1, 1 + 2 * environment)


def _drive(step, done, stalled, restart, environment: int,
           max_cycles: int, activations: int
           ) -> tuple[bool, list[list[str]]]:
    """One closed-loop environment driver for both sides of the check.

    Per cycle: deliver the done pulses that fell due, call ``step`` with
    them, schedule a latency countdown for every ``start_*`` it emits.
    ``stalled(busy)`` decides when a quiet system counts as deadlocked
    (the STG executor stalls immediately, the cycle-stepped harness is
    allowed a few idle hand-off cycles).  After each completed
    activation, ``restart()`` re-arms the system for the next block --
    the streaming path of :meth:`repro.sim.CoSimulation.run_stream` --
    and anything it emits *during the restart cycle* is credited to the
    next activation's trace (a correct composition emits nothing
    there, so a spurious command on the restart edge must not fall
    into a blind spot between traces).  Sharing this loop guarantees
    the STG and the controller composition are judged under *identical*
    environments; returns one action list per activation.
    """
    traces: list[list[str]] = []
    for activation in range(activations):
        carried = restart() if activation else None
        pending: dict[str, int] = {}
        actions: list[str] = list(carried or ())
        traces.append(actions)
        completed = False
        for _ in range(max_cycles):
            due = {node for node, left in pending.items() if left <= 0}
            for node in due:
                del pending[node]
            emitted = step({_DONE + node for node in due})
            actions.extend(emitted)
            for action in emitted:
                if action.startswith(_START):
                    node = action[len(_START):]
                    pending[node] = _latency_of(environment, node)
            if done():
                completed = True
                break
            if stalled(bool(emitted or pending or due)):
                return False, traces
            for node in pending:
                pending[node] -= 1
        if not completed and not done():
            return False, traces
    return True, traces


def _run_stg(stg: Stg, environment: int, max_steps: int,
             activations: int) -> tuple[bool, list[list[str]]]:
    """Closed-loop STG execution; one flat action list per activation."""
    executor = StgExecutor(stg)
    return _drive(executor.step, lambda: executor.done,
                  lambda busy: not busy, executor.reset,
                  environment, max_steps, activations)


def _run_controller(controller: SystemController, environment: int,
                    max_cycles: int, activations: int
                    ) -> tuple[bool, list[list[str]], int]:
    """Closed-loop harness execution; returns (completed, per-activation
    actions, distinct composite configurations visited)."""
    harness = ControllerHarness(controller)
    configurations = {harness.configuration()}
    idle_cycles = 0

    def step(signals):
        emitted = harness.cycle(signals)
        configurations.add(harness.configuration())
        return emitted

    def stalled(busy):
        nonlocal idle_cycles
        idle_cycles = 0 if busy else idle_cycles + 1
        return idle_cycles > 2

    def restart():
        nonlocal idle_cycles
        idle_cycles = 0
        emitted = harness.cycle(external={_RESTART})
        configurations.add(harness.configuration())
        return emitted

    completed, traces = _drive(step, lambda: harness.system_done,
                               stalled, restart, environment, max_cycles,
                               activations)
    return completed, traces, len(configurations)


def _starts_by_resource(actions: list[str],
                        resource_of: dict[str, str]) -> dict[str, list[str]]:
    projected: dict[str, list[str]] = {}
    for action in actions:
        if not action.startswith(_START):
            continue
        node = action[len(_START):]
        projected.setdefault(resource_of.get(node, "?"), []).append(node)
    return projected


def _node_resources(controller: SystemController) -> dict[str, str]:
    """node -> resource, read off the sequencers' start actions."""
    resource_of: dict[str, str] = {}
    for resource, sequencer in controller.sequencers.items():
        for signal in sequencer.outputs:
            if signal.startswith(_START):
                resource_of[signal[len(_START):]] = resource
    return resource_of


def _dependency_violations(actions: list[str],
                           edges) -> list[tuple[str, str]]:
    """Data-dependency violations in one activation's action trace.

    Every node is anchored on the *first* ``start_*`` it gets in this
    activation: a dict-overwrite anchor would keep the last start and
    misjudge traces where a node starts more than once (the replayed
    starts of a streamed run, or a double-start bug).  Returns the
    ``(producer, consumer)`` pairs where the consumer started without,
    or before, its producer.
    """
    starts = [a[len(_START):] for a in actions if a.startswith(_START)]
    position: dict[str, int] = {}
    for rank, node in enumerate(starts):
        position.setdefault(node, rank)
    violations: list[tuple[str, str]] = []
    for edge in edges:
        dst_pos = position.get(edge.dst)
        if dst_pos is None:
            continue  # consumer never ran: caught by the
            # multiset/start-sequence comparison
        src_pos = position.get(edge.src)
        if src_pos is None or src_pos >= dst_pos:
            violations.append((edge.src, edge.dst))
    return violations


def _multiset_diff(reference: list[str], candidate: list[str]) -> str:
    """Signed count deltas between two action multisets.

    A plain set symmetric difference hides the case of equal action
    *sets* with different multiplicities (e.g. a double start), so the
    diff is taken on :class:`collections.Counter` views and reported
    with counts.
    """
    delta = Counter(candidate)
    delta.subtract(Counter(reference))
    surplus = {action: count for action, count in sorted(delta.items())
               if count > 0}
    missing = {action: -count for action, count in sorted(delta.items())
               if count < 0}
    return f"controller surplus {surplus}, controller missing {missing}"


def _verify_sampled(stg: Stg, controller: SystemController, graph,
                    environments: int, max_cycles: int, activations: int,
                    fallback_reason: str | None) -> CompositionCheck:
    resource_of = _node_resources(controller)
    mismatches: list[str] = []
    starts_checked = 0
    actions_checked = 0
    configurations = 0

    for environment in range(environments):
        stg_done, stg_traces = _run_stg(stg, environment, max_cycles,
                                        activations)
        ctl_done, ctl_traces, n_configs = _run_controller(
            controller, environment, max_cycles, activations)
        configurations = max(configurations, n_configs)

        if not stg_done:
            mismatches.append(f"env {environment}: STG never reached its "
                              f"global DONE state "
                              f"(activation {len(stg_traces) - 1})")
        if not ctl_done:
            mismatches.append(f"env {environment}: controller composition "
                              f"never reached phase 'done' "
                              f"(activation {len(ctl_traces) - 1})")
        if not (stg_done and ctl_done):
            continue

        for index, (stg_actions, ctl_actions) in enumerate(
                zip(stg_traces, ctl_traces)):
            where = f"env {environment} activation {index}"
            stg_starts = _starts_by_resource(stg_actions, resource_of)
            ctl_starts = _starts_by_resource(ctl_actions, resource_of)
            if stg_starts != ctl_starts:
                mismatches.append(
                    f"{where}: per-resource start sequences differ: "
                    f"STG {stg_starts} vs controllers {ctl_starts}")
            starts_checked += sum(len(v) for v in stg_starts.values())

            comparable = [a for a in ctl_actions
                          if a not in _CONTROLLER_ONLY]
            if Counter(comparable) != Counter(stg_actions):
                mismatches.append(
                    f"{where}: action multisets differ "
                    f"({_multiset_diff(stg_actions, comparable)})")
            actions_checked += len(stg_actions)

            if graph is not None:
                for label, actions in (("STG", stg_actions),
                                       ("controllers", ctl_actions)):
                    for src, dst in _dependency_violations(actions,
                                                           graph.edges):
                        mismatches.append(
                            f"{where}: {label} trace starts {dst!r} "
                            f"before its producer {src!r}")

    return CompositionCheck(
        equivalent=not mismatches,
        tier="sampled",
        environments=environments,
        activations=activations,
        starts_checked=starts_checked,
        actions_checked=actions_checked,
        composite_configurations=configurations,
        fallback_reason=fallback_reason,
        mismatches=tuple(mismatches))


# ----------------------------------------------------------------------
def verify_composition(stg: Stg, controller: SystemController,
                       graph=None, environments: int = 3,
                       max_cycles: int = 100_000,
                       activations: int = 2,
                       max_states: int = DEFAULT_MAX_PRODUCT_STATES,
                       strategy: str = "auto") -> CompositionCheck:
    """Check the communicating-controller composition against ``stg``.

    ``strategy`` selects the tier: ``"auto"`` (default) runs the
    unbounded symbolic tier, re-proves oracle-sized designs with the
    explicit bisimulation tier, and falls back to environment sampling
    only when the symbolic tier's determinacy contract is violated (the
    fallback reason is recorded on the check); ``"symbolic"`` demands
    the symbolic tier alone (no oracle, raising
    :class:`~repro.automata.AutomataError` instead of falling back);
    ``"exhaustive"`` demands the explicit bisimulation tier (raising
    when the product exceeds ``max_states``); ``"sampled"`` forces the
    sampling tier.  ``max_states`` only bounds the explicit tier -- the
    symbolic tier has no state bound, which is the point of it.

    ``activations`` streams that many back-to-back activations through
    the restart path in the sampled tier (the exhaustive tiers' restart
    loop covers every stream length).  ``graph`` (a
    :class:`~repro.graph.taskgraph.TaskGraph`) additionally enables the
    data-dependency order check: on the sampled traces of both sides in
    the sampled tier, and as an STG-vs-schedule sanity check in the
    exhaustive tiers (where the controller side is covered transitively
    by the equivalence verdict; see the module docstring).
    """
    if strategy not in ("auto", "symbolic", "exhaustive", "sampled"):
        raise ValueError(f"unknown verification strategy {strategy!r}")
    if activations < 1:
        raise ValueError("verification needs at least one activation")
    with obs_span("verify", kind="verify", strategy=strategy) as vspan:
        check = _verify_dispatch(stg, controller, graph, environments,
                                 max_cycles, activations, max_states,
                                 strategy)
        vspan.set("tier", check.tier)
        vspan.set("equivalent", check.equivalent)
        vspan.set("pairs_checked", check.pairs_checked)
        vspan.set("image_iterations", check.image_iterations)
        vspan.set("bdd_nodes", check.bdd_nodes)
        vspan.set("product_states", check.product_states)
        vspan.set("projections_checked", check.projections_checked)
        return check


def _verify_dispatch(stg: Stg, controller: SystemController, graph,
                     environments: int, max_cycles: int, activations: int,
                     max_states: int, strategy: str) -> CompositionCheck:
    """Tier selection and fallback, shared by every caller of
    :func:`verify_composition` (which wraps it in the verify span)."""
    fallback_reason: str | None = None
    if strategy in ("auto", "symbolic"):
        try:
            return _verify_symbolic(stg, controller, graph, max_states,
                                    activations, environments, max_cycles,
                                    oracle=strategy == "auto")
        except AutomataError as exc:
            if strategy == "symbolic":
                raise
            fallback_reason = str(exc)
    elif strategy == "exhaustive":
        return _verify_exhaustive(stg, controller, graph, max_states,
                                  activations, environments, max_cycles)
    return _verify_sampled(stg, controller, graph, environments,
                           max_cycles, activations, fallback_reason)
