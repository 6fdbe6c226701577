"""The COOL design flow (paper Fig. 1) as a staged pipeline.

The flow is built from dependency-tracked :class:`~repro.flow.pipeline.Stage`
objects executed by a :class:`~repro.flow.pipeline.PipelineExecutor`:

=============== =============================================== ==========================
stage           inputs                                          outputs
=============== =============================================== ==========================
validate        graph                                           validated
partitioning    graph, arch, deadline, partitioner              partition_result, ...
stg             schedule                                        stg_full, stg, minimization
communication   schedule, arch, comm_options                    plan
hls             graph, partition, arch                          hls_results
controllers     graph, stg, partition, hls_results, arch        controller, ioc, dpcs, ...
codegen         graph, partition, schedule, plan, ctrls, hls    vhdl_files, c_files, netlist
cosim           graph, partition, schedule, plan, ctrl, stimuli sim_result
=============== =============================================== ==========================

Every artifact is content-fingerprinted, so a stage re-runs only when an
input actually changed.  The HLS area-repair loop exploits this: it
iterates *partitioning -> hls* alone, and STG construction /
communication refinement run exactly once on the converged schedule
instead of being rebuilt for every discarded intermediate partition
(``FlowResult.stage_runs`` makes this observable).  A per-flow
:class:`~repro.flow.pipeline.StageCache` additionally reuses stage
outputs across ``run`` calls, so re-running an unchanged (graph,
architecture) pair costs dictionary lookups.

:class:`CoolFlow` keeps its historical interface -- construct with an
architecture and options, call :meth:`CoolFlow.run` -- and returns the
same :class:`FlowResult`; it is now a thin facade over the pipeline.
Batch fan-out and design-space exploration on top of this engine live in
:mod:`repro.flow.batch`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..automata import AutomataError
from ..codegen.c import software_to_c
from ..codegen.netlist import Netlist, generate_netlist, netlist_text
from ..codegen.vhdl import (datapath_to_vhdl, fsm_guard_literals,
                            fsm_to_vhdl, guard_literal_count)
from ..codegen.vhdl_check import check_vhdl
from ..controllers.guards import harvest_care_sets
from ..comm.refine import CommPlan, refine_communication
from ..controllers.bus_arbiter import RoundRobinArbiter
from ..controllers.datapath_controller import (DatapathController,
                                               synthesize_datapath_controller)
from ..controllers.io_controller import IoController, synthesize_io_controller
from ..controllers.system_controller import (SystemController,
                                             synthesize_system_controller)
from ..controllers.verify import (DEFAULT_MAX_PRODUCT_STATES,
                                  CompositionCheck, verify_composition)
from ..graph.partition import Partition
from ..graph.taskgraph import TaskGraph
from ..graph.validate import check_graph
from ..hls.driver import SharedDatapathResult, synthesize_resource
from ..obs import span as obs_span
from ..partition.base import (Partitioner, PartitioningProblem,
                              PartitionResult, evaluate_mapping)
from ..partition.milp import MilpPartitioner
from ..platform.architecture import TargetArchitecture
from ..schedule.schedule import Schedule
from ..sim.system import CoSimulation, SimResult
from ..stg.builder import build_stg
from ..stg.minimize import MinimizationReport, minimize_stg
from ..stg.states import Stg
from ..store import ArtifactStore, PersistentCache, TieredCache
from .pipeline import (CacheTier, FlowContext, PipelineExecutor, Stage,
                       StageCache, stage_timer)
from .timing import DesignTimeModel, DesignTimeReport

__all__ = ["CoolFlow", "FlowResult", "build_flow_stages",
           "select_eviction_victim"]


@dataclass
class FlowResult:
    """Everything one run of the COOL flow produces.

    The file dictionaries and partition stats are owned by the caller;
    the deep co-synthesis artifacts (STGs, communication plan, HLS
    results, controllers) may be shared with the flow's stage cache and
    with other results of the same flow -- treat them as read-only.
    """

    graph: TaskGraph
    arch: TargetArchitecture
    partition_result: PartitionResult
    stg_full: Stg
    stg: Stg
    minimization: MinimizationReport
    plan: CommPlan
    controller: SystemController
    io_controller: IoController
    datapath_controllers: dict[str, DatapathController]
    hls_results: dict[str, SharedDatapathResult]
    vhdl_files: dict[str, str]
    c_files: dict[str, str]
    netlist: Netlist
    sim_result: SimResult | None
    #: Product-of-controllers vs minimized-STG equivalence evidence
    #: (None when the flow ran with ``verify_composition=False``).
    composition_check: CompositionCheck | None = None
    #: Guard-simplification evidence of the codegen stage: VHDL guard
    #: literal counts before/after and whether reachability care sets
    #: were harvested (None when ``simplify_guards=False``).
    guard_report: dict | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)
    design_time: DesignTimeReport | None = None
    #: How often each pipeline stage actually executed during this run
    #: (0 = served entirely from the stage cache).
    stage_runs: dict[str, int] = field(default_factory=dict)
    #: Window view of the flow's cache over this run
    #: (:meth:`StageCache.stats`); tiered flows carry nested ``l1`` /
    #: ``l2`` views plus the promotion count.
    cache_stats: dict | None = None

    @property
    def makespan(self) -> int:
        return self.partition_result.makespan

    @property
    def clbs_per_fpga(self) -> dict[str, int]:
        return {r: h.total_area_clbs for r, h in self.hls_results.items()}

    def report(self) -> str:
        """Multi-paragraph text report of the implementation."""
        lines = [f"COOL flow report for {self.graph.name!r} on "
                 f"{self.arch.name!r}"]
        lines.append("-" * 64)
        summary = self.partition_result.summary()
        lines.append(f"partitioning [{summary['algorithm']}]: "
                     f"{summary['hw_nodes']} HW / {summary['sw_nodes']} SW "
                     f"nodes, {summary['cut_edges']} cut edges, "
                     f"makespan {summary['makespan']} ticks")
        lines.append(f"STG: {self.minimization.states_before} states -> "
                     f"{self.minimization.states_after} after minimization "
                     f"({self.minimization.reduction:.0%} removed)")
        stats = self.plan.stats()
        lines.append(f"communication: {stats['memory_mapped']} memory-mapped"
                     f" + {stats['direct']} direct channels, "
                     f"{stats['memory_words']} memory words")
        for resource, clbs in self.clbs_per_fpga.items():
            cap = self.arch.fpga(resource).clb_capacity
            lines.append(f"hardware {resource}: {clbs}/{cap} CLBs")
        if self.composition_check is not None:
            check = self.composition_check
            verdict = "equivalent" if check.equivalent \
                else "MISMATCH: " + "; ".join(check.mismatches)
            if check.tier == "symbolic":
                evidence = (f"symbolic fixpoint, "
                            f"{check.product_states} product states, "
                            f"{check.projections_checked} projections, "
                            f"{check.bdd_nodes} BDD nodes "
                            f"(ite hit rate {check.bdd_ite_hit_rate:.0%}), "
                            f"streamed restarts included")
            elif check.tier == "bisimulation":
                evidence = (f"exhaustive bisimulation, "
                            f"{check.product_states} product states, "
                            f"{check.projections_checked} projections, "
                            f"streamed restarts included")
            else:
                evidence = (f"sampled, {check.environments} environments "
                            f"x {check.activations} activations")
            lines.append(f"verified composition: controllers x STG "
                         f"{verdict} ({evidence})")
        if self.guard_report is not None:
            before = self.guard_report["guard_literals_before"]
            after = self.guard_report["guard_literals_after"]
            saved = f" (-{1 - after / before:.0%})" if before else ""
            care = "reachability don't-cares" \
                if self.guard_report["care_sets"] else "structural only"
            lines.append(f"guard simplification: {before} -> {after} VHDL "
                         f"guard literals{saved}, {care}")
        lines.append(f"generated: {len(self.vhdl_files)} VHDL files, "
                     f"{len(self.c_files)} C files, netlist with "
                     f"{len(self.netlist.components)} components / "
                     f"{len(self.netlist.nets)} nets")
        if self.sim_result is not None:
            lines.append(f"co-simulation: {self.sim_result.cycles} cycles, "
                         f"bus busy {self.sim_result.bus_busy_ticks}")
        if self.design_time is not None:
            lines.append(f"design time: {self.design_time.total_s / 60:.1f} "
                         f"min total, {self.design_time.hw_fraction:.0%} in "
                         f"hardware synthesis")
        if self.cache_stats is not None and "l2" in self.cache_stats:
            l1, l2 = self.cache_stats["l1"], self.cache_stats["l2"]
            lines.append(
                f"stage cache: {self.cache_stats['hit_rate']:.0%} of stage "
                f"lookups served "
                f"(L1 memory {l1['hits']}/{l1['hits'] + l1['misses']}, "
                f"L2 store {l2['hits']}/{l2['hits'] + l2['misses']}, "
                f"{self.cache_stats['promotions']} promoted)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# stage bodies (pure with respect to their declared inputs)
# ----------------------------------------------------------------------
def _stage_validate(ctx: FlowContext) -> dict[str, Any]:
    check_graph(ctx.get("graph"))
    return {"validated": True}


def _stage_partition(ctx: FlowContext) -> dict[str, Any]:
    problem = PartitioningProblem(ctx.get("graph"), ctx.get("arch"),
                                  deadline=ctx.get("deadline"))
    result: PartitionResult = ctx.get("partitioner").partition(problem)
    return {"partition_result": result, "partition": result.partition,
            "schedule": result.schedule}


def _stage_stg(ctx: FlowContext) -> dict[str, Any]:
    stg_full = build_stg(ctx.get("schedule"))
    stg, minimization = minimize_stg(stg_full)
    return {"stg_full": stg_full, "stg": stg, "minimization": minimization}


def _stage_communication(ctx: FlowContext) -> dict[str, Any]:
    reuse_memory, allow_direct = ctx.get("comm_options")
    plan = refine_communication(ctx.get("schedule"), ctx.get("arch"),
                                reuse_memory=reuse_memory,
                                allow_direct=allow_direct)
    return {"plan": plan}


def _stage_hls(ctx: FlowContext) -> dict[str, Any]:
    graph, partition = ctx.get("graph"), ctx.get("partition")
    arch: TargetArchitecture = ctx.get("arch")
    hls_results: dict[str, SharedDatapathResult] = {}
    for fpga in arch.fpgas:
        hls_results[fpga.name] = synthesize_resource(graph, partition,
                                                     fpga.name, fpga)
    return {"hls_results": hls_results}


def _stage_controllers(ctx: FlowContext) -> dict[str, Any]:
    graph, partition = ctx.get("graph"), ctx.get("partition")
    arch: TargetArchitecture = ctx.get("arch")
    hls_results = ctx.get("hls_results")
    controller = synthesize_system_controller(ctx.get("stg"))
    io_controller = synthesize_io_controller(graph)
    datapath_controllers: dict[str, DatapathController] = {}
    for fpga in arch.fpgas:
        if not partition.nodes_on(fpga.name):
            continue
        latencies = hls_results[fpga.name].latencies
        datapath_controllers[fpga.name] = \
            synthesize_datapath_controller(partition, fpga.name, latencies)
    arbiter = RoundRobinArbiter(["sysctl"] + list(partition.resources_used))
    return {"controller": controller, "io_controller": io_controller,
            "datapath_controllers": datapath_controllers, "arbiter": arbiter}


def _stage_verify(ctx: FlowContext) -> dict[str, Any]:
    max_states, strategy = ctx.get("verify_options")
    check = verify_composition(ctx.get("stg"), ctx.get("controller"),
                               graph=ctx.get("graph"),
                               max_states=max_states, strategy=strategy)
    return {"composition_check": check}


def _stage_codegen(ctx: FlowContext) -> dict[str, Any]:
    graph, partition = ctx.get("graph"), ctx.get("partition")
    arch: TargetArchitecture = ctx.get("arch")
    hls_results = ctx.get("hls_results")
    controller = ctx.get("controller")
    simplify = ctx.get("codegen_options")
    care_sets: dict = {}
    care_reason: str | None = None
    if simplify:
        try:
            care_sets = harvest_care_sets(controller)
        except AutomataError as exc:
            # structural simplification still applies; only the
            # reachability don't-cares are lost
            care_reason = str(exc)
    vhdl_files: dict[str, str] = {}
    literals_before = 0

    def emit(fsm) -> str:
        nonlocal literals_before
        if not simplify:
            return fsm_to_vhdl(fsm)
        literals_before += fsm_guard_literals(fsm)
        return fsm_to_vhdl(fsm, simplify=True,
                           care_of=care_sets.get(fsm.name))

    for fsm in controller.fsms:
        vhdl_files[f"{fsm.name}.vhd"] = emit(fsm)
    vhdl_files["ioc.vhd"] = emit(ctx.get("io_controller").fsm)
    vhdl_files["arbiter.vhd"] = emit(ctx.get("arbiter").to_fsm())
    for resource, dpc in ctx.get("datapath_controllers").items():
        vhdl_files[f"dpc_{resource}.vhd"] = emit(dpc.fsm)
    guard_report: dict[str, Any] | None = None
    if simplify:
        guard_report = {
            "simplified": True,
            "care_sets": not care_reason,
            "care_fallback": care_reason,
            "guard_literals_before": literals_before,
            "guard_literals_after": sum(guard_literal_count(text)
                                        for text in vhdl_files.values()),
        }
    for resource, hls in hls_results.items():
        if hls.shared_rtl is not None and hls.node_results:
            vhdl_files[f"dp_{resource}.vhd"] = datapath_to_vhdl(hls.shared_rtl)
    for name, text in vhdl_files.items():
        problems = check_vhdl(text)
        if problems:
            raise ValueError(f"generated VHDL {name} rejected: "
                             + "; ".join(problems))
    c_files: dict[str, str] = {}
    for proc in arch.processors:
        if partition.nodes_on(proc.name):
            c_files[f"{proc.name}.c"] = software_to_c(
                graph, partition, ctx.get("schedule"), ctx.get("plan"),
                proc.name, controller=controller)
    netlist = generate_netlist(partition, arch, controller, ctx.get("plan"))
    return {"vhdl_files": vhdl_files, "c_files": c_files,
            "netlist": netlist, "guard_report": guard_report}


def _stage_cosim(ctx: FlowContext) -> dict[str, Any]:
    arch: TargetArchitecture = ctx.get("arch")
    hls_latencies: dict[str, dict[str, int]] = {}
    for resource, hls in ctx.get("hls_results").items():
        if hls.latencies:
            fpga = arch.fpga(resource)
            ratio = arch.bus.clock_hz / fpga.clock_hz
            hls_latencies[resource] = {n: max(1, round(c * ratio))
                                       for n, c in hls.latencies.items()}
    cosim = CoSimulation(ctx.get("graph"), ctx.get("partition"),
                         ctx.get("schedule"), ctx.get("plan"),
                         ctx.get("controller"), arch, ctx.get("stimuli"),
                         latencies=hls_latencies)
    return {"sim_result": cosim.run()}


def build_flow_stages() -> list[Stage]:
    """The COOL flow as an ordered stage-graph (one entry per Fig. 1 box)."""
    return [
        Stage("validate", ("graph",), ("validated",), _stage_validate),
        Stage("partitioning",
              ("validated", "graph", "arch", "deadline", "partitioner"),
              ("partition_result", "partition", "schedule"),
              _stage_partition),
        Stage("stg", ("schedule",), ("stg_full", "stg", "minimization"),
              _stage_stg),
        Stage("communication", ("schedule", "arch", "comm_options"),
              ("plan",), _stage_communication),
        Stage("hls", ("graph", "partition", "arch"), ("hls_results",),
              _stage_hls),
        Stage("controllers",
              ("graph", "stg", "partition", "hls_results", "arch"),
              ("controller", "io_controller", "datapath_controllers",
               "arbiter"),
              _stage_controllers),
        Stage("verify", ("stg", "controller", "graph", "verify_options"),
              ("composition_check",), _stage_verify),
        Stage("codegen",
              ("graph", "partition", "schedule", "plan", "controller",
               "io_controller", "datapath_controllers", "arbiter",
               "hls_results", "arch", "codegen_options"),
              ("vhdl_files", "c_files", "netlist", "guard_report"),
              _stage_codegen),
        Stage("cosim",
              ("graph", "partition", "schedule", "plan", "controller",
               "hls_results", "arch", "stimuli"),
              ("sim_result",), _stage_cosim),
    ]


# ----------------------------------------------------------------------
# HLS area repair
# ----------------------------------------------------------------------
def select_eviction_victim(problem: PartitioningProblem,
                           partition: Partition, device: str,
                           node_areas: Mapping[str, int], processor: str
                           ) -> tuple[str, Partition, Schedule, Any]:
    """Pick the node to move from ``device`` to ``processor``.

    Candidates are tried in order of decreasing synthesized area (most
    area-saving first); the first eviction that keeps the deadline
    feasible wins.  When every candidate breaks the deadline the
    largest one is evicted anyway -- area repair must make progress, and
    an overfull FPGA is not implementable at any makespan.

    Returns ``(victim, partition, schedule, feasibility)`` for the
    chosen eviction.
    """
    candidates = sorted(node_areas, key=lambda n: (-node_areas[n], n))
    if not candidates:
        raise RuntimeError(
            f"HLS area repair failed to converge: device {device!r} "
            "overflows with no evictable nodes left")
    graph = problem.graph
    base = {name: res for name, res in partition.mapping.items()
            if not graph.node(name).is_io}
    fallback: tuple[str, Partition, Schedule, Any] | None = None
    for victim in candidates:
        mapping = dict(base)
        mapping[victim] = processor
        moved, schedule, report = evaluate_mapping(problem, mapping)
        if fallback is None:
            fallback = (victim, moved, schedule, report)
        if report.deadline_ok:
            return victim, moved, schedule, report
    return fallback


class CoolFlow:
    """Configurable end-to-end driver (facade over the stage pipeline)."""

    @staticmethod
    def default_partitioner() -> Partitioner:
        """The engine used when none is given (the paper's MILP core).

        Single source of truth for the default: batch job labels derive
        the displayed algorithm from here, so the two cannot drift.
        """
        return MilpPartitioner()

    def __init__(self, arch: TargetArchitecture,
                 partitioner: Partitioner | None = None,
                 reuse_memory: bool = True,
                 allow_direct_comm: bool = True,
                 design_time_model: DesignTimeModel | None = None,
                 stage_cache: CacheTier | None = None,
                 verify_composition: bool = True,
                 verify_max_states: int = DEFAULT_MAX_PRODUCT_STATES,
                 verify_strategy: str = "symbolic",
                 simplify_guards: bool = True,
                 store_path: "str | None" = None) -> None:
        self.arch = arch
        self.partitioner = partitioner if partitioner is not None \
            else self.default_partitioner()
        self.reuse_memory = reuse_memory
        self.allow_direct_comm = allow_direct_comm
        #: Run the ``verify`` stage (product-of-controllers vs minimized
        #: STG equivalence) as part of every flow.
        self.verify_composition = verify_composition
        #: Tier knobs forwarded to
        #: :func:`repro.controllers.verify.verify_composition`:
        #: largest reachable product the *explicit* bisimulation tier
        #: attempts (the default symbolic tier is unbounded), and the
        #: strategy ("symbolic" | "exhaustive" | "sampled").  The
        #: default runs the symbolic pair fixpoint alone -- one proof
        #: per run; the explicit tier is its reference implementation,
        #: cross-checked in the tests and the verify bench.  Part of
        #: the verify stage's fingerprint, so changing either re-runs
        #: exactly that stage.
        self.verify_max_states = verify_max_states
        self.verify_strategy = verify_strategy
        #: Route the codegen stage's FSM cascades through the symbolic
        #: guard engine (dead-branch pruning, same-successor merging,
        #: reachability don't-cares from the composition product).
        #: Part of the codegen stage's fingerprint, so toggling it
        #: re-runs exactly that stage.
        self.simplify_guards = simplify_guards
        self.design_time_model = design_time_model if design_time_model \
            is not None else DesignTimeModel()
        #: Shared across ``run`` calls of this flow (and across flows
        #: when one cache instance is passed to several of them).  With
        #: ``store_path=`` the cache is tiered over a persistent
        #: artifact store (:mod:`repro.store`): stage results are
        #: fingerprint-keyed on disk, so an unchanged (graph, arch)
        #: pair is served from the store even in a fresh process --
        #: :meth:`FlowResult.report` then shows the per-tier hit rates.
        cache: CacheTier = stage_cache if stage_cache is not None \
            else StageCache()
        if store_path is not None:
            cache = TieredCache(cache,
                                PersistentCache(ArtifactStore(store_path)))
        self.stage_cache = cache

    def run(self, graph: TaskGraph,
            stimuli: Mapping[str, list[int]] | None = None,
            deadline: int | None = None) -> FlowResult:
        """Run the full flow; ``stimuli`` enables co-simulation."""
        with obs_span("flow", kind="flow", graph=graph.name,
                      arch=self.arch.name) as flow_span:
            result = self._run(graph, stimuli, deadline)
            flow_span.set("stages_run", sum(result.stage_runs.values()))
            flow_span.set("cache_hits", result.cache_stats.get("hits", 0))
            return result

    def _run(self, graph: TaskGraph,
             stimuli: Mapping[str, list[int]] | None,
             deadline: int | None) -> FlowResult:
        cache_window = self.stage_cache.snapshot()
        executor = PipelineExecutor(build_flow_stages(),
                                    cache=self.stage_cache)
        ctx = FlowContext(graph=graph, arch=self.arch, deadline=deadline,
                          partitioner=self.partitioner,
                          comm_options=(self.reuse_memory,
                                        self.allow_direct_comm),
                          verify_options=(self.verify_max_states,
                                          self.verify_strategy),
                          codegen_options=self.simplify_guards)

        # HLS area feedback: partitioning works on the quick estimator;
        # if the *synthesized* datapath of a device overflows its CLB
        # capacity, a node is evicted to software and HLS reruns (the
        # estimate-update loop of iterative co-design flows).  Only the
        # partitioning/hls artifacts change here, so the executor never
        # touches the STG or communication stages inside this loop.
        problem = PartitioningProblem(graph, self.arch, deadline=deadline)
        repairs = 0
        while True:
            executor.request(ctx, ["hls_results"])
            hls_results: dict[str, SharedDatapathResult] = \
                ctx.get("hls_results")
            overflowing = [f for f in self.arch.fpgas
                           if hls_results[f.name].total_area_clbs
                           > f.clb_capacity]
            if not overflowing or not self.arch.processors:
                break
            with stage_timer("partitioning", executor.stage_seconds):
                worst = overflowing[0]
                partition: Partition = ctx.get("partition")
                node_areas = {
                    name: hls_results[worst.name].node_results[name].area_clbs
                    for name in partition.nodes_on(worst.name)}
                victim, partition, schedule, feasibility = \
                    select_eviction_victim(problem, partition, worst.name,
                                           node_areas,
                                           self.arch.processor_names[0])
                repairs += 1
                previous: PartitionResult = ctx.get("partition_result")
                partition_result = PartitionResult(
                    partition, schedule, feasibility, previous.algorithm,
                    previous.runtime_s,
                    {**previous.stats, "area_repairs": repairs})
            ctx.put("partition_result", partition_result)
            ctx.put("partition", partition)
            ctx.put("schedule", schedule)
            if repairs > len(graph):
                raise RuntimeError("HLS area repair failed to converge")
        if repairs:
            # remember the *converged* mapping for these inputs so the
            # next run with the same (graph, arch, deadline, partitioner)
            # skips the eviction search entirely
            executor.commit_outputs(ctx, "partitioning")

        # co-synthesis of the converged schedule: STG construction,
        # communication refinement, controllers, code generation.
        requested = ["minimization", "plan", "vhdl_files", "c_files",
                     "netlist"]
        if self.verify_composition:
            requested.append("composition_check")
        executor.request(ctx, requested)

        sim_result: SimResult | None = None
        if stimuli is not None:
            ctx.put("stimuli", stimuli)
            executor.request(ctx, ["sim_result"])
            sim_result = ctx.get("sim_result")

        hls_results = ctx.get("hls_results")
        c_files: dict[str, str] = ctx.get("c_files")
        design_time = DesignTimeReport(
            measured_stages=dict(executor.stage_seconds))
        design_time.hw_synthesis_s = self.design_time_model.hardware_seconds(
            {r: h.total_area_clbs for r, h in hls_results.items()})
        design_time.sw_compile_s = self.design_time_model.software_seconds(
            len(c_files))

        # the top-level dict artifacts (and partition stats) are copied
        # so the common caller mutations cannot corrupt the stage cache;
        # the deep co-synthesis artifacts (stg, plan, hls internals) are
        # shared with the cache and must be treated as read-only
        partition_result: PartitionResult = ctx.get("partition_result")
        partition_result = dataclasses.replace(
            partition_result, stats=dict(partition_result.stats))
        return FlowResult(
            graph=graph, arch=self.arch,
            partition_result=partition_result,
            stg_full=ctx.get("stg_full"), stg=ctx.get("stg"),
            minimization=ctx.get("minimization"),
            plan=ctx.get("plan"), controller=ctx.get("controller"),
            io_controller=ctx.get("io_controller"),
            datapath_controllers=dict(ctx.get("datapath_controllers")),
            hls_results=dict(hls_results),
            vhdl_files=dict(ctx.get("vhdl_files")), c_files=dict(c_files),
            netlist=ctx.get("netlist"),
            sim_result=sim_result,
            composition_check=ctx.get("composition_check")
            if self.verify_composition else None,
            guard_report=ctx.get("guard_report"),
            stage_seconds=dict(executor.stage_seconds),
            design_time=design_time,
            stage_runs=dict(executor.stage_runs),
            cache_stats=self.stage_cache.stats(since=cache_window),
        )
