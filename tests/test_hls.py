"""Unit + property tests for the high-level synthesis substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import fuzzy_controller
from repro.graph import from_mapping, make_node
from repro.hls import (Dfg, HlsError, alap_schedule, allocate_for_latency,
                       allocate_minimal, asap_schedule, bind,
                       datapath_area_clbs, expand_node,
                       force_directed_schedule, list_schedule_ops,
                       share_datapath, synthesize_node, synthesize_resource)
from repro.platform import cool_board, xc4005
from repro.workloads import workload_suite


def fir_node(taps=4, words=8):
    return make_node("f", "fir", {"taps": tuple(range(1, taps + 1))},
                     words=words)


def chain_dfg(length=5, category="add"):
    dfg = Dfg("chain")
    prev = None
    for _ in range(length):
        prev = dfg.add_op(category, (prev,) if prev is not None else ())
    return dfg


class TestDfg:
    def test_add_op_dependency_check(self):
        dfg = Dfg("t")
        with pytest.raises(HlsError):
            dfg.add_op("add", (42,))

    def test_topological_order(self):
        dfg = chain_dfg(4)
        assert dfg.topological_order() == [0, 1, 2, 3]

    def test_critical_path(self):
        dfg = chain_dfg(5, "mul")
        assert dfg.critical_path(lambda c: 2) == 10

    def test_categories(self):
        dfg = Dfg("t")
        dfg.add_op("add")
        dfg.add_op("add")
        dfg.add_op("mul")
        assert dfg.categories() == {"add": 2, "mul": 1}

    @staticmethod
    def _brute_force_successors(dfg):
        return {uid: [op.uid for op in dfg.ops.values() if uid in op.inputs]
                for uid in dfg.ops}

    def test_successor_map_lists_a_repeated_input_once(self):
        dfg = Dfg("square")
        x = dfg.add_op("add")
        y = dfg.add_op("mul", (x, x))
        z = dfg.add_op("add", (y, x, y))
        assert dfg.successor_map() == {x: [y, z], y: [z], z: []}
        assert dfg.successor_map() == self._brute_force_successors(dfg)

    def test_successor_map_matches_brute_force_on_the_suite(self):
        dfgs = 0
        for spec in workload_suite(50, seed=7):
            for node in spec.build().internal_nodes():
                dfg = expand_node(node)
                assert dfg.successor_map() == \
                    self._brute_force_successors(dfg), node.name
                dfgs += 1
        assert dfgs > 800


class TestExpand:
    def test_mov_dropped(self):
        node = make_node("c", "copy", words=4)
        assert len(expand_node(node)) == 0

    def test_op_counts_match_mix(self):
        node = fir_node(taps=4, words=8)
        dfg = expand_node(node)
        # 4 taps x 8 words MACs (movs dropped)
        assert dfg.categories() == {"mac": 32}

    def test_lane_parallelism(self):
        node = fir_node(taps=4, words=8)
        dfg = expand_node(node)
        fpga = xc4005()
        # 8 independent lanes: with 8 FUs the critical path is 4 MACs
        assert dfg.critical_path(fpga.latency_for) == \
            4 * fpga.latency_for("mac")


class TestSchedulers:
    @pytest.fixture
    def fir_dfg(self):
        return expand_node(fir_node(taps=4, words=8))

    def test_asap_respects_deps(self, fir_dfg):
        fpga = xc4005()
        schedule = asap_schedule(fir_dfg, fpga.latency_for)
        assert schedule.validate() == []

    def test_alap_not_longer_than_deadline(self, fir_dfg):
        fpga = xc4005()
        asap = asap_schedule(fir_dfg, fpga.latency_for)
        alap = alap_schedule(fir_dfg, fpga.latency_for,
                             deadline=asap.length + 10)
        assert alap.length <= asap.length + 10
        assert alap.validate() == []

    def test_alap_infeasible_deadline(self, fir_dfg):
        with pytest.raises(HlsError):
            alap_schedule(fir_dfg, xc4005().latency_for, deadline=1)

    def test_list_schedule_respects_fu_limits(self, fir_dfg):
        fpga = xc4005()
        for n_fus in (1, 2, 4):
            schedule = list_schedule_ops(fir_dfg, fpga.latency_for,
                                         {"mac": n_fus})
            assert schedule.validate({"mac": n_fus}) == []

    def test_more_fus_never_slower(self, fir_dfg):
        fpga = xc4005()
        lengths = [list_schedule_ops(fir_dfg, fpga.latency_for,
                                     {"mac": n}).length
                   for n in (1, 2, 4, 8)]
        assert lengths == sorted(lengths, reverse=True)

    def test_single_fu_length_is_serial(self, fir_dfg):
        fpga = xc4005()
        schedule = list_schedule_ops(fir_dfg, fpga.latency_for, {"mac": 1})
        assert schedule.length == 32 * fpga.latency_for("mac")

    def test_missing_fu_limit_rejected(self, fir_dfg):
        with pytest.raises(HlsError):
            list_schedule_ops(fir_dfg, xc4005().latency_for, {})

    def test_force_directed_valid(self, fir_dfg):
        fpga = xc4005()
        schedule = force_directed_schedule(fir_dfg, fpga.latency_for)
        assert [p for p in schedule.validate() if "starts before" in p] == []

    def test_force_directed_balances_usage(self, fir_dfg):
        fpga = xc4005()
        asap = asap_schedule(fir_dfg, fpga.latency_for)
        forced = force_directed_schedule(fir_dfg, fpga.latency_for)
        # same latency bound, but peak FU demand must not be worse
        assert forced.fu_usage()["mac"] <= asap.fu_usage()["mac"]


    def test_list_schedule_with_a_repeated_input(self):
        # mul(x, x) waits on one predecessor, not two
        dfg = Dfg("square")
        x = dfg.add_op("add")
        y = dfg.add_op("mul", (x, x))
        dfg.add_op("add", (y, x))
        sched = list_schedule_ops(dfg, lambda c: 1, {"add": 1, "mul": 1})
        assert sched.start == {0: 0, 1: 1, 2: 2}
        assert sched.validate({"add": 1, "mul": 1}) == []


class TestAllocation:
    def test_minimal_one_per_category(self):
        dfg = expand_node(fir_node())
        assert allocate_minimal(dfg) == {"mac": 1}

    def test_allocate_for_latency_adds_fus(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=8))
        serial = list_schedule_ops(dfg, fpga.latency_for, {"mac": 1}).length
        allocation = allocate_for_latency(dfg, fpga.latency_for,
                                          fpga.area_for,
                                          target_latency=serial // 3)
        assert allocation["mac"] >= 2

    def test_unreachable_latency_raises(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=8, words=1))  # one serial lane
        with pytest.raises(HlsError):
            allocate_for_latency(dfg, fpga.latency_for, fpga.area_for,
                                 target_latency=2, max_fus_per_category=4)


class TestBinding:
    def test_fu_counts_match_schedule_peak(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=8))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": 3})
        binding = bind(schedule)
        assert binding.fu_counts["mac"] <= 3

    def test_no_fu_double_booking(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=8))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": 2})
        binding = bind(schedule)
        for category, count in binding.fu_counts.items():
            for index in range(count):
                ops = binding.ops_on_fu(category, index)
                slots = sorted((schedule.start[u],
                                schedule.start[u]
                                + schedule.latency_of[category])
                               for u in ops)
                for (s1, e1), (s2, e2) in zip(slots, slots[1:]):
                    assert s2 >= e1

    def test_register_lifetimes_disjoint(self):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=4, words=4))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": 2})
        binding = bind(schedule)
        regs: dict[int, list[int]] = {}
        for uid, reg in binding.register_of.items():
            regs.setdefault(reg, []).append(uid)
        # registers exist and are reused (fewer registers than values)
        assert binding.register_count <= len(dfg)


class TestSynthesizeNode:
    def test_fir_fits_xc4005(self):
        result = synthesize_node(fir_node(taps=5, words=16), xc4005())
        assert 0 < result.area_clbs <= 196
        assert result.latency_cycles > 0

    def test_pure_move_node_degenerates(self):
        node = make_node("c", "copy", words=4)
        result = synthesize_node(node, xc4005())
        assert result.area_clbs == 1
        assert result.latency_cycles == 1

    def test_quick_estimate_brackets_hls(self):
        """The pre-partitioning estimator must be in the HLS ballpark."""
        from repro.estimate import hw_area_clbs, hw_cycles
        fpga = xc4005()
        for node in (fir_node(taps=5, words=16),
                     make_node("d", "defuzz",
                               {"centroids": (0, 50, 100)}, words=1),
                     make_node("g", "gain", {"factor": 3}, words=8)):
            estimate = hw_cycles(node, fpga)
            actual = synthesize_node(node, fpga).latency_cycles
            assert actual <= 4 * estimate + 8
            assert estimate <= 4 * actual + 8
            est_area = hw_area_clbs(node, fpga)
            act_area = synthesize_node(node, fpga).area_clbs
            assert act_area <= 4 * est_area
            assert est_area <= 4 * act_area + 8

    def test_target_latency_reduces_cycles(self):
        fpga = xc4005()
        node = fir_node(taps=4, words=8)
        lazy = synthesize_node(node, fpga)
        target = lazy.latency_cycles // 2
        eager = synthesize_node(node, fpga, target_latency=target)
        assert eager.latency_cycles <= target
        assert eager.area_clbs >= lazy.area_clbs

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(HlsError):
            synthesize_node(fir_node(), xc4005(), scheduler="magic")


class TestSynthesizeResource:
    def test_sharing_cheaper_than_sum(self):
        graph = fuzzy_controller()
        arch = cool_board()
        hw = ["rule00", "rule01", "rule02", "rule10"]
        mapping = {n.name: ("fpga0" if n.name in hw else "dsp0")
                   for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        shared = synthesize_resource(graph, partition, "fpga0",
                                     arch.fpga("fpga0"))
        individual = sum(r.area_clbs for r in shared.node_results.values())
        assert shared.datapath_area_clbs < individual

    def test_latencies_for_all_nodes(self):
        graph = fuzzy_controller()
        arch = cool_board()
        hw = ["fz_e", "defuzz"]
        mapping = {n.name: ("fpga0" if n.name in hw else "dsp0")
                   for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        shared = synthesize_resource(graph, partition, "fpga0",
                                     arch.fpga("fpga0"))
        assert set(shared.latencies) == set(hw)
        assert all(v >= 1 for v in shared.latencies.values())

    def test_resharing_kept_results_equals_fresh_synthesis(self):
        # removing a node from a resource and re-sharing the results
        # kept for the others is what HLS area repair relies on
        graph = fuzzy_controller()
        arch = cool_board()
        fpga = arch.fpga("fpga0")
        hw = ["rule00", "rule01", "rule02", "rule10"]

        def partition_of(names):
            mapping = {n.name: ("fpga0" if n.name in names else "dsp0")
                       for n in graph.internal_nodes()}
            return from_mapping(graph, mapping, arch.fpga_names,
                                arch.processor_names)

        full = synthesize_resource(graph, partition_of(hw), "fpga0", fpga)
        kept = {name: result for name, result in full.node_results.items()
                if name != "rule01"}
        reshared = share_datapath(graph, "fpga0", kept, fpga)
        fresh = synthesize_resource(graph, partition_of(set(hw) - {"rule01"}),
                                    "fpga0", fpga)
        assert list(reshared.node_results) == list(fresh.node_results)
        assert reshared.shared_rtl == fresh.shared_rtl
        assert reshared.datapath_area_clbs == fresh.datapath_area_clbs
        assert reshared.controller_area_clbs == fresh.controller_area_clbs
        assert reshared.total_area_clbs < full.total_area_clbs

    def test_empty_resource(self):
        graph = fuzzy_controller()
        arch = cool_board()
        mapping = {n.name: "dsp0" for n in graph.internal_nodes()}
        partition = from_mapping(graph, mapping, arch.fpga_names,
                                 arch.processor_names)
        shared = synthesize_resource(graph, partition, "fpga0",
                                     arch.fpga("fpga0"))
        assert shared.total_area_clbs == 0
        assert shared.latencies == {}


class TestHlsPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=4))
    def test_schedule_always_valid_and_monotone(self, taps, words, fus):
        fpga = xc4005()
        dfg = expand_node(fir_node(taps=taps, words=words))
        schedule = list_schedule_ops(dfg, fpga.latency_for, {"mac": fus})
        assert schedule.validate({"mac": fus}) == []
        binding = bind(schedule)
        assert binding.fu_counts.get("mac", 0) <= fus
        rtl_area = datapath_area_clbs(
            __import__("repro.hls.rtl", fromlist=["build_rtl"]).build_rtl(
                "t", 16, schedule, binding), fpga)
        assert rtl_area >= 1
