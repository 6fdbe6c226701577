"""Differential tests: the two list-scheduling kernels against references.

``repro.hls.schedule.list_schedule_ops`` (per-category heaps, next-event
time) and ``repro.schedule.list_scheduler.list_schedule`` (compiled cost
tables, heap ready queue, bisect timelines) must reproduce the
step-by-step schedulers they replaced bit for bit: the same start
times, entries in the same order, the same bus transfers, the same
fingerprints and the same error text.  The references live in
``reference_schedulers.py``.

The property tests pin no ``max_examples``, so ``HYPOTHESIS_PROFILE=ci``
(``conftest.py``) runs them at 500 examples each.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_schedulers as ref
import repro.partition.base as partition_base
from repro.estimate import CostModel
from repro.graph import GraphError, TaskGraph, all_software, make_node
from repro.hls import Dfg, HlsError, allocate_minimal, expand_node, list_schedule_ops
from repro.hls.dfg import DfgOp
from repro.partition import PartitioningProblem
from repro.partition.heuristic import GreedyPartitioner
from repro.platform import TargetArchitecture, cool_board, minimal_board, xc4005
from repro.schedule import list_schedule
from repro.workloads import build_graphs, workload_suite
from test_schedule import random_partition

CATEGORIES = ("add", "mul", "cmp", "div")
BOARDS = (minimal_board, cool_board)


def outcome(scheduler, *args):
    """The scheduler's result, or the type and text of what it raised."""
    try:
        return scheduler(*args)
    except (HlsError, GraphError) as exc:
        return type(exc), str(exc)


def hls_key(result):
    if isinstance(result, tuple):
        return result
    return list(result.start.items()), result.latency_of


def schedule_key(result):
    if isinstance(result, tuple):
        return result
    return (list(result.entries.items()), result.transfers,
            result.fingerprint())


def assert_hls_matches(dfg, latency_of, limits):
    got = outcome(list_schedule_ops, dfg, latency_of, limits)
    want = outcome(ref.list_schedule_ops, dfg, latency_of, limits)
    assert hls_key(got) == hls_key(want)


def assert_schedule_matches(partition, model):
    got = outcome(list_schedule, partition, model)
    want = outcome(ref.list_schedule, partition, model)
    assert schedule_key(got) == schedule_key(want)


@st.composite
def random_dfgs(draw):
    """0-40 ops over four categories; inputs may repeat."""
    dfg = Dfg("fuzz")
    for uid in range(draw(st.integers(min_value=0, max_value=40))):
        inputs = draw(st.lists(st.integers(min_value=0, max_value=uid - 1),
                               max_size=3)) if uid else []
        dfg.add_op(draw(st.sampled_from(CATEGORIES)), tuple(inputs))
    latency = {c: draw(st.integers(min_value=0, max_value=5))
               for c in CATEGORIES}
    limits = {c: draw(st.integers(min_value=1, max_value=4))
              for c in CATEGORIES}
    return dfg, latency.__getitem__, limits


def suite_graphs(count):
    return build_graphs(workload_suite(50, seed=7))[:count]


class TestHlsKernel:
    @settings(deadline=None)
    @given(random_dfgs())
    def test_random_dfgs_match_reference(self, case):
        assert_hls_matches(*case)

    def test_suite_nodes_match_reference(self):
        cases = 0
        for graph in suite_graphs(10):
            for board in BOARDS:
                for fpga in board().fpgas:
                    for node in graph.internal_nodes():
                        dfg = expand_node(node)
                        if len(dfg):
                            assert_hls_matches(dfg, fpga.latency_for,
                                               allocate_minimal(dfg))
                            cases += 1
        assert cases > 300

    def test_topological_order_matches_reference_on_suite(self):
        for graph in suite_graphs(50):
            for node in graph.internal_nodes():
                dfg = expand_node(node)
                assert dfg.topological_order() == ref.topological_order(dfg)

    def test_repeated_input_order_matches_reference(self):
        dfg = Dfg("repeat")
        a = dfg.add_op("add")
        b = dfg.add_op("add")
        dfg.add_op("mul", (b, a, b))
        dfg.add_op("mul", (a, a))
        assert dfg.topological_order() == ref.topological_order(dfg)

    def test_empty_dfg(self):
        assert_hls_matches(Dfg("empty"), {}.__getitem__, {})
        assert list_schedule_ops(Dfg("empty"), {}.__getitem__, {}).start == {}

    @pytest.mark.parametrize("limits", [{}, {"add": 0, "mul": 2},
                                        {"add": 1}])
    def test_bad_fu_limits_same_error(self, limits):
        dfg = Dfg("limits")
        dfg.add_op("mul", (dfg.add_op("add"),))
        latency_of = {"add": 1, "mul": 2}.__getitem__
        assert_hls_matches(dfg, latency_of, limits)
        with pytest.raises(HlsError):
            list_schedule_ops(dfg, latency_of, limits)

    def test_cyclic_dfg_same_error(self):
        dfg = Dfg("loop")
        dfg.ops = {0: DfgOp(0, "add", (1,)), 1: DfgOp(1, "add", (0,))}
        assert_hls_matches(dfg, {"add": 1}.__getitem__, {"add": 1})
        with pytest.raises(HlsError, match="contains a cycle"):
            list_schedule_ops(dfg, {"add": 1}.__getitem__, {"add": 1})


class TestTaskKernel:
    @settings(deadline=None)
    @given(st.integers(min_value=8, max_value=40),
           st.integers(min_value=0, max_value=999),
           st.integers(min_value=0, max_value=999),
           st.sampled_from(BOARDS))
    def test_random_graph_random_mapping_match_reference(self, n, seed, pseed,
                                                         board):
        assert_schedule_matches(*random_partition(n, seed, pseed, board()))

    @pytest.mark.parametrize("board", BOARDS, ids=lambda b: b.__name__)
    def test_greedy_trials_match_reference(self, board, monkeypatch):
        trials = []

        def both(partition, model):
            got = list_schedule(partition, model)
            want = ref.list_schedule(partition, model)
            trials.append(schedule_key(got) == schedule_key(want))
            return got

        monkeypatch.setattr(partition_base, "list_schedule", both)
        for graph in suite_graphs(10):
            GreedyPartitioner().partition(PartitioningProblem(graph, board()))
        assert len(trials) > 100
        assert all(trials)

    def test_board_without_processor(self):
        arch = TargetArchitecture("hw_only",
                                  fpgas=(xc4005("fpga0"), xc4005("fpga1")))
        for seed in range(5):
            assert_schedule_matches(*random_partition(20, seed, seed, arch))

    def test_mapping_without_cut_edge(self):
        graph = TaskGraph("local")
        for i in range(4):
            graph.add_node(make_node(f"n{i}", "abs"))
        graph.add_edge("n0", "n1")
        graph.add_edge("n0", "n2")
        graph.add_edge("n2", "n3")
        arch = minimal_board()
        partition = all_software(graph, arch.processor_names[0],
                                 arch.fpga_names)
        assert partition.cut_edges() == []
        model = CostModel(graph, arch)
        assert_schedule_matches(partition, model)
        assert list_schedule(partition, model).transfers == []

    def test_cyclic_graph_same_error(self):
        graph = TaskGraph("loop")
        for i in range(3):
            graph.add_node(make_node(f"n{i}", "abs"))
        graph.add_edge("n0", "n1")
        graph.add_edge("n1", "n2")
        graph.add_edge("n2", "n1", dst_port=1)
        arch = minimal_board()
        partition = all_software(graph, arch.processor_names[0],
                                 arch.fpga_names)
        model = CostModel(graph, arch)
        assert_schedule_matches(partition, model)
        with pytest.raises(GraphError, match="contains a cycle"):
            list_schedule(partition, model)

    def test_tables_follow_graph_mutation(self):
        graph = TaskGraph("grow")
        for i in range(3):
            graph.add_node(make_node(f"n{i}", "abs"))
        graph.add_edge("n0", "n1")
        arch = minimal_board()
        model = CostModel(graph, arch)
        partition = all_software(graph, arch.processor_names[0],
                                 arch.fpga_names)
        assert_schedule_matches(partition, model)
        graph.add_node(make_node("n3", "abs"))
        graph.add_edge("n2", "n3")
        partition = all_software(graph, arch.processor_names[0],
                                 arch.fpga_names)
        assert_schedule_matches(partition, model)
        assert len(model.schedule_tables().names) == 4
