"""Direct unit tests for the co-simulation component models."""

import pytest

from repro.controllers import FixedPriorityArbiter, RoundRobinArbiter
from repro.graph import TaskGraph, make_node
from repro.platform import MemoryDevice
from repro.sim import BusModel, BusRequest, MemoryModel, SimError, UnitSim
from repro.stg.memory import MemoryCell, MemoryMap


def small_map():
    cells = {
        "e1": MemoryCell("e1", 0x100, 4, 0, 10),
        "e2": MemoryCell("e2", 0x104, 4, 5, 20),
        "e3": MemoryCell("e3", 0x100, 4, 12, 30),  # reuses e1's block
    }
    return MemoryMap("sram", 0x100, cells, reuse=True)


class TestMemoryModel:
    def test_write_then_read_roundtrip(self):
        mem = MemoryModel(MemoryDevice("sram", 4096, base_address=0x100),
                          small_map())
        mem.write_cell("e1", [1, 2, 3, 4])
        assert mem.read_cell("e1", 4) == [1, 2, 3, 4]
        assert mem.stats()["writes"] == 4

    def test_oversized_payload_rejected(self):
        mem = MemoryModel(MemoryDevice("sram", 4096, base_address=0x100),
                          small_map())
        with pytest.raises(ValueError):
            mem.write_cell("e1", [0] * 5)

    def test_out_of_device_rejected(self):
        mem = MemoryModel(MemoryDevice("sram", 4, base_address=0x100,
                                       word_bytes=2), small_map())
        with pytest.raises(ValueError):
            mem.write_cell("e2", [1, 2, 3, 4])

    def test_unwritten_reads_zero(self):
        mem = MemoryModel(MemoryDevice("sram", 4096, base_address=0x100),
                          small_map())
        assert mem.read_cell("e2", 4) == [0, 0, 0, 0]


class TestBusModel:
    def test_single_burst_lifecycle(self):
        bus = BusModel(FixedPriorityArbiter(["a"]))
        bus.request(BusRequest("e1", "write", "a", 3, [9]))
        done = [bus.step() for _ in range(5)]
        completed = [d for d in done if d is not None]
        assert len(completed) == 1
        assert completed[0].edge == "e1"
        assert "e1" in bus.written_edges

    def test_read_waits_for_write(self):
        bus = BusModel(FixedPriorityArbiter(["a"]))
        bus.request(BusRequest("e1", "read", "a", 1))
        for _ in range(4):
            assert bus.step() is None  # never granted
        bus.mark_written("e1")
        results = [bus.step() for _ in range(3)]
        assert any(r is not None and r.kind == "read" for r in results)

    def test_write_interlock_blocks_until_read(self):
        bus = BusModel(FixedPriorityArbiter(["a", "b"]),
                       write_interlocks={"e3": {"e1"}})
        bus.request(BusRequest("e3", "write", "b", 1, [5]))
        for _ in range(3):
            assert bus.step() is None  # e3 blocked on e1's read
        bus.mark_written("e1")
        bus.request(BusRequest("e1", "read", "a", 1))
        completed = []
        for _ in range(6):
            done = bus.step()
            if done:
                completed.append((done.edge, done.kind))
        assert ("e1", "read") in completed
        assert ("e3", "write") in completed
        assert completed.index(("e1", "read")) < \
            completed.index(("e3", "write"))

    def test_round_robin_fairness_on_bus(self):
        bus = BusModel(RoundRobinArbiter(["a", "b"]))
        for i in range(4):
            bus.request(BusRequest(f"ea{i}", "write", "a", 1, []))
            bus.request(BusRequest(f"eb{i}", "write", "b", 1, []))
        masters = []
        for _ in range(20):
            done = bus.step()
            if done:
                masters.append(done.master)
        assert masters.count("a") == 4
        assert masters.count("b") == 4
        # strict alternation under round robin
        assert all(x != y for x, y in zip(masters, masters[1:]))

    def test_busy_accounting(self):
        bus = BusModel(FixedPriorityArbiter(["a"]))
        bus.request(BusRequest("e1", "write", "a", 4, []))
        for _ in range(8):
            bus.step()
        assert bus.stats()["busy_ticks"] == 4
        assert bus.stats()["granted_bursts"] == 1


    def test_grant_ready_only_for_a_free_bus_with_a_grantable_burst(self):
        bus = BusModel(FixedPriorityArbiter(["a"]))
        bus.request(BusRequest("e1", "read", "a", 1))
        assert not bus.grant_ready()  # read of an unwritten edge
        bus.request(BusRequest("e1", "write", "a", 3, [1]))
        assert bus.grant_ready()
        bus.step()
        assert not bus.grant_ready()  # busy with the write

    def test_advance_equals_steps(self):
        stepped = BusModel(FixedPriorityArbiter(["a"]))
        advanced = BusModel(FixedPriorityArbiter(["a"]))
        for bus in (stepped, advanced):
            bus.request(BusRequest("e1", "write", "a", 6, [1]))
            bus.step()
        for _ in range(4):
            assert stepped.step() is None
        advanced.advance(4)
        assert (advanced.busy_ticks, advanced.remaining) \
            == (stepped.busy_ticks, stepped.remaining) == (4, 2)
        assert advanced.step() is None and stepped.step() is None
        assert advanced.step().edge == stepped.step().edge == "e1"
        advanced.advance(3)  # an idle bus stays idle
        assert advanced.busy_ticks == 6


class TestUnitSim:
    def graph(self):
        g = TaskGraph("t")
        g.add_node(make_node("in0", "input", words=2))
        g.add_node(make_node("g", "gain", {"factor": 3}, words=2))
        g.add_node(make_node("out0", "output", words=2))
        g.add_edge("in0", "g")
        g.add_edge("g", "out0")
        return g

    def test_compute_after_latency(self):
        g = self.graph()
        unit = UnitSim("cpu", g, {"g": 3})
        unit.deliver("in0__to__g_p0", [1, 2])
        unit.start("g", {"in0__to__g_p0"})
        assert unit.step() is None
        assert unit.step() is None
        assert unit.step() == "g"
        assert unit.value_of("g") == [3, 6]

    def test_waits_for_delivery(self):
        g = self.graph()
        unit = UnitSim("cpu", g, {"g": 1})
        unit.start("g", {"in0__to__g_p0"})
        for _ in range(5):
            assert unit.step() is None  # stalled: operand missing
        unit.deliver("in0__to__g_p0", [4, 4])
        assert unit.step() == "g"

    def test_advance_equals_steps(self):
        g = self.graph()
        stepped = UnitSim("cpu", g, {"g": 5})
        advanced = UnitSim("cpu", g, {"g": 5})
        for unit in (stepped, advanced):
            unit.start("g", {"in0__to__g_p0"})
        advanced.advance(3)  # stalled on its operand: no compute ticks
        assert advanced.busy_ticks == 0 and not advanced.computing
        for unit in (stepped, advanced):
            unit.deliver("in0__to__g_p0", [1, 2])
        for _ in range(4):
            assert stepped.step() is None
        advanced.advance(4)
        assert advanced.computing and advanced.active.started_compute
        assert (advanced.busy_ticks, advanced.active.remaining) \
            == (stepped.busy_ticks, stepped.active.remaining) == (4, 1)
        assert advanced.step() == stepped.step() == "g"

    def test_double_start_rejected(self):
        g = self.graph()
        unit = UnitSim("cpu", g, {"g": 5})
        unit.start("g", set())
        with pytest.raises(SimError):
            unit.start("g", set())

    def test_input_unit_uses_stimulus(self):
        g = self.graph()
        unit = UnitSim("io", g, {"in0": 1}, stimuli={"in0": [7, 8]})
        unit.start("in0", set())
        assert unit.step() == "in0"
        assert unit.value_of("in0") == [7, 8]

    def test_missing_stimulus_raises(self):
        g = self.graph()
        unit = UnitSim("io", g, {"in0": 1})
        unit.start("in0", set())
        with pytest.raises(SimError):
            unit.step()

    def test_output_unit_records(self):
        g = self.graph()
        unit = UnitSim("io", g, {"out0": 1})
        unit.deliver("g__to__out0_p0", [9, 9])
        unit.start("out0", {"g__to__out0_p0"})
        assert unit.step() == "out0"
        assert unit.outputs["out0"] == [9, 9]

    def test_reset_clears_state(self):
        g = self.graph()
        unit = UnitSim("cpu", g, {"g": 1})
        unit.deliver("in0__to__g_p0", [1, 1])
        unit.start("g", set())
        unit.step()
        unit.reset()
        assert unit.active is None
        assert unit.local_values == {}
        with pytest.raises(SimError):
            unit.value_of("g")
