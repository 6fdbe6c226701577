"""Unit tests of the benchmark's own helpers (no workload is run)."""

import json
from pathlib import Path

import pytest

import cool_layers
from cool_stats import (Tally, layer_self_times, percentile, quartile_spread,
                        tail_percentile, top_layer_seconds)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (49, 50.0), (50, 80.0),
    (99, 80.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_and_quartile_spread():
    assert percentile([5, 1, 3, 2, 4], 50) == pytest.approx(3)
    assert percentile([2.0] * 9, 80) == pytest.approx(2.0)
    assert percentile([7.0], 80) == pytest.approx(7.0)
    values = [float(v) for v in range(50)]
    assert percentile(values, 50) < percentile(values, 80) < 49
    assert percentile(values, 80) == pytest.approx(0.8 * 49, abs=1.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert quartile_spread([10.0] * 5) == 0.0


def _span(span_id, parent, name, kind, duration):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "kind": kind, "duration": duration, "attributes": {}}


def test_layer_self_time_skips_non_layer_spans():
    spans = [
        _span(1, None, "flow", "flow", 10.0),
        _span(2, 1, "verify", "layer", 8.0),
        _span(3, 2, "stage-ish", "stage", 5.0),
        _span(4, 3, "hls", "layer", 4.0),
        _span(5, 4, "hls", "layer", 1.0),
        _span(6, 1, "codegen", "layer", 1.5),
    ]
    totals = layer_self_times(spans)
    assert totals["verify"].calls == 1
    assert totals["verify"].busy_s == pytest.approx(4.0)
    assert totals["hls"].calls == 2
    assert totals["hls"].busy_s == pytest.approx(4.0)
    assert totals["codegen"].busy_s == pytest.approx(1.5)
    covered = top_layer_seconds(spans, "flow")
    assert covered == pytest.approx(9.5)
    assert covered == pytest.approx(sum(t.busy_s for t in totals.values()))


def test_tally_counts_failed_designs():
    tally = Tally()
    tally.record("a", [])
    tally.record("b", ["output y differs", "not equivalent"])
    tally.record("c", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert tally.reasons == ["b: output y differs; not equivalent"]
    assert Tally().failed_frac == 0.0


def _targets():
    return {target: getattr(*cool_layers._resolve(target))
            for _layer, target, _annotate in cool_layers.PROBES}


def test_probes_are_removed_before_untraced_runs():
    before = _targets()
    cool_layers.assert_clean()
    with pytest.raises(KeyError):
        with cool_layers.installed():
            assert len(cool_layers.installed_probes()) == \
                len(cool_layers.PROBES)
            with pytest.raises(RuntimeError):
                cool_layers.assert_clean()
            raise KeyError("interrupted traced pass")
    assert cool_layers.installed_probes() == []
    cool_layers.assert_clean()
    after = _targets()
    assert all(after[t] is before[t] for t in before)


def test_probe_records_a_layer_span():
    from repro.flow import pipeline
    from repro.obs import Tracer, activate
    tracer = Tracer()
    with cool_layers.installed(), activate(tracer):
        pipeline.fingerprint_of((1, "x"))
    [span] = tracer.spans()
    assert (span.name, span.kind) == ("pipeline.fingerprint", "layer")


def test_benchmark_json_lists_the_reported_metrics():
    from cool_report import END_TO_END, PER_LAYER
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


def test_repeat_tolerance_is_the_wall_bound():
    from cool_report import REPEAT_TOLERANCE
    spec = json.loads(BENCHMARK_JSON.read_text())
    [wall] = [m for m in spec["end_to_end"] if m["name"] == "wall_s"]
    assert REPEAT_TOLERANCE == wall["bound"]


class _Pass:
    def __init__(self, begun, wall_s):
        self.begun, self.wall_s = begun, wall_s


class _FlatMeter:
    def seconds(self, begin, end):
        return end - begin


def test_a_faster_repeat_is_a_problem():
    from cool_report import repeat_problems, repeat_ratios
    steady = [_Pass(0, 10.0), _Pass(10, 9.0), _Pass(19, 11.0)]
    assert repeat_ratios(steady, _FlatMeter()) == (1.0, 1.1)
    assert repeat_problems(steady, _FlatMeter()) == []
    memo = [_Pass(0, 10.0), _Pass(10, 7.0), _Pass(17, 8.0)]
    [problem] = repeat_problems(memo, _FlatMeter())
    assert problem.startswith("every later pass took at most 0.800")
    assert repeat_problems(memo[:1], _FlatMeter()) == []


def test_a_slow_first_pass_alone_is_not_a_memo():
    from cool_report import repeat_problems
    stalled = [_Pass(0, 12.0), _Pass(12, 8.0), _Pass(20, 9.0),
               _Pass(29, 10.5)]
    assert repeat_problems(stalled, _FlatMeter()) == []


def test_shard_metrics_of_a_sweep():
    from types import SimpleNamespace

    from cool_report import shard_values
    stats = SimpleNamespace(map_seconds=9.0, reduce_seconds=0.01,
                            shards=[{"seconds": 6.0}, {"seconds": 12.0}])
    values = shard_values(SimpleNamespace(stats=stats, payload_bytes=800))
    assert values == {"shard.map_s": 9.0, "shard.reduce_s": 0.01,
                      "shard.imbalance": pytest.approx(12.0 / 9.0),
                      "shard.payload_bytes": 800}
    assert set(shard_values(None).values()) == {0}


def test_payload_probe_is_removed_after_the_sweep():
    with cool_layers.payload_probe() as sizes:
        assert cool_layers.installed_probes() == [cool_layers.PAYLOAD_TARGET]
        with pytest.raises(RuntimeError):
            cool_layers.assert_clean()
    assert sizes == {}
    cool_layers.assert_clean()


def test_meter_scales_intervals_by_sampled_speed():
    from cool_meter import SpeedMeter
    meter = SpeedMeter()
    meter.times = [0.0, 2.0, 4.0, 6.0]
    meter.speeds = [1.0, 2.0, 1.0, 3.0]
    # the process runs throughout, but spends 0.1 s sampling at 2.0
    meter.clock = [0.0, 2.1, 4.0, 6.1]
    meter.work = [0.0, 2.0, 3.9, 6.0]
    # 2.1 s of wall time, 0.1 s of it sampling; samples at 1.0 and 2.0
    assert meter.seconds(0.0, 2.1) == pytest.approx(2.0 * 1.5)
    assert meter.seconds(0.0, 4.0) == pytest.approx(3.9 * 4 / 3)
    # a short interval takes its speed from a window around it ...
    assert meter.seconds(3.7, 3.8) == pytest.approx(0.1 * 1)
    # ... or from the samples either side when the window holds none
    assert meter.seconds(2.8, 2.9) == pytest.approx(0.1 * 1.5)
    assert meter.seconds(2.1, 6.1) == pytest.approx(4.0 * 2)
    assert meter.speed() == pytest.approx(7 / 4)
    with pytest.raises(RuntimeError):
        SpeedMeter().seconds(0.0, 1.0)


def test_meter_leaves_out_time_the_process_did_not_run():
    from cool_meter import SpeedMeter
    meter = SpeedMeter()
    meter.times, meter.speeds = [1.0, 2.0], [1.0, 1.0]
    # the CPU was taken away for half of [0, 2] and given back after
    meter.clock, meter.work = [0.0, 2.0, 4.0], [0.0, 1.0, 3.0]
    assert meter.seconds(0.0, 2.0) == pytest.approx(1.0)
    assert meter.seconds(2.0, 4.0) == pytest.approx(2.0)
    # past the last point the last rate holds
    assert meter.seconds(4.0, 5.0) == pytest.approx(1.0)


def test_meter_samples_while_active_and_restores_the_signal(monkeypatch):
    import signal
    import time

    import cool_meter
    monkeypatch.setattr(cool_meter, "PERIOD_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    with cool_meter.SpeedMeter() as meter:
        begun = time.perf_counter()
        while time.perf_counter() - begun < 0.1:
            pass
    assert len(meter.speeds) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert meter.seconds(begun, begun + 0.1) > 0
