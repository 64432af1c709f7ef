"""Tests of the benchmark itself: oracle, readers, spans, catalogue.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import common, oracle, scenario, tcp  # noqa: E402
from perfbench.layers import PER_LAYER, overhead_ratio  # noqa: E402
from perfbench.spans import SpanRecorder, self_time_table  # noqa: E402

# -- oracle ---------------------------------------------------------------


def _record(fr, receiver, *, t_forward=None, drop=None, node_ids=None):
    nid = node_ids or {i: i + 100 for i in range(64)}
    return SimpleNamespace(
        source=nid[fr.source], seqno=fr.seqno, receiver=nid[receiver],
        channel=fr.channel, t_origin=fr.t_origin, t_forward=t_forward,
        t_delivered=t_forward, drop_reason=drop,
    )


def _frame_and_good_records(channel=scenario.CH1, sender=9):
    inputs = scenario.make_inputs(3)
    orc = oracle.NeighborOracle({0: inputs.positions})
    fr = oracle.SentFrame(sender, 1, channel, 0.25, scenario.FRAME_BITS, 0)
    spec = oracle.SPECS[channel]
    recs = [
        _record(fr, r, t_forward=oracle.forward_time(spec, fr.t_origin, fr.size_bits, d))
        for r, d in orc.expected(0, sender, channel).items()
    ]
    index = {i + 100: i for i in range(64)}
    return fr, recs, orc, index


def test_oracle_accepts_exact_records():
    fr, recs, orc, index = _frame_and_good_records()
    res = oracle.check_records([fr], recs, orc, index)
    assert (res.failed, res.delivered, res.correct) == (0, 8, True)


def test_oracle_flags_wrong_receiver():
    fr, recs, orc, index = _frame_and_good_records()
    far = 63  # opposite grid corner from node 9
    recs[0] = _record(fr, far, t_forward=recs[0].t_forward)
    res = oracle.check_records([fr], recs, orc, index)
    assert res.failed == 1


def test_oracle_flags_wrong_t_forward():
    fr, recs, orc, index = _frame_and_good_records()
    recs[2].t_forward += 1e-6
    recs[2].t_delivered = recs[2].t_forward
    res = oracle.check_records([fr], recs, orc, index)
    assert res.failed == 1


def test_oracle_flags_delivery_off_t_forward():
    fr, recs, orc, index = _frame_and_good_records()
    recs[3].t_delivered = recs[3].t_forward + 1e-6
    res = oracle.check_records([fr], recs, orc, index)
    assert res.failed == 1


def test_oracle_flags_duplicate_delivery():
    fr, recs, orc, index = _frame_and_good_records()
    recs.append(recs[0])
    res = oracle.check_records([fr], recs, orc, index)
    assert res.failed == 1


def test_oracle_flags_missing_receiver_and_stray_record():
    fr, recs, orc, index = _frame_and_good_records()
    stray = SimpleNamespace(**{**vars(recs[0]), "seqno": 99})
    res = oracle.check_records([fr], recs[1:] + [stray], orc, index)
    assert res.failed == 1 and res.stray_records == 1 and not res.correct


def test_oracle_flags_loss_share_outside_binomial_interval():
    frames, recs = [], []
    inputs = scenario.make_inputs(3)
    orc = oracle.NeighborOracle({0: inputs.positions})
    index = {i + 100: i for i in range(64)}
    for seq in range(1, 200):
        fr = oracle.SentFrame(27, seq, scenario.CH2, 0.1 * seq, scenario.FRAME_BITS, 0)
        frames.append(fr)
        # Every receiver "lost": far beyond any modeled p(d) < 1.
        recs.extend(_record(fr, r, drop="loss-model") for r in orc.expected(0, 27, scenario.CH2))
    res = oracle.check_records(frames, recs, orc, index)
    assert res.failed == 0 and not res.loss_ok and not res.correct


def test_oracle_agrees_with_program_neighbor_tables_on_dragged_topology():
    from repro.core.geometry import Vec2
    from repro.core.ids import ChannelId
    from repro.core.neighbor import ChannelIndexedNeighborTables
    from repro.core.scene import Scene

    inputs = scenario.make_inputs(5)
    scene = Scene()
    radios = scenario.make_radios()
    for i, (x, y) in enumerate(inputs.positions):
        scene.add_node(i, Vec2(x, y), radios)
    tables = ChannelIndexedNeighborTables(scene)
    for barrier in (0, 7, 13):
        positions = inputs.drag_positions(barrier)
        for i, (x, y) in enumerate(positions):
            scene.move_node(i, Vec2(x, y))
        for spec in scenario.CHANNELS:
            for a in range(64):
                want = {j for j, _d in oracle.receivers(positions, a, spec)}
                assert set(tables.neighbors(a, ChannelId(spec.channel))) == want
                for j, _d in oracle.receivers(positions, a, spec):
                    d2 = (positions[a][0] - positions[j][0]) ** 2 + (positions[a][1] - positions[j][1]) ** 2
                    assert d2 != spec.range_sq


def test_two_inproc_rounds_pass_every_check():
    from perfbench.beacon import Beacons

    bench = Beacons(scenario.make_inputs(8), cluster=False, mobile=False)
    bench.setup()
    bench.run_round(0)
    bench.run_round(1)
    res = oracle.check_records(
        bench.frames, bench.all_records(), oracle.NeighborOracle(bench.topologies), bench.node_index
    )
    assert res.frames == 2 * 512
    assert res.failed == 0 and res.correct and res.delivered > 0


def test_tcp_check_flags_duplicate_and_wrong_forward_time():
    size = tcp.PAYLOAD_BYTES * 8
    good = tcp.LINK_DELAY + size / tcp.LINK_BW

    def pkt(src, seq, t_fwd):
        return SimpleNamespace(source=src, seqno=seq, t_origin=1.0, payload=b"x",
                               size_bits=size, t_forward=t_fwd, t_delivered=t_fwd)

    sent = [(0, 1, 1.0, b"x", False), (1, 1, 1.0, b"x", False), (0, 2, 1.0, b"x", False)]
    arrivals = [
        [(1.0 + good, pkt(20, 1, 1.0 + good))],  # client 0 hears node 20 (client 1)
        [(1.0 + good, pkt(10, 1, 1.0 + good)),  # client 1 hears frame 10/1 ...
         (1.0 + good, pkt(10, 1, 1.0 + good)),  # ... twice
         (1.0 + good, pkt(10, 2, 1.0 + 2 * good))],  # and 10/2 with a wrong t_forward
    ]
    out = tcp._check(sent, arrivals, [10, 20])
    assert out["delivered"] == 1 and out["failed"] == 2


# -- readers ----------------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(vals, 50) == 3.0
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert common.percentile([1.0, 2.0, 3.0, 4.0], 99) == pytest.approx(3.97)
    assert common.percentile(list(range(101)), 99) == 99.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_schedstat_parser_reads_nanoseconds_on_cpu():
    assert common.parse_schedstat("1234567890 55 7\n") == pytest.approx(1.23456789)


def test_status_parser_reads_rss_and_threads():
    text = "Name:\tpython3\nVmHWM:\t   2048 kB\nVmRSS:\t   1024 kB\nThreads:\t7\n"
    fields = common.parse_status(text)
    assert common.kb_field_mb(fields, "VmHWM") == 2.0
    assert int(fields["Threads"]) == 7
    with pytest.raises(ValueError):
        common.kb_field_mb({"VmHWM": "3 MB"}, "VmHWM")


def test_proc_readers_on_this_process():
    c0, p0 = common.cpu_seconds(), time.process_time()
    t_end = p0 + 0.2
    while time.process_time() < t_end:
        pass
    used = common.cpu_seconds() - c0
    assert used == pytest.approx(time.process_time() - p0, rel=0.05)
    assert common.peak_rss_mb() > 1.0
    assert common.thread_count() >= 1


# -- spans --------------------------------------------------------------------


class _Layer:
    def outer(self, n):
        t_end = time.perf_counter() + 0.002
        while time.perf_counter() < t_end:
            pass
        return self.inner(n) + 1

    def inner(self, n):
        t_end = time.perf_counter() + 0.004
        while time.perf_counter() < t_end:
            pass
        return n

    @classmethod
    def build(cls, n):
        return n * 2


def test_span_recorder_self_time_and_uninstall():
    raw_outer = _Layer.__dict__["outer"]
    raw_build = _Layer.__dict__["build"]
    rec = SpanRecorder(process="test")
    rec.wrap(_Layer, "outer", "layer.outer")
    rec.wrap(_Layer, "inner", "layer.inner", lambda res, _a, _k: rec.count("inner.sum", res))
    rec.wrap(_Layer, "build", "layer.build")
    rec.install()
    assert _Layer().outer(3) == 4
    assert _Layer.build(4) == 8
    rec.uninstall()
    assert _Layer.__dict__["outer"] is raw_outer and _Layer.__dict__["build"] is raw_build
    _Layer().outer(1)  # untraced: not counted
    stats = rec.stats()
    calls, total, own = stats["layer.outer"]
    assert calls == 1 and own < total
    assert total - own == pytest.approx(stats["layer.inner"][1], rel=0.01)
    assert rec.counters["inner.sum"] == 3
    assert stats["layer.build"][0] == 1
    table = self_time_table([rec.export()])
    assert "layer.outer" in table and "layer.inner" in table


def test_overhead_ratio_compares_medians():
    walls = [(False, 1.0), (True, 1.2), (False, 1.1), (True, 1.3), (False, 0.9)]
    assert overhead_ratio(walls) == pytest.approx(1.25 / 1.0)


# -- catalogue ----------------------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u in PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _n, u in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == ["inproc_beacon", "cluster_mobile", "tcp_live"]
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert {"setup_s", "deliveries_per_s", "peak_rss_mb", "server_cpu_us_per_frame"} <= e2e
