"""The beacon workloads: ``inproc_beacon`` and ``cluster_mobile``.

Both run the same 64 dual-radio nodes and the same seeded beacon
timetable, in whole *rounds*: four beacon periods (512 frames), then one
quiet barrier period in which every scheduled frame falls due.

* ``inproc_beacon`` — an :class:`InProcessEmulator` (telemetry on, its
  default) on the static grid.  The load generator advances the virtual
  clock to each beacon's instant and transmits.
* ``cluster_mobile`` — a 1-worker :class:`ShardedEmulator` (telemetry
  off, its default).  Once per 10 ms barrier period the benchmark drags
  every node to its next path point with ``scene.move_node`` and then
  runs the ``flush`` barrier; each round ends with one ``collect()``.

``--inproc-comparator`` runs the cluster script (drags, same rounds) on
an :class:`InProcessEmulator` instead: the simplest design doing the same
job, for the README's reference figures.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from . import common, oracle, scenario
from .common import metric, note
from .spans import SpanRecorder

#: Set-ups per run; the median is reported and the last one is used.
SETUP_REPEATS = {"inproc": 41, "cluster": 121}
#: Peak RSS is read after this many rounds (a fixed amount of work), so
#: a faster program is not charged for the extra rounds it fits in.
RSS_MARK_ROUNDS = {"inproc": 40, "cluster": 20}


class Beacons:
    """One deployment of the beacon scenario, driven round by round."""

    def __init__(self, inputs: scenario.Inputs, *, cluster: bool, mobile: bool, workers: int = 1):
        self.inputs = inputs
        self.cluster = cluster
        self.mobile = mobile
        self.workers = workers
        self.emu = None
        self.hosts: list = []
        self.node_index: dict[int, int] = {}
        self.frames: list[oracle.SentFrame] = []
        self.records: list = []
        self.topologies: dict[int, list] = {0: inputs.positions}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        from repro.core.geometry import Vec2

        seed = self.inputs.seed
        if self.cluster:
            from repro.cluster import ShardedEmulator

            emu = ShardedEmulator(n_workers=self.workers, seed=seed)
        else:
            from repro.core.server import InProcessEmulator

            emu = InProcessEmulator(seed=seed)
        radios = scenario.make_radios()
        self.hosts = [emu.add_node(Vec2(x, y), radios) for x, y in self.inputs.positions]
        self.node_index = {int(h.node_id): i for i, h in enumerate(self.hosts)}
        if self.cluster:
            emu.start()
            emu.flush(0.0)  # warm barrier: scene shipped, worker ready
        self.emu = emu

    def teardown(self) -> None:
        if self.cluster and self.emu is not None:
            self.emu.stop()

    # -- one round -------------------------------------------------------

    def run_round(self, r: int) -> None:
        from repro.core.ids import BROADCAST_NODE, ChannelId

        emu = self.emu
        inputs = self.inputs
        start = r * scenario.ROUND_SPAN
        per_round = scenario.BARRIERS_PER_ROUND + 1
        frames = self.frames
        hosts = self.hosts
        payloads = inputs.payloads
        bits = scenario.FRAME_BITS
        channels = {spec.channel: ChannelId(spec.channel) for spec in scenario.CHANNELS}
        barrier = -1
        topo = 0
        for offset, node, ch in inputs.round_beacons:
            t = start + offset
            b = int(offset / scenario.BARRIER_PERIOD)
            while barrier < b:
                barrier += 1
                if barrier > 0 and self.cluster:
                    emu.flush(start + barrier * scenario.BARRIER_PERIOD)
                if self.mobile:
                    topo = r * per_round + barrier
                    self._drag(topo, start + barrier * scenario.BARRIER_PERIOD)
            if self.cluster:
                pkt = hosts[node].transmit(
                    BROADCAST_NODE, payloads[node], channel=channels[ch],
                    size_bits=bits, t=t,
                )
            else:
                emu.run_until(t)
                pkt = hosts[node].transmit(
                    BROADCAST_NODE, payloads[node], channel=channels[ch], size_bits=bits
                )
            frames.append(oracle.SentFrame(node, int(pkt.seqno), ch, pkt.t_origin, bits, topo))
        end = start + scenario.ROUND_SPAN
        if self.cluster:
            emu.flush(start + scenario.BARRIERS_PER_ROUND * scenario.BARRIER_PERIOD)
            emu.flush(end)
            self.records.extend(emu.collect())
        else:
            emu.run_until(end)

    def _drag(self, topo: int, t: float) -> None:
        from repro.core.geometry import Vec2

        positions = self.inputs.drag_positions(topo)
        self.topologies[topo] = positions
        if not self.cluster:
            self.emu.run_until(t)
        scene = self.emu.scene
        for host, (x, y) in zip(self.hosts, positions):
            scene.move_node(host.node_id, Vec2(x, y))

    def all_records(self) -> list:
        return self.records if self.cluster else self.emu.recorder.packets()

    def program_pids(self) -> list[int]:
        """The emulator's processes: this one, plus any shard workers."""
        return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]


def _layer_wraps(rec: SpanRecorder, cluster: bool) -> None:
    """Wrap the public entry points of the layers this workload drives."""
    from repro.core.clock import VirtualClock
    from repro.core.engine import ForwardingEngine
    from repro.core.neighbor import NeighborScheme
    from repro.core.recording import MemoryRecorder
    from repro.core.scene import Scene
    from repro.core.scheduler import ForwardSchedule

    rec.wrap(Scene, "advance_time", "scene.advance_time")
    if cluster:
        from repro.cluster import ipc, sharded
        from repro.cluster.sharded import ShardedEmulator

        rec.wrap(ShardedEmulator, "submit", "sharded.submit")
        rec.wrap(ShardedEmulator, "flush", "sharded.flush")
        rec.wrap(ShardedEmulator, "collect", "sharded.collect")
        rec.wrap(sharded, "snapshot_to_dict", "snapshot.to_dict")
        rec.wrap(sharded, "encode_packet_binary", "messages.encode_packet_binary")

        def batch_hook(result, args, _kw):
            rec.count("ipc.bytes", len(result))
            rec.count("ipc.frames", len(args[0]))

        def control_hook(result, args, _kw):
            rec.count("ipc.bytes", len(result))
            if args[0].get("op") == "scene_snapshot":
                rec.count("snapshot.bytes", len(result))

        rec.wrap(ipc, "encode_packet_batch", "ipc.encode_packet_batch", batch_hook)
        rec.wrap(sharded, "encode_message", "ipc.encode_message", control_hook)
        rec.wrap(
            sharded, "decode_message", "ipc.decode_message",
            lambda _res, args, _kw: rec.count("ipc.bytes", len(args[0])),
        )
        return
    rec.wrap(ForwardingEngine, "ingest", "engine.ingest")
    rec.wrap(
        ForwardingEngine, "flush_due", "engine.flush_due",
        lambda res, _a, _kw: rec.count("engine.flush_useful", 1 if res else 0),
    )
    rec.wrap(NeighborScheme, "fanout", "neighbor.fanout")
    rec.wrap(
        ForwardSchedule, "push_many", "scheduler.push_many",
        lambda _res, args, _kw: rec.peak("scheduler.depth_max", len(args[0])),
    )
    rec.wrap(
        MemoryRecorder, "record_many", "recording.record_many",
        lambda _res, args, _kw: rec.count("recording.records", len(args[1])),
    )
    rec.wrap(
        MemoryRecorder, "record_packet", "recording.record_packet",
        lambda _res, _a, _kw: rec.count("recording.records", 1),
    )
    rec.wrap(VirtualClock, "call_at", "clock.call_at")


def _traced_worker_entry(out_dir: str):
    """A shard-worker entry that wraps ``Scene.from_snapshot`` in the
    forked worker, runs the real entry, and dumps its spans on exit."""
    from repro.cluster import sharded

    real = sharded.worker_main

    def entry(conn, config):
        import json

        from repro.core.scene import Scene

        rec = SpanRecorder(process=f"worker-{config.worker_index}")
        rec.wrap(Scene, "from_snapshot", "worker.snapshot_apply")
        rec.install()
        try:
            real(conn, config)
        finally:
            path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(rec.export(), fh)

    return real, entry


def run(args, out_dir: str) -> None:
    """Run ``inproc_beacon`` or ``cluster_mobile`` and print the result."""
    cluster = args.workload == "cluster_mobile" and not args.inproc_comparator
    mobile = args.workload == "cluster_mobile"
    kind = "cluster" if cluster else "inproc"
    inputs = scenario.make_inputs(args.seed)
    trace = bool(args.trace)
    worker_patch = None
    if trace and cluster:
        from repro.cluster import sharded

        real, entry = _traced_worker_entry(out_dir)
        sharded.worker_main = entry
        worker_patch = (sharded, real)

    setups = []
    bench = None
    try:
        for i in range(SETUP_REPEATS[kind]):
            if bench is not None:
                bench.teardown()
            bench = Beacons(inputs, cluster=cluster, mobile=mobile, workers=args.workers)
            probe = common.speed_probe()
            t0 = time.perf_counter()
            bench.setup()
            setups.append(common.at_reference_speed(time.perf_counter() - t0, probe))
        rec = SpanRecorder(process="parent" if cluster else "emulator")
        if trace:
            _layer_wraps(rec, cluster)
        pids = bench.program_pids()
        rss_mb = None
        # Per round: (traced, wall s, CPU s of every program process,
        # calibration probe s taken just before the round).
        rounds: list[tuple[bool, float, float, float]] = []
        cpu_by_pid = {pid: 0.0 for pid in pids}
        t_start = time.perf_counter()
        r = 0
        while True:
            traced = trace and r % 2 == 1
            probe = common.speed_probe()
            cpu0 = {pid: common.cpu_seconds(pid) for pid in pids}
            if traced:
                rec.install()
            t0 = time.perf_counter()
            try:
                bench.run_round(r)
            finally:
                if traced:
                    rec.uninstall()
            t1 = time.perf_counter()
            used = 0.0
            for pid in pids:
                d = common.cpu_seconds(pid) - cpu0[pid]
                cpu_by_pid[pid] += d
                used += d
            rounds.append((traced, t1 - t0, used, probe))
            r += 1
            if r == RSS_MARK_ROUNDS[kind]:
                rss_mb = sum(common.peak_rss_mb(pid) for pid in pids)
            if t1 - t_start >= args.seconds:
                break
        final_rss_mb = sum(common.peak_rss_mb(pid) for pid in pids)
        if rss_mb is None:
            rss_mb = final_rss_mb
    finally:
        if bench is not None:
            bench.teardown()
        if worker_patch is not None:
            setattr(worker_patch[0], "worker_main", worker_patch[1])

    records = bench.all_records()
    check = oracle.check_records(
        bench.frames, records, oracle.NeighborOracle(bench.topologies), bench.node_index
    )
    for p in check.problems:
        note(f"check: {p}")
    delivered = sum(1 for rec in records if rec.drop_reason is None)
    wall = sum(w for _t, w, _c, _p in rounds)
    ref_wall = sum(common.at_reference_speed(w, p) for _t, w, _c, p in rounds)
    ref_cpu = sum(common.at_reference_speed(c, p) for _t, _w, c, p in rounds)
    note(
        f"{args.workload}: {r} rounds, {len(bench.frames)} frames, "
        f"{delivered} deliveries, {check.lost} lost, {wall:.2f} s"
    )
    if not trace:
        metrics = {
            "setup_s": metric(common.median(setups), "s"),
            "deliveries_per_s": metric(delivered / ref_wall, "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "server_cpu_us_per_frame": metric(ref_cpu / delivered * 1e6, "us"),
        }
    else:
        walls = [(t, common.at_reference_speed(w, p)) for t, w, _c, p in rounds]
        metrics = _per_layer(rec, walls, cpu_by_pid, pids, out_dir)
    common.emit(
        check.correct and delivered > 0,
        check.frames,
        check.failed,
        metrics,
        extra={"info": {"rounds": r, "deliveries": delivered, "lost": check.lost,
                        "wall_s": wall, "raw_deliveries_per_s": delivered / wall,
                        "final_rss_mb": final_rss_mb,
                        "raw_cpu_us_per_frame": sum(c for _t, _w, c, _p in rounds) / delivered * 1e6,
                        "setups_s": setups, "loss_classes": len(check.loss_classes),
                        "traced_rounds": sum(1 for t, *_ in rounds if t),
                        "traced_cpu_s": sum(c for t, _w, c, _p in rounds if t)}},
    )


def _per_layer(rec, round_walls, cpu, pids, out_dir) -> dict:
    import json

    from .layers import overhead_ratio, per_layer_metrics

    dumps = [rec.export()]
    for pid in pids[1:]:  # workers of the measured set-up only
        with open(os.path.join(out_dir, f"worker-{pid}.json"), encoding="utf-8") as fh:
            dumps.append(json.load(fh))
    values = {
        "trace.overhead_ratio": overhead_ratio(round_walls),
        "parent.cpu_s": cpu.get(pids[0], 0.0),
        "worker.cpu_s": sum(v for pid, v in cpu.items() if pid != pids[0]),
    }
    return per_layer_metrics(dumps, values, out_dir)
