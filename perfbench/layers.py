"""The per-layer metric catalogue and its computation from span dumps.

Every traced run prints every metric listed here.  A layer the workload
does not drive reads 0 (for example ``sharded.*`` on ``inproc_beacon``);
the README's layer table says which workload moves which metric.
"""

from __future__ import annotations

import os

from .common import median, metric
from .spans import merge_stats, self_time_table, write_chrome_trace

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("engine.ingest_us", "us"),
    ("engine.flush_due_us", "us"),
    ("engine.flush_useful_ratio", "ratio"),
    ("neighbor.fanout_us", "us"),
    ("scene.advance_time_us", "us"),
    ("scheduler.push_many_us", "us"),
    ("scheduler.depth_max", "count"),
    ("recording.record_many_us", "us"),
    ("recording.records", "count"),
    ("clock.callbacks", "count"),
    ("sharded.submit_us", "us"),
    ("sharded.barrier_ms", "ms"),
    ("sharded.collect_s", "s"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "bytes"),
    ("ipc.bytes_per_frame", "bytes"),
    ("worker.snapshot_apply_ms", "ms"),
    ("parent.cpu_s", "s"),
    ("worker.cpu_s", "s"),
    ("err_p50_us", "us"),
    ("err_p99_us", "us"),
    ("tcp.scan_late_p50_us", "us"),
    ("tcp.scan_late_p99_us", "us"),
    ("tcp.last_mile_p50_us", "us"),
    ("tcp.last_mile_p99_us", "us"),
    ("tcp.early_frames", "count"),
    ("overload.transitions", "count"),
    ("tcpserver.threads", "count"),
    ("framing.frames_per_send", "frames"),
    ("messages.codec_us", "us"),
    ("client.transmit_us", "us"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

#: metric -> (span name, scale from ns to the metric's unit)
_MEAN_OF = {
    "engine.ingest_us": ("engine.ingest", 1e-3),
    "engine.flush_due_us": ("engine.flush_due", 1e-3),
    "neighbor.fanout_us": ("neighbor.fanout", 1e-3),
    "scene.advance_time_us": ("scene.advance_time", 1e-3),
    "scheduler.push_many_us": ("scheduler.push_many", 1e-3),
    "recording.record_many_us": ("recording.record_many", 1e-3),
    "sharded.submit_us": ("sharded.submit", 1e-3),
    "sharded.barrier_ms": ("sharded.flush", 1e-6),
    "sharded.collect_s": ("sharded.collect", 1e-9),
    "worker.snapshot_apply_ms": ("worker.snapshot_apply", 1e-6),
    "client.transmit_us": ("client.transmit", 1e-3),
}

_CODEC = ("messages.encode_packet_binary", "messages.decode_packet_binary")


def overhead_ratio(walls: list[tuple[bool, float]]) -> float:
    """Median traced round (or phase) cost over the median untraced one."""
    traced = [w for t, w in walls if t]
    plain = [w for t, w in walls if not t]
    if not traced or not plain:
        return 0.0
    return median(traced) / median(plain)


def per_layer_metrics(dumps: list[dict], values: dict[str, float], out_dir: str) -> dict:
    """Compute every per-layer metric; write the timeline and the
    self-time table next to it."""
    stats = merge_stats(dumps)
    counters: dict[str, float] = {}
    for d in dumps:
        for k, v in d["counters"].items():
            if k.endswith("_max"):
                counters[k] = max(counters.get(k, v), v)
            else:
                counters[k] = counters.get(k, 0) + v

    def calls(span: str) -> int:
        return stats.get(span, (0, 0, 0))[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, (span, scale) in _MEAN_OF.items():
        c, total, _own = stats.get(span, (0, 0, 0))
        out[name] = total / c * scale if c else 0.0
    out["engine.flush_useful_ratio"] = ratio(
        counters.get("engine.flush_useful", 0), calls("engine.flush_due")
    )
    out["scheduler.depth_max"] = counters.get("scheduler.depth_max", 0)
    out["recording.records"] = counters.get("recording.records", 0)
    out["clock.callbacks"] = calls("clock.call_at")
    out["snapshot.count"] = calls("snapshot.to_dict")
    out["snapshot.bytes"] = ratio(counters.get("snapshot.bytes", 0), calls("snapshot.to_dict"))
    out["ipc.bytes_per_frame"] = ratio(counters.get("ipc.bytes", 0), counters.get("ipc.frames", 0))
    out["framing.frames_per_send"] = ratio(
        counters.get("framing.frames", 0), calls("framing.send_frames")
    )
    codec_calls = sum(calls(s) for s in _CODEC)
    codec_ns = sum(stats.get(s, (0, 0, 0))[1] for s in _CODEC)
    out["messages.codec_us"] = ratio(codec_ns, codec_calls) / 1e3
    out.update(values)

    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.json")
    write_chrome_trace(trace_path, dumps)
    table = self_time_table(dumps)
    with open(os.path.join(out_dir, "selftime.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    print(table)
    print(f"timeline: {trace_path}")
    return {name: metric(out.get(name, 0.0), unit) for name, unit in PER_LAYER}
