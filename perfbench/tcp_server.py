"""The ``tcp_live`` server process: a default :class:`PoEmServer`.

Run as ``python -m perfbench.tcp_server`` with ``src`` and the repository
root on ``PYTHONPATH``.  It speaks one JSON object per line: the address
on start-up, then commands on standard input:

``{"cmd": "link", "delay": s, "bw": bits_per_s}``
    give every registered radio this link model (``Scene.set_link_model``,
    the GUI's configure action); replies ``{"nodes": n}``.
``{"cmd": "trace", "on": true|false}``
    install or remove the span wrappers (no reply, so the load generator
    never waits on it).
``{"cmd": "stop"}``
    stop the server; reply with the overload transitions in its recording
    and the span dump, then exit.

The span wrappers are built before ``PoEmServer.start()``, so every
thread the server starts calls through the same patched attributes.
"""

from __future__ import annotations

import json
import sys


def _wraps(rec):
    from repro.core.engine import ForwardingEngine
    from repro.core.scheduler import ForwardSchedule
    from repro.net import framing, messages

    rec.wrap(ForwardingEngine, "ingest", "engine.ingest")
    rec.wrap(
        ForwardSchedule, "push_many", "scheduler.push_many",
        lambda _res, args, _kw: rec.peak("scheduler.depth_max", len(args[0])),
    )
    rec.wrap(
        framing, "send_frames", "framing.send_frames",
        lambda _res, args, _kw: rec.count("framing.frames", len(args[1])),
    )
    rec.wrap(messages, "encode_packet_binary", "messages.encode_packet_binary")
    rec.wrap(messages, "decode_packet_binary", "messages.decode_packet_binary")


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    from repro.core.ids import NodeId, RadioIndex
    from repro.core.tcpserver import PoEmServer
    from repro.models.link import BandwidthModel, DelayModel, LinkModel

    from perfbench.spans import SpanRecorder

    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    rec = SpanRecorder(process="server")
    _wraps(rec)
    server = PoEmServer(seed=seed)
    host, port = server.start()
    _reply({"address": [host, port]})
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "link":
            link = LinkModel(
                bandwidth=BandwidthModel(peak=float(msg["bw"])),
                delay=DelayModel(base=float(msg["delay"])),
            )
            nodes = server.scene.node_ids()
            for nid in nodes:
                server.scene.set_link_model(NodeId(nid), RadioIndex(0), link)
            _reply({"nodes": len(nodes)})
        elif cmd == "trace":
            if msg["on"]:
                rec.install()
            else:
                rec.uninstall()
        elif cmd == "stop":
            server.stop()
            rec.uninstall()
            transitions = sum(
                1 for ev in server.recorder.scene_events() if ev.kind == "overload-state"
            )
            _reply({"transitions": transitions, "spans": rec.export()})
            return 0
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
