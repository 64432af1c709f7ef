"""The ``tcp_live`` workload: a live :class:`PoEmServer` over loopback.

The server runs in its own process (``perfbench.tcp_server``).  Two
:class:`PoEmClient` s in this process send small unicast frames to each
other on an open loop at a fixed total rate; the link has a 2 ms delay.
Each receiving client stamps arrival on its §4.1-synchronized clock, so
``|t_arrival − t_forward|`` is the timing error a protocol in the client
sees.  Traffic crosses real sockets, but only the loopback device.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import subprocess
import sys
import time

from . import common
from .common import metric, note, percentile
from .layers import overhead_ratio, per_layer_metrics
from .spans import SpanRecorder

RATE = 1000.0  # frames/s, both directions together
LINK_DELAY = 0.002
LINK_BW = 11e6
PAYLOAD_BYTES = 32
SETUP_REPEATS = 31
#: Traced runs alternate untraced and traced phases of this length.
TRACE_PHASE_S = 1.0
#: How long to wait for frames still in flight after the last send.
DRAIN_S = 3.0
T_TOL = 1e-9
IO_TIMEOUT = 30.0

POSITIONS = ((100.0, 100.0), (110.0, 100.0))


class ServerProcess:
    """The server child and its line protocol."""

    def __init__(self, root: str, seed: int, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.tcp_server", str(seed)],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True, bufsize=1,
        )
        self.pid = self.proc.pid
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.address = tuple(self.read()["address"])

    def read(self, timeout: float = IO_TIMEOUT) -> dict:
        if not self._sel.select(timeout):
            raise RuntimeError("server process did not answer")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited ({self.proc.poll()})")
        return json.loads(line)

    def send(self, obj: dict) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def stop(self) -> dict:
        try:
            self.send({"cmd": "stop"})
            return self.read()
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._sel.close()
        self.proc.stdout.close()
        self._log.close()


class Live:
    """One set-up: server process + two connected, synchronized clients."""

    def __init__(self, root: str, seed: int, out_dir: str) -> None:
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.server = None
        self.clients = []
        self.arrivals: list[list] = [[], []]

    def setup(self) -> None:
        from repro.core.client import PoEmClient
        from repro.core.geometry import Vec2
        from repro.models.radio import RadioConfig

        self.server = ServerProcess(self.root, self.seed, os.path.join(self.out_dir, "server.log"))
        for i, (x, y) in enumerate(POSITIONS):
            client = PoEmClient(
                self.server.address, Vec2(x, y), RadioConfig.single(1, 100.0),
                label=f"bench-{i}",
            )
            client.connect()
            sink = self.arrivals[i]
            # Stamp first, on the receiving client's synchronized clock.
            client.on_app_packet = lambda p, c=client, s=sink: s.append((c.now(), p))
            self.clients.append(client)
        self.server.send({"cmd": "link", "delay": LINK_DELAY, "bw": LINK_BW})
        self.server.read()

    def teardown(self) -> dict:
        for c in self.clients:
            c.close()
        self.clients = []
        if self.server is None:
            return {}
        try:
            return self.server.stop()
        finally:
            self.server = None


def _client_wraps(rec: SpanRecorder) -> None:
    from repro.core.client import PoEmClient
    from repro.net import messages

    rec.wrap(PoEmClient, "transmit", "client.transmit")
    rec.wrap(messages, "encode_packet_binary", "messages.encode_packet_binary")
    rec.wrap(messages, "decode_packet_binary", "messages.decode_packet_binary")


def run(args, out_dir: str) -> None:
    from repro.core.ids import ChannelId

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trace = bool(args.trace)
    rng = random.Random(args.seed)
    setups = []
    live = None
    server_report: dict = {}
    rec = SpanRecorder(process="clients")
    if trace:
        _client_wraps(rec)
    sent = []  # (sender index, seqno, t_origin, payload, traced phase)
    lateness = []
    phase_cpu: list[tuple[bool, float]] = []
    try:
        for _ in range(SETUP_REPEATS):
            if live is not None:
                live.teardown()
            live = Live(root, args.seed, out_dir)
            probe = common.speed_probe()
            t0 = time.perf_counter()
            live.setup()
            setups.append(common.at_reference_speed(time.perf_counter() - t0, probe))
        clients = live.clients
        dst = [clients[1].node_id, clients[0].node_id]
        ch = ChannelId(1)
        pid = live.server.pid
        n_frames = 2 * int(args.seconds * RATE / 2)  # whole rounds: one frame each way
        payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in range(n_frames)]
        cpu0 = common.cpu_seconds(pid)
        phase_start_cpu, phase_start_k, traced = cpu0, 0, False
        t_start = time.perf_counter()
        for k in range(n_frames):
            due = t_start + k / RATE
            if trace and due - t_start >= (len(phase_cpu) + 1) * TRACE_PHASE_S:
                cpu = common.cpu_seconds(pid)
                phase_cpu.append((traced, (cpu - phase_start_cpu) / max(k - phase_start_k, 1)))
                phase_start_cpu, phase_start_k = cpu, k
                traced = not traced
                live.server.send({"cmd": "trace", "on": traced})
                (rec.install if traced else rec.uninstall)()
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            issued = time.perf_counter()
            lateness.append(issued - due)
            src = k % 2
            pkt = clients[src].transmit(dst[src], payloads[k], channel=ch)
            sent.append((src, int(pkt.seqno), pkt.t_origin, payloads[k], traced))
        if traced:
            rec.uninstall()
        deadline = time.perf_counter() + DRAIN_S
        while time.perf_counter() < deadline:
            if len(live.arrivals[0]) + len(live.arrivals[1]) >= n_frames:
                break
            time.sleep(0.005)
        wall = time.perf_counter() - t_start
        rss_mb = common.peak_rss_mb(pid)
        threads = common.thread_count(pid)
        cpu_total = common.cpu_seconds(pid) - cpu0
    finally:
        if live is not None:
            server_report = live.teardown()

    check = _check(sent, live.arrivals, [int(n) for n in reversed(dst)])
    for p in check["problems"]:
        note(f"check: {p}")
    delivered = check["delivered"]
    err = check["err_us"]
    note(
        f"tcp_live: {len(sent)} frames, {delivered} delivered, "
        f"err p50 {percentile(err, 50):.0f} us p99 {percentile(err, 99):.0f} us, "
        f"overload transitions {server_report.get('transitions')}"
    )
    if not trace:
        metrics = {
            "setup_s": metric(common.median(setups), "s"),
            "deliveries_per_s": metric(delivered / wall, "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "server_cpu_us_per_frame": metric(cpu_total / delivered * 1e6, "us"),
        }
    else:
        values = {
            "err_p50_us": percentile(err, 50),
            "err_p99_us": percentile(err, 99),
            "tcp.scan_late_p50_us": percentile(check["scan_late_us"], 50),
            "tcp.scan_late_p99_us": percentile(check["scan_late_us"], 99),
            "tcp.last_mile_p50_us": percentile(check["last_mile_us"], 50),
            "tcp.last_mile_p99_us": percentile(check["last_mile_us"], 99),
            "tcp.early_frames": check["early"],
            "overload.transitions": server_report.get("transitions", 0),
            "tcpserver.threads": threads,
            "loadgen.late_p99_ms": percentile(lateness, 99) * 1e3,
            "trace.overhead_ratio": overhead_ratio(phase_cpu),
        }
        dumps = [rec.export()]
        if "spans" in server_report:
            dumps.append(server_report["spans"])
        metrics = per_layer_metrics(dumps, values, out_dir)
    common.emit(
        check["correct"],
        len(sent),
        check["failed"],
        metrics,
        extra={"info": {
            "err_p50_us": percentile(err, 50), "err_p99_us": percentile(err, 99),
            "err_samples": len(err), "early_frames": check["early"],
            "loadgen_late_p99_ms": percentile(lateness, 99) * 1e3,
            "overload_transitions": server_report.get("transitions"),
            "setups_s": setups,
        }},
    )


def _check(sent, arrivals, node_ids) -> dict:
    """Every frame arrives exactly once, at the other client, intact.

    ``sent`` holds (sender index, seqno, t_origin, payload, traced),
    ``arrivals[i]`` the (t_arrival, packet) pairs client ``i`` received
    and ``node_ids[i]`` client ``i``'s node.  Timing figures come from
    untraced phases only (every frame in an untraced run)."""
    got: dict[tuple[int, int], list] = {}
    for rx, lst in enumerate(arrivals):
        for t_arr, p in lst:
            got.setdefault((int(p.source), int(p.seqno)), []).append((rx, t_arr, p))
    out = {"delivered": 0, "failed": 0, "problems": [], "err_us": [],
           "scan_late_us": [], "last_mile_us": [], "early": 0, "correct": True}
    seen = set()
    for src, seqno, t_origin, payload, traced in sent:
        key = (node_ids[src], seqno)
        seen.add(key)
        hits = got.get(key, [])
        bad = None
        if len(hits) != 1:
            bad = f"arrived {len(hits)} times"
        else:
            rx, t_arr, p = hits[0]
            want = t_origin + LINK_DELAY + p.size_bits / LINK_BW
            if rx == src:
                bad = "arrived at its sender"
            elif p.t_origin != t_origin or p.payload != payload:
                bad = "stamp or payload changed"
            elif p.t_forward is None or abs(p.t_forward - want) > T_TOL:
                bad = f"t_forward {p.t_forward!r}, formula {want!r}"
            elif p.t_delivered is None or p.t_delivered < p.t_forward:
                bad = f"t_delivered {p.t_delivered!r} before t_forward"
        if bad:
            out["failed"] += 1
            if len(out["problems"]) < 20:
                out["problems"].append(f"frame {src}/{seqno}: {bad}")
            continue
        out["delivered"] += 1
        if not traced:
            out["err_us"].append(abs(t_arr - p.t_forward) * 1e6)
            out["scan_late_us"].append((p.t_delivered - p.t_forward) * 1e6)
            out["last_mile_us"].append((t_arr - p.t_delivered) * 1e6)
            out["early"] += t_arr < p.t_forward
    stray = sum(len(v) for k, v in got.items() if k not in seen)
    if stray:
        out["correct"] = False
        out["problems"].append(f"{stray} arrivals match no sent frame")
    if not out["err_us"]:
        out["correct"] = False
        out["err_us"] = [0.0]
        out["scan_late_us"] = [0.0]
        out["last_mile_us"] = [0.0]
    return out
