"""PoEm fidelity and throughput benchmark: one command, three deployments.

Run from the repository root::

    python3 perfbench/run.py --workload inproc_beacon --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload tcp_live --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload cluster_mobile --steady 10 --seconds 10

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics (plus a Chrome
trace-event timeline and a self-time table under ``.perfbench/``).
``--steady N`` repeats one workload N times with seeds ``seed..seed+N-1``
and prints each metric's median, quartiles and spread against its bound.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("inproc_beacon", "cluster_mobile", "tcp_live")


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="cluster_mobile: shard workers (reference runs)")
    p.add_argument("--inproc-comparator", action="store_true",
                   help="cluster_mobile: run its script on InProcessEmulator")
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="repeat the workload N times and report spreads")
    return p.parse_args(argv)


def _import_program() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from src/: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: repro comes from {repro.__file__}, not src/", file=sys.stderr)
        sys.exit(2)


def steady(args: argparse.Namespace) -> int:
    """Repeat one workload in fresh processes; print spread per metric."""
    import statistics

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = []
    for i in range(args.steady):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workers", str(args.workers)]
        if args.inproc_comparator:
            cmd.append("--inproc-comparator")
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return out.returncode
        res = json.loads(out.stdout.strip().splitlines()[-1])
        shares.append(res["failed"] / res["attempted"])
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {args.seed + i}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {line}", flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"failed share per run: {sorted(set(shares))}")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>7} {flag}")
    return 0


def main(argv=None) -> int:
    args = parse(argv)
    if args.steady:
        return steady(args)
    _import_program()
    out_dir = os.path.join(
        ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    os.makedirs(out_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(out_dir, "*.json")):
        os.remove(stale)
    if args.workload == "tcp_live":
        from perfbench import tcp

        tcp.run(args, out_dir)
    else:
        from perfbench import beacon

        beacon.run(args, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
