"""Readers and helpers shared by every workload of the benchmark.

Everything here measures a program from outside: CPU and memory come
from ``/proc/<pid>``, percentiles are computed over the benchmark's own
samples, and the result line is the single JSON object the benchmark
prints last.
"""

from __future__ import annotations

import glob
import json
import math
import sys
from typing import Optional, Sequence

def parse_schedstat(text: str) -> float:
    """Seconds on CPU from one ``/proc/<pid>/task/<tid>/schedstat`` line
    (its first field, in nanoseconds)."""
    return int(text.split()[0]) / 1e9


def cpu_seconds(pid: int | str = "self") -> float:
    """CPU seconds the live threads of a process have run so far.

    Summed from each thread's ``schedstat`` (nanosecond resolution,
    where ``/proc/<pid>/stat`` counts 10 ms ticks).  A thread that has
    exited no longer counts, so callers difference readings across
    intervals in which the process keeps its threads.
    """
    total = 0.0
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path, encoding="ascii") as fh:
                total += parse_schedstat(fh.read())
        except FileNotFoundError:
            continue  # the thread ended between the listing and the read
    return total


def parse_status(text: str) -> dict[str, str]:
    """``/proc/<pid>/status`` as a field → raw value mapping."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key] = value.strip()
    return out


def status(pid: int | str = "self") -> dict[str, str]:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        return parse_status(fh.read())


def kb_field_mb(fields: dict[str, str], name: str) -> float:
    """A ``kB`` field of a status mapping (e.g. ``VmHWM``) in MB."""
    value, unit = fields[name].split()
    if unit != "kB":
        raise ValueError(f"{name}: unexpected unit {unit!r}")
    return int(value) / 1024.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MB."""
    return kb_field_mb(status(pid), "VmHWM")


def thread_count(pid: int | str = "self") -> int:
    return int(status(pid)["Threads"])


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation
    between closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(data[lo])
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, dict],
    extra: Optional[dict] = None,
) -> None:
    """Print the result object as the last line of standard output."""
    if extra:
        print(json.dumps(extra, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()


def note(msg: str) -> None:
    """Progress line on standard error (standard output carries results)."""
    print(msg, file=sys.stderr, flush=True)


# -- host speed calibration -------------------------------------------------
#
# The interpreter's speed on a shared host drifts in phases lasting
# seconds (a fixed pure-Python loop measured here swung between 27 and
# 48 ms).  CPU-bound figures are therefore reported at a reference host
# speed: each interval's time is scaled by CALIBRATION_REF_S over the
# time a fixed calibration loop took right next to it.  The loop does
# the kind of work the program does (dict, tuple and list churn,
# float arithmetic, method calls).

#: Typical :func:`speed_probe` result on the reference host while a
#: workload runs (2 vCPUs, Python 3.11): figures read as measured there.
CALIBRATION_REF_S = 0.0019


def calibration_work() -> float:
    table: dict[int, tuple] = {}
    rows: list[tuple] = []
    acc = 0.0
    for i in range(4000):
        row = (i, i * 0.5, i & 7)
        table[i & 127] = row
        rows.append(row)
        acc += table.get((i * 7) & 127, row)[1]
    rows.sort(key=_second)
    return acc + rows[0][1]


def _second(row: tuple) -> float:
    return -row[1]


def speed_probe() -> float:
    """Seconds one :func:`calibration_work` takes right now: the median
    of three back-to-back timings, so one interrupt does not count."""
    import time

    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` of work, rescaled to the reference host speed."""
    return seconds * CALIBRATION_REF_S / probe_s
