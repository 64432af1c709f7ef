"""Spans around calls into the program's layers, recorded from outside.

:class:`SpanRecorder` replaces chosen attributes (methods, class methods,
module functions) with wrappers that time each call, keep per-thread
nesting so a span's *self* time excludes the wrapped calls it made, and
run an optional hook on the result (counting records written, schedule
depth, bytes encoded...).  Spans stay in memory, capped, and are written
once at the end as Chrome trace-event JSON, which Perfetto opens the same
way as ``poem analyze --timeline`` output.

Wrappers are installed and removed as a set, so a run can alternate
traced and untraced rounds on one set-up and report the difference as
the tracing overhead.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Optional

_ns = time.perf_counter_ns

#: Spans kept for the timeline file; aggregates cover every call.
SPAN_CAP = 60000


class _ThreadState:
    """One thread's span stack and aggregates (merged on read)."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        # name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        self.sums: dict[str, float] = {}
        self.peaks: dict[str, float] = {}


class SpanRecorder:
    """A set of call wrappers plus the spans and counters they collect."""

    def __init__(self, process: str = "bench", span_cap: int = SPAN_CAP) -> None:
        self.process = process
        self.span_cap = span_cap
        self.spans: list[tuple[str, int, int, int]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._targets: list[tuple[Any, str, Any, Any]] = []

    # -- wiring -----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Optional[Callable[..., None]] = None,
    ) -> None:
        """Register ``owner.attr`` to be timed as span ``name``.

        ``hook(result, args, kwargs)`` runs after each call (outside the
        timed interval).  Class methods are re-wrapped as class methods.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        func = raw.__func__ if is_cm else raw
        wrapper = self._make(func, name, hook)
        self._targets.append((owner, attr, raw, classmethod(wrapper) if is_cm else wrapper))

    def install(self) -> None:
        for owner, attr, _raw, wrapped in self._targets:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _wrapped in self._targets:
            setattr(owner, attr, raw)

    def count(self, name: str, n: float = 1) -> None:
        """Add to a counter (per thread, summed on read)."""
        sums = self._state().sums
        sums[name] = sums.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        """Raise a high-water mark (per thread, max on read)."""
        peaks = self._state().peaks
        if value > peaks.get(name, float("-inf")):
            peaks[name] = value

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _make(self, func, name, hook):
        spans = self.spans
        cap = self.span_cap
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            stack.append(0)
            t0 = _ns()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = _ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                agg = st.stats.get(name)
                if agg is None:
                    agg = st.stats[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
                if len(spans) < cap:
                    spans.append((name, t0, dur, threading.get_ident()))
            if hook is not None:
                hook(result, args, kwargs)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- results ------------------------------------------------------------

    def _all_states(self) -> list[_ThreadState]:
        with self._states_lock:
            return list(self._states)

    @property
    def counters(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for st in self._all_states():
            for name, v in list(st.sums.items()):
                out[name] = out.get(name, 0) + v
            for name, v in list(st.peaks.items()):
                out[name] = max(out.get(name, v), v)
        return out

    def stats(self) -> dict[str, list[int]]:
        """name -> [calls, total_ns, self_ns], summed over threads."""
        out: dict[str, list[int]] = {}
        for st in self._all_states():
            for name, (calls, total, own) in list(st.stats.items()):
                acc = out.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return out

    def export(self) -> dict:
        """JSON-friendly dump (shipped across processes)."""
        return {
            "process": self.process,
            "pid": os.getpid(),
            "spans": self.spans,
            "stats": self.stats(),
            "counters": self.counters,
        }


def merge_stats(dumps: list[dict]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for d in dumps:
        for name, vals in d["stats"].items():
            acc = out.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += vals[i]
    return out


def self_time_table(dumps: list[dict]) -> str:
    """Per-span totals: calls, total and self milliseconds, mean µs."""
    rows = []
    for d in dumps:
        for name, (calls, total, own) in d["stats"].items():
            rows.append((own, d["process"], name, calls, total))
    rows.sort(reverse=True)
    lines = [
        f"{'process':<10} {'span':<28} {'calls':>9} {'total_ms':>10} "
        f"{'self_ms':>10} {'mean_us':>9}"
    ]
    for own, proc, name, calls, total in rows:
        lines.append(
            f"{proc:<10} {name:<28} {calls:>9} {total / 1e6:>10.1f} "
            f"{own / 1e6:>10.1f} {total / calls / 1e3:>9.2f}"
        )
    return "\n".join(lines)


def write_chrome_trace(path: str, dumps: list[dict]) -> None:
    """Chrome trace-event JSON (``ph: X`` complete events, µs)."""
    events: list[dict] = []
    for d in dumps:
        pid = d["pid"]
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": d["process"]}}
        )
        for name, t0, dur, tid in d["spans"]:
            events.append(
                {"ph": "X", "name": name, "cat": name.split(".")[0],
                 "pid": pid, "tid": tid % 1_000_000,
                 "ts": t0 / 1e3, "dur": dur / 1e3}
            )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
