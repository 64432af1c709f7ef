"""Independent correctness checks: the paper's formulas, recomputed.

Nothing here calls the program's models.  The neighbor set comes from
§4.2 (``k ∈ CS(A) ∩ CS(B)`` and ``D(A,B) <= R(A,k)``, with every node on
both channels), forward times from §3.2 Step 3 with the §4.3.2 delay and
Gaussian bandwidth, and loss probabilities from the §4.3.2 ramp.  The
checks compare the program's packet records with those values frame by
frame; a frame that breaks any check counts as failed.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .scenario import CHANNELS, ChannelSpec

#: Forward times are sums of a few doubles: anything beyond a nanosecond
#: is a formula difference, not rounding.
T_TOL = 1e-9
#: Two-sided z for the per-distance-class loss check (false alarm
#: probability ~4e-8 per class).
LOSS_Z = 5.5
#: Loss-check distance classes, in units.
LOSS_BIN = 10.0

SPECS = {spec.channel: spec for spec in CHANNELS}


def bandwidth(spec: ChannelSpec, d: float) -> float:
    """``B(d) = M exp(-Kb d²)``, floored at ``m``; constant when M == m."""
    if spec.bw_edge == spec.bw_peak:
        return spec.bw_peak
    kb = (math.log(spec.bw_peak) - math.log(spec.bw_edge)) / spec.range_sq
    return max(spec.bw_peak * math.exp(-kb * d * d), spec.bw_edge)


def forward_time(spec: ChannelSpec, t_origin: float, size_bits: int, d: float) -> float:
    """``t_forward = t_origin + delay(d) + size / B(d)``."""
    return t_origin + spec.delay + spec.delay_per_unit * d + size_bits / bandwidth(spec, d)


def loss_probability(spec: ChannelSpec, d: float) -> float:
    if spec.p1 == spec.p0 or d <= spec.d0:
        return spec.p0
    kp = (spec.p1 - spec.p0) / (spec.range - spec.d0)
    return min(spec.p0 + kp * (d - spec.d0), spec.p1)


def receivers(
    positions: Sequence[tuple[int, int]], sender: int, spec: ChannelSpec
) -> list[tuple[int, float]]:
    """``NT(sender, k)`` as (receiver index, distance), from integer
    positions (exact squared-distance comparison)."""
    sx, sy = positions[sender]
    out = []
    for j, (x, y) in enumerate(positions):
        if j == sender:
            continue
        d2 = (x - sx) ** 2 + (y - sy) ** 2
        if d2 <= spec.range_sq:
            out.append((j, math.sqrt(d2)))
    return out


class NeighborOracle:
    """Cached §4.2 neighbor sets per (topology, sender, channel)."""

    def __init__(self, topologies: dict[int, Sequence[tuple[int, int]]]):
        self.topologies = topologies
        self._cache: dict[tuple[int, int, int], dict[int, float]] = {}

    def expected(self, topo: int, sender: int, channel: int) -> dict[int, float]:
        key = (topo, sender, channel)
        hit = self._cache.get(key)
        if hit is None:
            hit = dict(receivers(self.topologies[topo], sender, SPECS[channel]))
            self._cache[key] = hit
        return hit


@dataclass(frozen=True)
class SentFrame:
    """A frame the load generator transmitted, as the benchmark saw it."""

    source: int  # node index
    seqno: int
    channel: int
    t_origin: float
    size_bits: int
    topo: int  # key into the oracle's topologies


@dataclass
class CheckResult:
    frames: int = 0
    failed: int = 0
    delivered: int = 0
    lost: int = 0
    stray_records: int = 0
    problems: list[str] = field(default_factory=list)
    loss_classes: list[tuple] = field(default_factory=list)
    loss_ok: bool = True

    @property
    def correct(self) -> bool:
        return self.stray_records == 0 and self.loss_ok

    def problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)


def check_records(
    frames: Iterable[SentFrame],
    records: Iterable,
    oracle: NeighborOracle,
    node_index: dict[int, int],
) -> CheckResult:
    """Check every transmitted frame against the packet log.

    ``records`` are the program's packet records (any objects with the
    ``PacketRecord`` fields); ``node_index`` maps the program's node ids
    to the benchmark's node indices.  Per frame: the delivered and
    loss-dropped receivers together equal the oracle's set, each exactly
    once, with no other outcome; every delivered ``t_forward`` equals the
    formula, and ``t_delivered`` equals it (the virtual clock delivers
    exactly at ``t_forward``).  Across frames: the loss share per distance
    class lies inside a binomial interval around the modeled ``p(d)``.
    """
    res = CheckResult()
    by_key: dict[tuple[int, int], list] = defaultdict(list)
    for rec in records:
        by_key[(rec.source, rec.seqno)].append(rec)
    # class -> [trials, drops, sum p, sum p(1-p)]
    loss = defaultdict(lambda: [0, 0, 0.0, 0.0])
    seen = set()
    id_of = {idx: nid for nid, idx in node_index.items()}
    for fr in frames:
        res.frames += 1
        key = (id_of[fr.source], fr.seqno)
        seen.add(key)
        recs = by_key.get(key, [])
        expected = oracle.expected(fr.topo, fr.source, fr.channel)
        spec = SPECS[fr.channel]
        bad = _check_frame(fr, recs, expected, spec, node_index, res, loss)
        if bad:
            res.failed += 1
    res.stray_records = sum(len(v) for k, v in by_key.items() if k not in seen)
    if res.stray_records:
        res.problem(f"{res.stray_records} records match no transmitted frame")
    for cls in sorted(loss):
        trials, drops, sp, var = loss[cls]
        slack = LOSS_Z * math.sqrt(var) + 1.0
        ok = abs(drops - sp) <= slack
        res.loss_classes.append((cls, trials, drops, sp, ok))
        if not ok:
            res.loss_ok = False
            res.problem(
                f"loss class {cls}: {drops}/{trials} dropped, modeled {sp:.1f}"
            )
    return res


def _check_frame(fr, recs, expected, spec, node_index, res, loss) -> bool:
    bad = False
    got: list[int] = []
    pending_loss = []
    for rec in recs:
        ridx = node_index.get(rec.receiver) if rec.receiver is not None else None
        if rec.channel != fr.channel or rec.t_origin != fr.t_origin:
            res.problem(f"frame {fr.source}/{fr.seqno}: stamps or channel changed")
            bad = True
        if ridx is None or ridx not in expected:
            res.problem(f"frame {fr.source}/{fr.seqno}: receiver {rec.receiver} not a neighbor")
            bad = True
            continue
        got.append(ridx)
        d = expected[ridx]
        if rec.drop_reason is None:
            res.delivered += 1
            want = forward_time(spec, fr.t_origin, fr.size_bits, d)
            if rec.t_forward is None or abs(rec.t_forward - want) > T_TOL:
                res.problem(
                    f"frame {fr.source}/{fr.seqno} -> {ridx}: t_forward "
                    f"{rec.t_forward!r}, formula {want!r}"
                )
                bad = True
            elif rec.t_delivered != rec.t_forward:
                res.problem(
                    f"frame {fr.source}/{fr.seqno} -> {ridx}: delivered at "
                    f"{rec.t_delivered!r}, forward {rec.t_forward!r}"
                )
                bad = True
        elif rec.drop_reason == "loss-model":
            res.lost += 1
            pending_loss.append(ridx)
        else:
            res.problem(f"frame {fr.source}/{fr.seqno} -> {ridx}: dropped ({rec.drop_reason})")
            bad = True
    if len(got) != len(set(got)):
        res.problem(f"frame {fr.source}/{fr.seqno}: a receiver heard it twice")
        bad = True
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))
        res.problem(f"frame {fr.source}/{fr.seqno}: no outcome for receivers {missing[:5]}")
        bad = True
    if spec.p1 > 0.0 and not bad:
        dropped = set(pending_loss)
        for ridx, d in expected.items():
            p = loss_probability(spec, d)
            acc = loss[(fr.channel, int(d // LOSS_BIN))]
            acc[0] += 1
            acc[1] += ridx in dropped
            acc[2] += p
            acc[3] += p * (1.0 - p)
    return bad
