"""Seeded inputs of the beacon workloads: topology, radios, traffic, drags.

The benchmark owns every input.  The program only ever sees what these
functions generate: node positions, radio configurations, the beacon
timetable and (for ``cluster_mobile``) the drag path.

Exact-range safety: positions are whole units and each radio range is
``sqrt(n)`` for an integer ``n ≡ 3 (mod 4)``.  A squared distance between
two integer points is a sum of two squares and is never ``≡ 3 (mod 4)``,
so no pair ever sits exactly at a range (the margin in squared units is at
least 1), whatever the seed and however far the nodes are dragged.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

GRID = 8  # 8 x 8 = 64 nodes
SPACING = 40  # units between grid neighbours
ORIGIN = 100

#: Channel 1: short range, high rate, lossless (``sqrt(3603)`` ≈ 60.02:
#: the 8 grid neighbours at 40 and 56.6 units).
CH1 = 1
CH1_RANGE_SQ = 3603
CH1_BW = 11e6
CH1_DELAY = 0.0005

#: Channel 2: long range, Table-3-style loss ramp, Gaussian bandwidth
#: (``sqrt(16899)`` ≈ 130.0).
CH2 = 2
CH2_RANGE_SQ = 16899
CH2_P0, CH2_P1, CH2_D0 = 0.1, 0.9, 50.0
CH2_BW_PEAK, CH2_BW_EDGE = 2e6, 0.5e6
CH2_DELAY, CH2_DELAY_PER_UNIT = 0.001, 2e-6

FRAME_BITS = 1024
PAYLOAD_BYTES = 16

BEACON_PERIOD = 0.05  # emulated seconds between a node's beacons
BARRIER_PERIOD = 0.01  # cluster barrier (and drag) interval
PERIODS_PER_ROUND = 4  # beacon periods in one round
#: One round: 4 beacon periods of traffic, then one quiet barrier
#: period in which every scheduled frame falls due (max forward delay
#: is ~3.4 ms < 10 ms).
ROUND_SPAN = PERIODS_PER_ROUND * BEACON_PERIOD + BARRIER_PERIOD
BARRIERS_PER_ROUND = round(PERIODS_PER_ROUND * BEACON_PERIOD / BARRIER_PERIOD)

DRAG_RADIUS = 15.0  # each node circles its grid home at this radius
DRAG_TURN = 40  # barrier periods per full circle

for _n in (CH1_RANGE_SQ, CH2_RANGE_SQ):
    assert _n % 4 == 3, "range squares must be 3 mod 4"


@dataclass(frozen=True)
class ChannelSpec:
    """One channel's radio and link parameters, as the benchmark knows
    them (the oracle computes from these, never from the program)."""

    channel: int
    range_sq: int
    bw_peak: float
    bw_edge: float
    delay: float
    delay_per_unit: float
    p0: float
    p1: float
    d0: float

    @property
    def range(self) -> float:
        return math.sqrt(self.range_sq)


CHANNELS = (
    ChannelSpec(CH1, CH1_RANGE_SQ, CH1_BW, CH1_BW, CH1_DELAY, 0.0, 0.0, 0.0, 0.0),
    ChannelSpec(
        CH2, CH2_RANGE_SQ, CH2_BW_PEAK, CH2_BW_EDGE, CH2_DELAY,
        CH2_DELAY_PER_UNIT, CH2_P0, CH2_P1, CH2_D0,
    ),
)


def home_positions() -> list[tuple[int, int]]:
    """Static grid positions, node index order."""
    return [
        (ORIGIN + SPACING * (i % GRID), ORIGIN + SPACING * (i // GRID))
        for i in range(GRID * GRID)
    ]


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program."""

    seed: int
    positions: list[tuple[int, int]]
    #: One round's beacons: (offset in round, node index, channel),
    #: sorted by offset.
    round_beacons: list[tuple[float, int, int]]
    payloads: list[bytes]
    drag_phase: list[float]

    def drag_positions(self, barrier: int) -> list[tuple[int, int]]:
        """Node positions during barrier period ``barrier`` (whole units)."""
        out = []
        angle = 2.0 * math.pi * barrier / DRAG_TURN
        for (hx, hy), phase in zip(self.positions, self.drag_phase):
            out.append(
                (
                    hx + round(DRAG_RADIUS * math.cos(angle + phase)),
                    hy + round(DRAG_RADIUS * math.sin(angle + phase)),
                )
            )
        return out


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    n = GRID * GRID
    beacons = []
    for node in range(n):
        for spec in CHANNELS:
            phase = rng.random() * BEACON_PERIOD
            for period in range(PERIODS_PER_ROUND):
                beacons.append((period * BEACON_PERIOD + phase, node, spec.channel))
    beacons.sort()
    payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in range(n)]
    drag_phase = [rng.random() * 2.0 * math.pi for _ in range(n)]
    return Inputs(seed, home_positions(), beacons, payloads, drag_phase)


def make_link(spec: ChannelSpec):
    from repro.models.link import (
        BandwidthModel,
        DelayModel,
        LinkModel,
        PacketLossModel,
    )

    rng_ = spec.range
    return LinkModel(
        loss=PacketLossModel(
            p0=spec.p0, p1=spec.p1, d0=spec.d0, radio_range=rng_
        ),
        bandwidth=BandwidthModel(
            peak=spec.bw_peak, edge=spec.bw_edge, radio_range=rng_
        ),
        delay=DelayModel(base=spec.delay, per_unit=spec.delay_per_unit),
    )


def make_radios():
    """The dual-radio configuration every beacon node is born with."""
    from repro.core.ids import ChannelId
    from repro.models.radio import Radio, RadioConfig

    return RadioConfig.of(
        Radio(ChannelId(spec.channel), spec.range, make_link(spec))
        for spec in CHANNELS
    )
