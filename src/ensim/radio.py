"""Deterministic radio world: positioned nodes, log-distance path loss, scan events.

Geometry is 2-D with piecewise-constant trajectories; distance is the only
geometric quantity the attacks depend on. One broadcast per tick per
emitter, delivered once per scanning node in range. Identical
(config, injections) always produce identical event logs; noise draws come
from the world's own seeded generator in a fixed iteration order.

The world is advanced by a single owner; parallelism belongs across
independent runs, not within one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from random import Random
from typing import Optional

# emitters closer than this are treated as at this distance; keeps the
# path-loss model in its rssi <= tx_power regime for co-located nodes
MIN_DISTANCE_M = 0.01


@dataclass(frozen=True)
class PathLoss:
    ref_rssi_at_1m: float = -41.0
    exponent: float = 2.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


@dataclass(frozen=True)
class NodeSpec:
    """A positioned participant. trajectory: ((t, x, y), ...) sorted by t."""

    id: str
    trajectory: tuple
    app: bool = False
    deputy: bool = False
    tx_power: int = 0

    def __post_init__(self):
        if not self.trajectory:
            raise ValueError(f"node {self.id}: empty trajectory")
        times = [wp[0] for wp in self.trajectory]
        if times != sorted(times):
            raise ValueError(f"node {self.id}: trajectory not sorted by time")

    def position(self, t: float) -> tuple[float, float]:
        x, y = self.trajectory[0][1], self.trajectory[0][2]
        for wt, wx, wy in self.trajectory:
            if wt > t:
                break
            x, y = wx, wy
        return (x, y)


@dataclass(frozen=True)
class WorldConfig:
    nodes: tuple
    path_loss: PathLoss = PathLoss()
    radio_range_max: float = 50.0
    tick: int = 1
    duration: int = 3600
    seed: int = 0

    def __post_init__(self):
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.duration % self.tick != 0:
            raise ValueError("duration must be a multiple of tick")
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")


@dataclass(frozen=True)
class Sighting:
    """One received beacon, as stored by honest devices and deputies alike."""

    payload: bytes
    mac: str
    rssi: float
    time: int
    rx_location: tuple[float, float]


@dataclass(frozen=True)
class ScanEvent:
    receiver_id: str
    sighting: Sighting
    emitter_id: Optional[str] = None  # ground-truth annotation; None for injected
    relay: bool = False


@dataclass(frozen=True)
class Emission:
    node_id: str
    payload: bytes
    mac: str
    tx_power: int
    relay: bool = False


def propagate(tx_power: float, distance: float, noise_draw: float,
              path_loss: PathLoss, radio_range_max: float) -> Optional[float]:
    """Received power in dBm, or None beyond radio range."""
    if distance <= 0:
        raise ValueError(f"distance must be positive, got {distance}")
    if distance > radio_range_max:
        return None
    return (
        tx_power
        + path_loss.ref_rssi_at_1m
        - 10.0 * path_loss.exponent * math.log10(distance)
        + noise_draw
    )


def attenuation(claimed_tx_power: float, rssi: float) -> float:
    """Distance proxy used for matching: claimed emission power minus rssi.

    Uses the power CLAIMED in the decrypted metadata, not the true one;
    this is exactly the number metadata tampering corrupts.
    """
    return claimed_tx_power - rssi


class World:
    def __init__(self, config: WorldConfig):
        self.config = config
        self.nodes = {n.id: n for n in config.nodes}
        self._scanner_ids = sorted(n.id for n in config.nodes if n.app or n.deputy)
        self._rng = Random(config.seed)
        self.events: list[ScanEvent] = []

    def position(self, node_id: str, t: float) -> tuple[float, float]:
        return self.nodes[node_id].position(t)

    def step(self, t: int, emissions: list[Emission]) -> list[ScanEvent]:
        """Deliver each emission once to every in-range scanner; returns new events."""
        if t < 0 or t >= self.config.duration or t % self.config.tick != 0:
            raise ValueError(f"t={t} outside simulation schedule")
        pl = self.config.path_loss
        new: list[ScanEvent] = []
        positions = {nid: self.nodes[nid].position(t) for nid in self.nodes}
        for em in emissions:
            ex, ey = positions[em.node_id]
            for sid in self._scanner_ids:
                if sid == em.node_id:
                    continue
                sx, sy = positions[sid]
                d = max(math.hypot(sx - ex, sy - ey), MIN_DISTANCE_M)
                if d > self.config.radio_range_max:
                    continue
                noise = self._rng.gauss(0.0, pl.noise_sigma) if pl.noise_sigma > 0 else 0.0
                rssi = propagate(em.tx_power, d, noise, pl, self.config.radio_range_max)
                new.append(ScanEvent(
                    receiver_id=sid,
                    sighting=Sighting(em.payload, em.mac, rssi, t, (sx, sy)),
                    emitter_id=em.node_id,
                    relay=em.relay,
                ))
        self.events.extend(new)
        return new

    def inject(self, t: int, receiver_id: str, sighting: Sighting) -> ScanEvent:
        """Insert a spurious sighting into a receiver's stream, as an instrumented
        scanner stack would; indistinguishable from a radio-originated one."""
        if receiver_id not in self.nodes:
            raise KeyError(f"unknown receiver {receiver_id!r}")
        event = ScanEvent(receiver_id=receiver_id, sighting=sighting, emitter_id=None)
        self.events.append(event)
        return event


def write_event_log(events, path):
    """Write `events` to `path` as JSON lines in stable field order, one event
    at a time, so no copy of the log is built before it is written."""
    with open(path, "w") as fh:
        for e in events:
            s = e.sighting
            fh.write(json.dumps({
                "t": s.time,
                "receiver": e.receiver_id,
                "emitter": e.emitter_id,
                "relay": e.relay,
                "mac": s.mac,
                "rssi": s.rssi,
                "rx_x": s.rx_location[0],
                "rx_y": s.rx_location[1],
                "payload_hex": s.payload.hex(),
            }) + "\n")
