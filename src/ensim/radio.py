"""Deterministic radio world: positioned nodes, log-distance path loss, scan events.

Geometry is 2-D with piecewise-constant trajectories; distance is the only
geometric quantity the attacks depend on. One broadcast per tick per
emitter, delivered once per scanning node in range. Path loss is computed
once per geometry: the world keeps a link table from each emitter (at a
given tx power) to its in-range scanners and rebuilds it only when some
node reaches another waypoint. Identical (config, injections) always produce identical event
logs; noise draws come from the world's own seeded generator, one per
delivery in a fixed iteration order.

The world is advanced by a single owner; parallelism belongs across
independent runs, not within one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from random import Random
from typing import NamedTuple, Optional

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

    def waypoint(self, t: float):
        """The waypoint in effect at t: the last one at or before t, else the first."""
        current = self.trajectory[0]
        for wp in self.trajectory:
            if wp[0] > t:
                break
            current = wp
        return current

    def position(self, t: float) -> tuple[float, float]:
        _, x, y = self.waypoint(t)
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


class Sighting(NamedTuple):
    """One received beacon, as stored by honest devices and deputies alike."""

    payload: bytes
    mac: str
    rssi: float
    time: int
    rx_location: tuple[float, float]


class ScanEvent(NamedTuple):
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
        # the link table and the waypoints and positions it was built for
        self._waypoints: Optional[list] = None
        self._positions: dict = {}
        self._links: dict = {}  # (emitter id, tx_power) -> [(scanner id, rssi before noise, rx position)]

    def position(self, node_id: str, t: float) -> tuple[float, float]:
        return self.nodes[node_id].position(t)

    def _link_row(self, emitter_id: str, tx_power: int) -> list:
        """The in-range scanners of one emitter at the current positions, in
        scanner order, each with its noiseless rssi and its position."""
        pl, range_max, positions = self.config.path_loss, self.config.radio_range_max, self._positions
        ex, ey = positions[emitter_id]
        row = []
        for sid in self._scanner_ids:
            if sid == emitter_id:
                continue
            rx = positions[sid]
            d = max(math.hypot(rx[0] - ex, rx[1] - ey), MIN_DISTANCE_M)
            rssi = propagate(tx_power, d, 0.0, pl, range_max)
            if rssi is not None:
                row.append((sid, rssi, rx))
        return row

    def step(self, t: int, emissions: list[Emission]) -> list[ScanEvent]:
        """Deliver each emission once to every in-range scanner; returns new events.

        The path loss of each (emitter, tx_power) to each scanner comes from the
        link table, rebuilt only when the waypoint in effect for some node
        differs from the last step's (trajectories are piecewise constant).
        Noise is drawn per delivery, in emission order and then scanner order,
        and added to the table's noiseless rssi: the same float arithmetic as
        `propagate`, so results are bit-identical to computing each delivery
        from scratch.
        """
        if t < 0 or t >= self.config.duration or t % self.config.tick != 0:
            raise ValueError(f"t={t} outside simulation schedule")
        waypoints = [node.waypoint(t) for node in self.nodes.values()]
        if self._waypoints is None or any(a is not b for a, b in zip(waypoints, self._waypoints)):
            self._waypoints = waypoints
            self._positions = {nid: (wp[1], wp[2]) for nid, wp in zip(self.nodes, waypoints)}
            self._links = {}
        links = self._links
        sigma = self.config.path_loss.noise_sigma
        gauss = self._rng.gauss
        new: list[ScanEvent] = []
        for em in emissions:
            key = (em.node_id, em.tx_power)
            row = links.get(key)
            if row is None:
                row = links[key] = self._link_row(em.node_id, em.tx_power)
            for sid, rssi, rx in row:
                noise = gauss(0.0, sigma) if sigma > 0 else 0.0
                new.append(ScanEvent(sid, Sighting(em.payload, em.mac, rssi + noise, t, rx),
                                     em.node_id, em.relay))
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
    """Write `events` to `path` as JSON lines in stable field order, one line at
    a time, so no copy of the log is built before it is written.

    The text around `t` and `rssi` is rendered with `json.dumps` once per
    distinct (receiver, emitter, relay, mac, payload, rx position object) and
    reused; events share their link's rx position, so this is once per link
    and geometry. The position is keyed by identity, not value: 0 == 0.0 ==
    -0.0, but each is written differently. Each line formats only `t` and
    `rssi`, with `repr`, which writes ints and finite floats exactly as
    `json.dumps` does; a non-finite rssi (a path-loss exponent or noise sigma
    large enough to overflow) still goes through `json.dumps`.
    """
    fragments = {}  # key -> (text before rssi, text after rssi, the rx position)

    def fragment(key, rx):
        receiver, emitter, relay, mac, payload, _ = key
        head = json.dumps({"receiver": receiver, "emitter": emitter, "relay": relay, "mac": mac})
        tail = json.dumps({"rx_x": rx[0], "rx_y": rx[1], "payload_hex": payload.hex()})
        # holding rx keeps its id from being reused by another position
        fragments[key] = frag = (", " + head[1:-1] + ', "rssi": ', ", " + tail[1:] + "\n", rx)
        return frag

    def lines():
        inf = math.inf
        for receiver, (payload, mac, rssi, t, rx), emitter, relay in events:
            key = (receiver, emitter, relay, mac, payload, id(rx))
            head, tail, _ = fragments.get(key) or fragment(key, rx)
            rssi_text = repr(rssi) if -inf < rssi < inf else json.dumps(rssi)
            yield f'{{"t": {t!r}{head}{rssi_text}{tail}'

    with open(path, "w") as fh:
        fh.writelines(lines())
