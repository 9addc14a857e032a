"""Confused-deputy attack infrastructure.

Deputies are ordinary bystander devices whose scan results reach the
attacker (the embedded-SDK vector); the server aggregates their uploads,
picks identifiers harvested in the configured zones, and orders deputies
in the target zones to re-emit them, optionally with a blind XOR mask over
the encrypted metadata. The server object deliberately has no position:
only deputies stand inside the simulated country.

The relay machinery never touches key material. Tampering is ciphertext
XOR; selection uses only upload metadata (time, place). Key-dependent
work appears solely in `reidentify`, which runs on *published* keys, the
same public data every phone downloads.

Relay timing: an identifier heard at time h was broadcast during the
10-minute slot containing h (slot boundaries are public protocol
structure), and receivers tolerate `replay_horizon` (2 h) of clock skew
around that slot, so re-emission is productive until slot_end + horizon.

The harvest is not copied out of the scan log: in a run, the server reads
its deputies' rows of the world's log (on its own, rows that
`deputy_on_scan` logs in a log of its own with `ScanLog.append`). While the
run goes on it looks only at each deputy link's first hearing, once: it
reads the link's frame kind from the log (`ScanLog.kind`, one decode per
distinct payload), keeps or drops the link and offers the hearing as a
relay candidate: the row of its first hearing, never a copy of it, and its
relay window, decided then, once. `select_relays` filters the stored
windows, and `next_plan_change` looks up the next of their edges in one
sorted list. `db` (the kept links' rows) is read when asked, and `record`
reads one row as a HarvestRecord, the upload view. `reidentify` splits
only the rows of kept links that pass matching's published-identifier join
(`device.published_kind`). Each dossier sighting keeps the MAC it was heard
under: that is the MAC linkage a side database of MACs joins on.

The relay plan (`plan`) is a `radio.RowLog`, as the scan log is: each
relay decision on each tick is one row, its time and its entry (the row's
key). It has no values, so a row costs nothing: the log stores a tick's
entries once per span, with the range of ticks it repeats over. A relay
candidate's payload (AEM masked when tampering) and its line fields (every
field of an attack_plan.jsonl line but `t`, `deputy` and `age_s`, all
fixed per identifier and read from its row) are made when `_take` files
it. A relay order is a deputy and the payload it re-emits, which the world
sends at the deputy's own power; a (deputy, identifier) pair's entry is the
deputy followed by those fields, interned by the pair the first time it is
planned. The run loop extends a tick's plan rows over the ticks that
repeat it with `RowLog.repeat`, one span, as `World.step` extends a tick's
scan rows. The harvest decodes the time and link of just the rows it reads
from the log's spans (`RowLog.at`, `RowLog.decode`).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right, insort
from typing import NamedTuple, Optional

import numpy as np

from . import beacon, crypto
from .device import published_kind
from .radio import Emission, RowLog, ScanLog, Sighting

DEFAULT_RELAY_MAC = "f0:0d:00:00:00:01"


class Zone(NamedTuple):
    """Axis-aligned rectangle, bounds inclusive."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


class AttackPolicy(NamedTuple):
    """Targeting configuration.

    harvest_zones empty = accept uploads from anywhere; target_zones empty =
    relaying disabled (harvest-only operation). relay_window, when set,
    restricts emission to ages [start, end] measured from the harvested
    slot's start. Built through `engine.ATTACK_FIELDS`: tamper_mask 4 bytes.
    """

    harvest_zones: tuple = ()
    target_zones: tuple = ()
    tamper_mask: Optional[bytes] = None
    relay_latency: int = 5
    collect_all: bool = False
    relay_window: Optional[tuple[int, int]] = None
    replay_horizon: int = 7200
    max_relays_per_deputy: Optional[int] = 1
    relay_mac: str = DEFAULT_RELAY_MAC


class HarvestRecord(NamedTuple):
    frame: beacon.BeaconFrame  # raw advertising bytes preserved on the frame
    rssi: float
    location: tuple[float, float]
    time: int
    deputy_id: str

    @property
    def mac(self) -> str:
        return self.frame.mac


class RelayOrder(NamedTuple):
    payload: bytes  # the harvested identifier's advertising bytes, its aem masked when tampering
    deputy_id: str


def tamper(aem: bytes, mask: bytes) -> bytes:
    """Blind ciphertext XOR; no decryption happens or is possible here."""
    if len(mask) != 4 or len(aem) != 4:
        raise ValueError("aem and mask are 4 bytes each")
    return bytes(a ^ m for a, m in zip(aem, mask))


def slot_start(harvest_time: int) -> int:
    return (harvest_time // crypto.INTERVAL_SECONDS) * crypto.INTERVAL_SECONDS


def slot_end(harvest_time: int) -> int:
    return slot_start(harvest_time) + crypto.INTERVAL_SECONDS


class AttackerServer:
    def __init__(self, policy: AttackPolicy, log: Optional[ScanLog] = None, deputies=()):
        """`log` holds the hearings of `deputies`: in a run, the world's scan log
        and the deputy node ids; by default, a log that only `deputy_on_scan` fills."""
        self.policy = policy
        self.log = ScanLog() if log is None else log
        self._deputies = set(deputies)
        self._looked = 0  # links of the log that `catch_up` has looked at
        self.harvest_links: set[int] = set()  # ids of the deputy links whose hearings are kept
        # the relay plan, one row per decision per tick: its key is its entry, the
        # line's fields but `t` and `age_s`, interned by (deputy, identifier)
        self.plan = RowLog()
        # per identifier, the row of its first in-zone hearing (read, never
        # copied), the first and last time it may be relayed, its payload and its
        # plan entry fields but the deputy, all made then (`_take`). First hearing
        # is what matters: it starts the upload clock, and the relay deadline
        # depends only on the slot, which repeats hearings share.
        self._relay_candidates: dict[bytes, tuple[int, int, int, bytes, dict]] = {}
        # sorted times at which a candidate can start or stop changing the plan
        self._plan_edges: list[int] = []

    # -- deputy side ------------------------------------------------------

    def deputy_on_scan(self, deputy_id: str, sighting: Sighting) -> Optional[HarvestRecord]:
        """Forward one hearing to the server. One hearing is all it takes."""
        row = self.log.append(deputy_id, sighting)
        self._deputies.add(deputy_id)
        self.catch_up()
        return self.record(row) if self.log.at(row)[1] in self.harvest_links else None

    def catch_up(self) -> None:
        """Take in each link of the log first heard since the last call whose
        receiver is a deputy. A run calls this after each tick that can hear a
        new link, so a hearing is a relay candidate, with its window fixed,
        from the tick it was heard on."""
        links = self.log.keys
        for link_id in range(self._looked, len(links)):
            if links[link_id].receiver in self._deputies:
                self._take(link_id)
        self._looked = len(links)

    def _take(self, link_id: int) -> None:
        """Keep a deputy link's hearings unless they are our own re-emissions or,
        without `collect_all`, not exposure-notification frames; the link's
        first hearing, when in a harvest zone, is a relay candidate, which can
        change no plan before the next second (its tick's was made before it)."""
        link = self.log.keys[link_id]
        if link.mac == self.policy.relay_mac:
            return  # don't harvest our own re-emissions
        kind = self.log.kind(link_id)
        if not self.policy.collect_all and not isinstance(kind, beacon.Gaen):
            return
        self.harvest_links.add(link_id)
        if (isinstance(kind, beacon.Gaen) and kind.rpi not in self._relay_candidates
                and self._in_harvest_zone(link.rx)):
            pol, rpi, row = self.policy, kind.rpi, self.log.first[link_id]
            heard = self.log.at(row)[0]
            # relayable once uploaded, up to the deadline, and inside the relay window
            deadline = slot_end(heard) + pol.replay_horizon
            lo, hi = heard + pol.relay_latency, deadline
            if pol.relay_window is not None:
                start = slot_start(heard)
                lo, hi = max(lo, start + pol.relay_window[0]), min(hi, start + pol.relay_window[1])
            aem = kind.aem if pol.tamper_mask is None else tamper(kind.aem, pol.tamper_mask)
            self._relay_candidates[rpi] = (row, lo, hi, beacon.encode_gaen(rpi, aem), {
                "rpi_hex": rpi.hex(), "aem_hex": aem.hex(),
                "tampered": pol.tamper_mask is not None, "source_deputy": link.receiver,
                "harvest_t": heard, "harvest_x": link.rx[0], "harvest_y": link.rx[1],
                "deadline_t": deadline})
            insort(self._plan_edges, max(lo, heard + 1))
            insort(self._plan_edges, hi + 1)

    def _in_harvest_zone(self, location) -> bool:
        zones = self.policy.harvest_zones
        return not zones or any(z.contains(*location) for z in zones)

    def record(self, row: int) -> HarvestRecord:
        """A kept hearing, `row` of the log, as the deputy uploaded it (KeyError if not kept)."""
        time, link_id = self.log.at(row)
        if link_id not in self.harvest_links:
            raise KeyError(link_id)
        link = self.log.keys[link_id]
        frame = beacon.BeaconFrame(link.mac, link.payload, self.log.kind(link_id))
        return HarvestRecord(frame=frame, rssi=self.log.value[row], location=link.rx,
                             time=time, deputy_id=link.receiver)

    @property
    def db(self) -> np.ndarray:
        """The row numbers of every kept hearing, in log order (see `record`)."""
        return self.log.rows_of(self.harvest_links)

    # -- server side ------------------------------------------------------

    def select_relays(self, t: int, deputy_positions: dict) -> list[RelayOrder]:
        """Relay plan for time t: the candidates whose window holds t, freshest
        first. Each decision is appended to the plan as one row; a (deputy,
        identifier) pair planned for the first time gets its entry."""
        pol = self.policy
        if not pol.target_zones:
            return []
        targets = [
            d for d in sorted(deputy_positions)
            if any(z.contains(*deputy_positions[d]) for z in pol.target_zones)
        ]
        if not targets:
            return []

        ranked = [(rpi, c) for rpi, c in self._relay_candidates.items() if c[1] <= t <= c[2]]
        # freshest first hearing first; ties (one tick's hearings) broken by
        # identifier bytes, never by the order the tick's hearings were logged in
        ranked.sort(key=lambda kv: (-kv[1][4]["harvest_t"], kv[0]))
        if pol.max_relays_per_deputy is not None:
            ranked = ranked[:pol.max_relays_per_deputy]

        orders, entries, row = [], array("i"), len(self.plan)
        for deputy in targets:
            for rpi, (_, _, _, payload, fields) in ranked:
                orders.append(RelayOrder(payload=payload, deputy_id=deputy))
                entries.append(self.plan.intern((deputy, rpi), {"deputy": deputy, **fields},
                                                row + len(entries)))
        self.plan.repeat(range(t, t + 1), entries)
        return orders

    def next_plan_change(self, t: int) -> float:
        """The first time after t at which `select_relays` could choose otherwise
        for the same deputy positions (inf when never): the first edge after t
        that `_take` filed, the time each candidate can first change a plan or
        the time just after its window. A candidate heard at t counts."""
        edges = self._plan_edges
        i = bisect_right(edges, t)
        return edges[i] if self.policy.target_zones and i < len(edges) else math.inf

    def rebroadcast(self, order: RelayOrder) -> Emission:
        """Emission a deputy makes for one plan entry, under the attacker's MAC;
        the world sends it at the deputy's power."""
        return Emission(order.deputy_id, order.payload, self.policy.relay_mac, relay=True)

    # -- analysis over published keys --------------------------------------

    def reidentify(self, published, *, index: Optional[dict] = None) -> list[dict]:
        """Per published key: every harvested hearing of that person.

        Joins the harvest against the published identifiers by exact
        identifier equality, so nothing is ever attributed to a key whose
        schedule does not contain the sighted identifier. Our own
        re-emissions never reach the harvest (`_take` drops them). Only the
        rows of kept links that pass matching's join (`device.published_kind`)
        are split, by frame, and each goes to every key of its identifier.
        `index` is `crypto.identifier_index` over `published`, built when not given.
        """
        if index is None:
            index = crypto.identifier_index([e.tek for e in published])
        log = self.log
        published_frame = published_kind(log, index)
        rows = log.rows_of(link_id for link_id in self.harvest_links if published_frame(link_id))
        hits: list[list[tuple]] = [[] for _ in published]  # (t, x, y, row, mac)
        times, link_ids = log.decode(rows)  # once: each group takes its own by position
        for kind, group in log.group(published_frame, rows, link_ids).items():
            at = np.searchsorted(rows, group)
            for t, link_id, row in zip(times[at].tolist(), link_ids[at].tolist(), group.tolist()):
                link = log.keys[link_id]
                hit = (t, link.rx[0], link.rx[1], row, link.mac)
                for pos, _interval in index[kind.rpi]:
                    hits[pos].append(hit)

        dossiers = []
        for pos in sorted(range(len(published)), key=lambda i: published[i].tek.key.hex()):
            # by time, then x, then y, then row: the order the pinned dossiers hold
            sightings = [{"t": t, "x": x, "y": y, "rssi": log.value[row], "mac": mac}
                         for t, x, y, row, mac in sorted(hits[pos])]
            dossiers.append({"tek_hex": published[pos].tek.key.hex(), "sightings": sightings})
        return dossiers
