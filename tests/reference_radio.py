"""Reference radio: the straightforward scan-delivery loop, event routing and
event-log writer.

`reference_step` recomputes every emitter-scanner distance and path loss on
every tick and builds each event field by field; `reference_write_event_log`
encodes each event with one `json.dumps` of the whole line;
`reference_route` hands every event, one by one, to the structures that
readers of the scan log derive from it. The link-table `World.step`, the
columnar `ScanLog` and its readers must give the same events, the same
bytes and the same derived results; see test_radio_oracle.py. The
reference keeps each event as a `ScanEvent` of its own, a hearing from
outside the radio as `appended` makes it; `events` and `sightings` rebuild
rows of a `ScanLog` as those, for comparing with the plain lists these
keep, through `same`.
"""

import json
import math
from types import SimpleNamespace
from typing import NamedTuple, Optional

from ensim import beacon
from ensim.attacker import HarvestRecord
from ensim.radio import MIN_DISTANCE_M, Sighting, propagate


class ScanEvent(NamedTuple):
    """One hearing as the reference keeps it: who heard what, and (ground
    truth) who sent it, if anyone did, and whether it was relayed."""

    receiver_id: str
    sighting: Sighting
    emitter_id: Optional[str] = None  # None for a hearing from outside the radio
    relay: bool = False


def appended(receiver_id, sighting):
    """A hearing from outside the radio as a log keeps it: its rssi a float."""
    return ScanEvent(receiver_id, sighting._replace(rssi=float(sighting.rssi)))


def same(got, want) -> bool:
    """`got == want`, compared by their text: a NaN rssi read from a log is a
    new float each time, and NaN is not equal to itself. Text also tells an
    int from a float and 0.0 from -0.0."""
    return repr(got) == repr(want)


def reference_step(world, t, emissions):
    """Deliver each emission once to every in-range scanner of `world`, drawing
    noise from the world's generator; appends to and returns like World.step."""
    if t < 0 or t >= world.config.duration or t % world.config.tick != 0:
        raise ValueError(f"t={t} outside simulation schedule")
    pl = world.config.path_loss
    new = []
    positions = {nid: world.nodes[nid].position(t) for nid in world.nodes}
    for em in emissions:
        ex, ey = positions[em.node_id]
        for sid in world._scanner_ids:
            if sid == em.node_id:
                continue
            sx, sy = positions[sid]
            d = max(math.hypot(sx - ex, sy - ey), MIN_DISTANCE_M)
            if d > world.config.radio_range_max:
                continue
            noise = world._rng.gauss(0.0, pl.noise_sigma) if pl.noise_sigma > 0 else 0.0
            tx_power = world.nodes[em.node_id].tx_power
            rssi = propagate(tx_power, d, pl, world.config.radio_range_max) + noise
            new.append(ScanEvent(
                receiver_id=sid,
                sighting=Sighting(em.payload, em.mac, rssi, t, (sx, sy)),
                emitter_id=em.node_id,
                relay=em.relay,
            ))
    world.events.extend(new)
    return new


def events(log, rows=None):
    """`rows` of `log` (every row when None), in the order given, as ScanEvents."""
    out = []
    for row in range(len(log)) if rows is None else map(int, rows):
        t, link_id = log.at(row)
        link = log.keys[link_id]
        sighting = Sighting(link.payload, link.mac, log.value[row], t, link.rx)
        out.append(ScanEvent(link.receiver, sighting, link.emitter, link.relay))
    return out


def sightings(log, rows=None):
    """`rows` of `log` (every row when None), in the order given, as Sightings."""
    return [event.sighting for event in events(log, rows)]


def reference_write_event_log(events, path):
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


def reference_route(events, device_ids, deputy_ids, policy):
    """Every event delivered in turn, as a per-event routing loop would: each
    device's sightings, and for each of them whether it was heard straight
    from its emitter's broadcast (neither relayed nor injected), the
    attacker's harvest (each hearing a deputy keeps), its relay candidates
    (first in-zone hearing per identifier) and the owners of frames
    harvested straight from their broadcast."""
    out = SimpleNamespace(sightings={nid: [] for nid in device_ids},
                          direct={nid: [] for nid in device_ids}, db=[], candidates={},
                          owners=set())
    for ev in events:
        s, rid = ev.sighting, ev.receiver_id
        direct = ev.emitter_id is not None and not ev.relay
        if rid in out.sightings:
            out.sightings[rid].append(s)
            out.direct[rid].append(direct)
        if rid in deputy_ids and s.mac != policy.relay_mac:
            frame = beacon.decode(s.payload, s.mac)
            gaen = isinstance(frame.kind, beacon.Gaen)
            if gaen or policy.collect_all:
                record = HarvestRecord(frame, s.rssi, s.rx_location, s.time, rid)
                out.db.append(record)
                in_zone = not policy.harvest_zones or any(
                    z.contains(*s.rx_location) for z in policy.harvest_zones)
                if gaen and in_zone and frame.kind.rpi not in out.candidates:
                    out.candidates[frame.kind.rpi] = record
                if direct:
                    out.owners.add(ev.emitter_id)
    return out
