"""Reference radio: the straightforward scan-delivery loop and event-log writer.

`reference_step` recomputes every emitter-scanner distance and path loss on
every tick and builds each event field by field; `reference_write_event_log`
encodes each event with one `json.dumps` of the whole line. The link-table
`World.step` and the fragment-caching `write_event_log` must give the same
events and the same bytes; see test_radio_oracle.py.
"""

import json
import math

from ensim.radio import MIN_DISTANCE_M, ScanEvent, Sighting, propagate


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
            rssi = propagate(em.tx_power, d, noise, pl, world.config.radio_range_max)
            new.append(ScanEvent(
                receiver_id=sid,
                sighting=Sighting(em.payload, em.mac, rssi, t, (sx, sy)),
                emitter_id=em.node_id,
                relay=em.relay,
            ))
    world.events.extend(new)
    return new


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
