"""Reference exposure matching and re-identification: the straightforward joins.

These are the original implementations, kept as a differential oracle for
the production code in the way `reference_gaen.py` serves the crypto: every
stored sighting is decoded, every published key regenerates its own day of
identifiers, and each key scans all sightings (O(keys x sightings)). The
production `device.match_exposures` and `AttackerServer.reidentify` must
return equal results. Test-only: slow on purpose.
"""

from ensim import beacon, crypto
from ensim.device import ExposureNotification
from ensim.radio import attenuation


def match_exposures(state, published_teks, params, direct=None) -> list:
    """Notifications for `state` against `published_teks`. `direct` says for
    each sighting whether it was heard straight from its emitter's broadcast
    (a Sighting cannot tell); none was when it is not given."""
    own = {tek.key for tek in state.tek_history}
    if state.current_tek is not None:
        own.add(state.current_tek.key)

    parsed = []
    for s, heard_direct in zip(state.sightings, direct or [False] * len(state.sightings),
                               strict=True):
        kind = beacon.decode(s.payload, s.mac).kind
        if isinstance(kind, beacon.Gaen):
            parsed.append((s.time, s.rssi, kind.rpi, kind.aem, heard_direct))

    notifications = []
    for tek in published_teks:
        if tek.key in own:
            continue
        aemk = crypto.derive_aemk(tek)
        rpi_interval = {r.rpi: r.interval for r in crypto.regenerate_day(tek)}
        matched_ticks, direct_ticks = set(), set()
        min_att = None
        for s_time, s_rssi, rpi, aem, heard_direct in parsed:
            interval = rpi_interval.get(rpi)
            if interval is None:
                continue
            window_start = interval * crypto.INTERVAL_SECONDS
            window_end = window_start + crypto.INTERVAL_SECONDS
            if not (window_start - params.tolerance <= s_time <= window_end + params.tolerance):
                continue
            meta = crypto.decrypt_aem(aemk, rpi, aem)
            att = attenuation(meta.tx_power, s_rssi)
            if att <= params.attenuation_threshold:
                matched_ticks.add(s_time)
                if heard_direct:
                    direct_ticks.add(s_time)
                min_att = att if min_att is None else min(min_att, att)
        duration = len(matched_ticks) * params.tick
        if duration >= params.duration_threshold:
            notifications.append(ExposureNotification(
                matched_tek=tek,
                day=tek.rolling_start // crypto.INTERVALS_PER_DAY,
                cumulative_duration=duration,
                min_attenuation=min_att,
                direct_duration=len(direct_ticks) * params.tick,
            ))
    return notifications


def reidentify(server, published) -> list:
    """Per published key, every harvested hearing of that person, by exact identifier."""
    gaen_records = [
        (r, r.frame.kind.rpi)
        for r in server.db
        if r.mac != server.policy.relay_mac and isinstance(r.frame.kind, beacon.Gaen)
    ]
    dossiers = []
    for entry in sorted(published, key=lambda e: e.tek.key.hex()):
        rpis = {r.rpi for r in crypto.regenerate_day(entry.tek)}
        hits = [
            {"t": r.time, "x": r.location[0], "y": r.location[1],
             "rssi": r.rssi, "mac": r.mac}
            for r, rpi in gaen_records
            if rpi in rpis
        ]
        hits.sort(key=lambda h: (h["t"], h["x"], h["y"]))
        dossiers.append({"tek_hex": entry.tek.key.hex(), "sightings": hits})
    return dossiers
