"""Honest device state machine: key rotation, broadcast, storage, matching.

A device exists only for a node with the app (`NodeSpec.app`) and
broadcasts on every tick. Its frame is the `radio.Emission` the world
takes, made where its identifier and MAC rotate, once per 10-minute
interval, and returned on every tick of that interval. The power its
metadata claims is fixed for the run; the world sends at its node's.

Matching semantics:

  * A stored sighting matches a published key when its payload carries one
    of the key's 144 regenerated identifiers AND its timestamp lies within
    `tolerance` (default 2 h) of that identifier's nominal 10-minute
    broadcast window. The wide tolerance is the protocol's replay window:
    an identifier heard once can be productively re-emitted for about two
    hours afterwards.
  * Matched sightings are scored by attenuation = claimed tx power (from
    the decrypted metadata) minus received rssi; only sightings at or
    below `attenuation_threshold` count as close. The claimed power is
    attacker-malleable, which is what makes metadata tampering matter.
  * Close matched sightings accumulate duration per (key, day), counting
    each tick at most once; a notification is emitted at
    `duration_threshold` (default 15 min).
  * Each notification also counts its close matched ticks whose link is
    direct, neither relayed nor injected (`direct_duration`): ground truth
    from the scan log's links, which no device could see. A direct hearing
    carries its owner's untampered metadata, so its claimed attenuation is
    its true one.

Devices keep every sighting unfiltered; all filtering happens here at
matching time. A device's sightings are row numbers of a scan log
(`DeviceState.log`), its rows of that log, found only when `sightings` is
read: on its own, the rows that `on_scan` logs in a log of its own
(`ScanLog.append`: a hearing with no emitter); in a run, its rows of the
world's log. Matching is an index join over the rows it is given: the
scan log decodes each distinct payload once (`radio.ScanLog.kind`), the
one published-identifier join (`published_kind`: is the frame's identifier
in `crypto.identifier_index`, built once per run?) keeps the links that can
match and groups their rows by frame (`radio.RowLog.group`), the metadata
is decrypted once per distinct frame and matching key, and the window and
attenuation tests run as column operations. Re-identification makes the
same join (`attacker.AttackerServer.reidentify`). A run hands matching only
the rows that can match, each device's rows of the links that pass the
join, so no other row is split. Whether a close matched row is direct
(`radio.Link.direct`) is read once per distinct link those rows hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from . import beacon, crypto
from .radio import Emission, ScanLog, Sighting, attenuation

TEK_RETENTION_DAYS = 14


class MatchingParams(NamedTuple):
    tolerance: int = 7200
    attenuation_threshold: float = 55.0
    duration_threshold: int = 900
    tick: int = 1


class ExposureNotification(NamedTuple):
    """Durations in seconds: every close matched tick (`cumulative_duration`),
    and those heard straight from the key's owner (`direct_duration`)."""

    matched_tek: crypto.TemporaryExposureKey
    day: int
    cumulative_duration: int
    min_attenuation: float
    direct_duration: int


@dataclass
class DeviceState:
    id: str
    rng: Random
    tx_power: int = 0  # the power its metadata claims
    current_tek: Optional[crypto.TemporaryExposureKey] = None
    tek_history: list = field(default_factory=list)
    log: ScanLog = field(default_factory=ScanLog)  # holds what it heard (`sightings`)
    mac_history: list = field(default_factory=list)  # (interval, mac) ground truth
    # per-interval broadcast state, made when the identifier rotates
    _interval: int = -1
    _rpik: bytes = b""
    _aemk: bytes = b""
    _emission: Optional[Emission] = None

    @property
    def sightings(self) -> np.ndarray:
        """Every row of `log` this device heard, in log order, found when read
        (`RowLog.rows_of` over the links it is the receiver of)."""
        return self.log.rows_of(link_id for link_id, link in enumerate(self.log.keys)
                                if link.receiver == self.id)


def _random_mac(rng: Random) -> str:
    raw = bytearray(rng.randbytes(6))
    raw[0] = (raw[0] & 0xFE) | 0x02  # locally administered, unicast
    return ":".join(f"{b:02x}" for b in raw)


def _roll_keys(state: DeviceState, t: int) -> None:
    interval = crypto.interval_number(t)
    if interval == state._interval:
        return
    day_start = crypto.day_start_interval(interval)
    if state.current_tek is None or state.current_tek.rolling_start != day_start:
        if state.current_tek is not None:
            state.tek_history.append(state.current_tek)
            del state.tek_history[:-(TEK_RETENTION_DAYS - 1)]
        state.current_tek = crypto.new_tek(state.rng, day_start)
        state._rpik = crypto.derive_rpik(state.current_tek)
        state._aemk = crypto.derive_aemk(state.current_tek)
    # identifier and MAC rotate together, on the same boundary, and the frame with them
    state._interval = interval
    rpi = crypto.generate_rpi(state._rpik, interval).rpi
    mac = _random_mac(state.rng)
    state.mac_history.append((interval, mac))
    aem = crypto.encrypt_aem(state._aemk, rpi, crypto.Metadata(tx_power=state.tx_power))
    state._emission = Emission(state.id, beacon.encode_gaen(rpi, aem), mac)


def broadcast_current(state: DeviceState, t: int) -> Emission:
    """The frame this device advertises at time t, as the world takes it: one
    object for every tick of an identifier interval."""
    _roll_keys(state, t)
    return state._emission


def on_scan(state: DeviceState, sighting: Sighting) -> None:
    state.log.append(state.id, sighting)


def retained_keys(state: DeviceState) -> list:
    """Its key history, then its current key: at most TEK_RETENTION_DAYS keys."""
    teks = list(state.tek_history)
    if state.current_tek is not None:
        teks.append(state.current_tek)
    return teks


def diagnose_and_upload(state: DeviceState, server, t: int) -> list:
    """Publish the retained daily keys; the registry is world-readable."""
    if state.current_tek is None:
        # diagnosed before the first broadcast (t = 0): draw today's key now,
        # exactly as that broadcast would have, so there is a key to publish
        _roll_keys(state, t)
    teks = retained_keys(state)
    server.publish(teks, t)
    return teks


def published_kind(log: ScanLog, index: dict):
    """The published-identifier join as a `RowLog.group` key: link id -> its frame's
    `Gaen` kind (`ScanLog.kind`) when its identifier is in `index`, else None."""
    def key(link_id: int) -> Optional[beacon.Gaen]:
        kind = log.kind(link_id)
        return kind if isinstance(kind, beacon.Gaen) and kind.rpi in index else None
    return key


def match_exposures(state: DeviceState, published_teks, params: MatchingParams, *,
                    index: Optional[dict] = None, rows=None) -> list:
    """The notifications `state`'s stored sightings raise against published keys.

    `index` is `crypto.identifier_index(published_teks)`, built here when not
    given; a run builds it once and shares it across devices. `rows` are the
    rows of `state.log` to match, in log order (`state.sightings` when not
    given), grouped by `published_kind`: a row whose link fails that join is
    left out, so a run hands over only the device's rows that pass it.
    """
    if index is None:
        index = crypto.identifier_index(published_teks)
    own = {tek.key for tek in retained_keys(state)}

    log = state.log
    rssi_col = np.frombuffer(log.value, dtype=np.float64)
    rows = state.sightings if rows is None else np.asarray(rows, dtype=np.int64)
    times, link_ids = log.decode(rows)  # once: each group takes its own by position
    matched_t: list[list] = [[] for _ in published_teks]  # times of the close matched rows per key
    direct_t: list[list] = [[] for _ in published_teks]  # those of them heard direct
    min_att: list[Optional[float]] = [None] * len(matched_t)
    for kind, group in log.group(published_kind(log, index), rows, link_ids).items():
        at = np.searchsorted(rows, group)
        group_t, group_link, group_rssi = times[at], link_ids[at], rssi_col[group]
        direct = None  # per row; links hold one frame, so each is looked at once
        for pos, interval in index[kind.rpi]:
            window_start = interval * crypto.INTERVAL_SECONDS
            window_end = window_start + crypto.INTERVAL_SECONDS
            in_window = ((group_t >= window_start - params.tolerance)
                         & (group_t <= window_end + params.tolerance))
            if not in_window.any():
                continue
            tek = published_teks[pos]
            claimed = crypto.decrypt_aem(crypto.derive_aemk(tek), kind.rpi, kind.aem).tx_power
            att = attenuation(claimed, group_rssi)
            close = in_window & (att <= params.attenuation_threshold)
            if close.any():
                if direct is None:
                    links, of_row = np.unique(group_link, return_inverse=True)
                    direct = np.array([log.keys[i].direct for i in links.tolist()])[of_row]
                matched_t[pos].append(group_t[close])
                direct_t[pos].append(group_t[close & direct])
                best = float(att[close].min())
                min_att[pos] = best if min_att[pos] is None else min(min_att[pos], best)

    def duration(parts) -> int:
        return len(set().union(*(times.tolist() for times in parts))) * params.tick

    notifications = []
    for pos, tek in enumerate(published_teks):
        if tek.key in own:
            continue
        cumulative = duration(matched_t[pos])
        if cumulative >= params.duration_threshold:
            notifications.append(ExposureNotification(
                matched_tek=tek,
                day=tek.rolling_start // crypto.INTERVALS_PER_DAY,
                cumulative_duration=cumulative,
                min_attenuation=min_att[pos],
                direct_duration=duration(direct_t[pos]),
            ))
    return notifications
