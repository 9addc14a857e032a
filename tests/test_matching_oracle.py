"""Differential tests: index-join matching and re-identification against the
straightforward joins in reference_matching.py.

Generated inputs mix genuine, replayed and tampered GAEN sightings at the
edges of the replay tolerance, duplicate ticks, the matching device's own
frames, non-GAEN and malformed payloads, int, float and NaN rssi, int and
float receiver positions, and published lists that repeat a key, include
the device's own keys or a key nobody broadcast. The sightings reach the
production code twice: through a device's (or server's) own scan log, and
injected into a world's log that hands each receiver its rows. The
references read the generated sightings as plain lists, each rssi as the
float a log stores.
"""

import random
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_matching as ref
import reference_radio
from ensim import beacon, crypto
from ensim.attacker import AttackPolicy, AttackerServer, tamper
from ensim.device import DeviceState, MatchingParams, broadcast_current, match_exposures, on_scan
from ensim.diagnosis import PublishedTek
from ensim.radio import NO_ROWS, NodeSpec, Sighting, World, WorldConfig

# straddles the first day boundary, so every device holds two daily keys
INTERVALS = (0, 1, 2, 142, 143, 144, 145)
MASKS = (None, b"\x00\xf8\x00\x00", b"\x01\x02\x03\x04")
DECOY = beacon.encode_decoy(beacon.IBeacon(
    uuid="01022022-fa0f-0100-00ac-dd1c6502da1c", major=53479, minor=42571, tx=-59))
OTHER_MAC = "02:00:00:00:00:99"


def _device(nid, seed, tx_power):
    dev = DeviceState(id=nid, rng=random.Random(seed), tx_power=tx_power)
    frames = {i: broadcast_current(dev, i * crypto.INTERVAL_SECONDS) for i in INTERVALS}
    return dev, frames


def _keys(dev):
    return dev.tek_history + [dev.current_tek]


@st.composite
def worlds(draw):
    """(receiver, published keys, sightings, matching params)."""
    tolerance = draw(st.sampled_from([0, 60, 7200]))
    params = MatchingParams(
        tolerance=tolerance,
        attenuation_threshold=draw(st.sampled_from([41.0, 55.0, 61.0])),
        duration_threshold=draw(st.sampled_from([0, 1, 2, 3])),
        tick=draw(st.sampled_from([1, 2])),
    )
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=3, max_size=3, unique=True))
    powers = draw(st.lists(st.sampled_from([-8, 0, 4]), min_size=3, max_size=3))
    receiver, own = _device("rx", seeds[0], powers[0])
    carriers = [_device(f"c{i}", s, p) for i, (s, p) in enumerate(zip(seeds[1:], powers[1:]))]
    keys = _keys(receiver) + [k for dev, _ in carriers for k in _keys(dev)]
    keys.append(crypto.new_tek(random.Random(seeds[0] + 1), 0))  # published, never heard

    window = crypto.INTERVAL_SECONDS
    edges = [-tolerance - 1, -tolerance, 0, 1, window - 1, window,
             window + tolerance, window + tolerance + 1]
    sightings = []
    for _ in range(draw(st.integers(0, 40))):
        source = draw(st.sampled_from(["c0", "c0", "c1", "c1", "own", "decoy", "garbage"]))
        interval = draw(st.sampled_from(INTERVALS))
        offset = draw(st.sampled_from(edges) | st.sampled_from(edges)
                      | st.integers(-tolerance - 5, window + tolerance + 5))
        t = interval * window + offset
        rssi = draw(st.sampled_from([-20.0, -41.0, -47, -55.0, -58.0, -70.5, float("nan")])
                    | st.floats(-100.0, 0.0, allow_nan=False))
        if source == "decoy":
            payload, mac = DECOY, OTHER_MAC
        elif source == "garbage":
            payload, mac = draw(st.binary(max_size=31)), OTHER_MAC
        else:
            frames = own if source == "own" else carriers[int(source[1])][1]
            frame = frames[interval]
            kind = beacon.decode(frame.payload, frame.mac).kind
            aem, mask = kind.aem, draw(st.sampled_from(MASKS))
            if mask is not None:
                aem = tamper(aem, mask)
            payload = beacon.encode_gaen(kind.rpi, aem)
            mac = draw(st.sampled_from([frame.mac, OTHER_MAC]))
        repeats = draw(st.integers(1, 2))  # the same hearing twice on one tick
        rx = draw(st.sampled_from([(float(offset % 7), 0.0), (offset % 7, 0)]))
        sightings += [Sighting(payload, mac, rssi, t, rx)] * repeats
    published = [keys[i] for i in draw(st.lists(st.integers(0, len(keys) - 1), max_size=9))]
    return receiver, published, sightings, params


@settings(max_examples=120, deadline=None)
@given(worlds())
def test_match_exposures_equals_reference(world):
    receiver, published, sightings, params = world
    stored = [reference_radio.appended("rx", s).sighting for s in sightings]
    expected = ref.match_exposures(
        SimpleNamespace(sightings=stored, tek_history=receiver.tek_history,
                        current_tek=receiver.current_tek), published, params)
    for s in sightings:
        on_scan(receiver, s)
    assert reference_radio.same(reference_radio.sightings(receiver.log, receiver.sightings), stored)
    assert match_exposures(receiver, published, params) == expected
    index = crypto.identifier_index(published)
    assert match_exposures(receiver, published, params, index=index) == expected

    log = _world_of(sightings, {"rx": "app"}).events
    receiver.log = log
    every = log.group(lambda link_id: log.keys[link_id].receiver, np.arange(len(log)))
    assert np.array_equal(receiver.sightings, every.get("rx", NO_ROWS))
    assert reference_radio.same(reference_radio.sightings(receiver.log, receiver.sightings), stored)
    assert match_exposures(receiver, published, params, index=index) == expected


def _world_of(sightings, roles):
    """A world whose log holds `sightings`, injected in turn to the nodes of
    `roles` (node id -> "app" or "deputy") round-robin."""
    ids = sorted(roles)
    nodes = tuple(NodeSpec(id=nid, trajectory=((0, 0.0, 0.0),), app=roles[nid] == "app",
                           deputy=roles[nid] == "deputy") for nid in ids)
    world = World(WorldConfig(nodes=nodes, tick=1, duration=1))
    for i, s in enumerate(sightings):
        world.inject(ids[i % len(ids)], s)
    return world


@settings(max_examples=80, deadline=None)
@given(worlds(), st.booleans())
def test_reidentify_equals_reference(world, collect_all):
    _, published, sightings, _ = world
    policy = AttackPolicy(collect_all=collect_all)
    deputies = ("d0", "d1", "d2")
    same = reference_radio.same
    events = [reference_radio.appended(deputies[i % 3], s) for i, s in enumerate(sightings)]
    route = reference_radio.reference_route(events, (), deputies, policy)
    entries = [PublishedTek(tek, i) for i, tek in enumerate(published)]
    expected = ref.reidentify(SimpleNamespace(db=route.db, policy=policy), entries)

    server = AttackerServer(policy)
    for i, s in enumerate(sightings):
        server.deputy_on_scan(deputies[i % 3], s)
    assert same(list(map(server.record, server.db.tolist())), route.db)
    assert same(server.reidentify(entries), expected)

    world = _world_of(sightings, dict.fromkeys(deputies, "deputy"))
    server = AttackerServer(policy, log=world.events, deputies=deputies)
    server.catch_up()
    assert same(list(map(server.record, server.db.tolist())), route.db)
    # a candidate keeps its first hearing's row; the reference keeps that hearing's record
    candidates = {rpi: server.record(row)
                  for rpi, (row, *_) in server._relay_candidates.items()}
    assert same(candidates, route.candidates)
    assert same(server.reidentify(entries), expected)


@settings(max_examples=40, deadline=None)
@given(worlds())
def test_harvest_frames_keep_each_hearings_mac(world):
    _, _, sightings, _ = world
    server = AttackerServer(AttackPolicy(collect_all=True))
    for s in sightings:
        record = server.deputy_on_scan("d", s)
        frame = beacon.decode(s.payload, s.mac)
        assert type(record.frame) is beacon.BeaconFrame and type(record.frame.kind) is type(frame.kind)
        assert record.frame == frame
