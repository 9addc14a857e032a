"""Differential tests: the link-table World.step, the columnar ScanLog, its
readers and write_event_log against the from-scratch loop, the per-event
routing and the one-json.dumps-per-line writer in reference_radio.py (and
the straightforward joins in reference_matching.py).

Generated worlds move nodes across several waypoints (some at the same tick),
give nodes different tx powers (each emission goes out at its node's), let
deputies relay, may make a node both app and deputy, place pairs exactly at
the radio range (on an axis and on a diagonal) and closer than
MIN_DISTANCE_M, sometimes with a range at or below MIN_DISTANCE_M, draw noise or not (with odd draw counts per tick, so
the generator's cached second gaussian carries across ticks), may overflow rssi
to infinity, inject sightings with an int, NaN, infinite or signed-zero rssi
(so a batch of the log mixes rssi values that compare equal but are written
differently), and use ids and MACs with quotes or non-ASCII characters and
integer coordinates. The reference worlds keep their events in a plain
list, so nothing of the ScanLog is used to check it; a hearing from outside
the radio goes there with its rssi as a float, as the log stores it.

Runs of ticks that send the same emissions are stepped at once
(`World.step(t, emissions, ticks=k)`), with injections between spans and
draw-ahead refills as small as one gaussian pair, so spans cross refills
and take their noise in several pieces. Each span must give the events of
k reference steps, and the log the same columns, links and first hearings,
bit for bit, as a world stepped one tick at a time.

Numbers the radio never makes are written through logs built with
`ScanLog.append`: any float, NaN and infinities included, the ends of the
window in which write_event_log takes orjson's text, a tie between two
shortest decimals, and injected ints (written as the floats the column
holds), after enough rows that they land in a later batch. At noise 0 a
link's rows hold one rssi until its emitter moves, which keeps the link (it
holds the receiver's place only), or an injected row repeats the link with
another rssi; such rows are written per row, not from the link's line.
"""

import math
import random
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import reference_matching
import reference_radio as ref
from ensim import beacon, crypto, engine, radio
from ensim.attacker import DEFAULT_RELAY_MAC, AttackPolicy, AttackerServer, Zone, tamper
from ensim.beacon import encode_gaen
from ensim.device import DeviceState, MatchingParams, broadcast_current, match_exposures
from ensim.diagnosis import PublishedTek
from ensim.radio import (Emission, NodeSpec, PathLoss, ScanLog, Sighting, World, WorldConfig,
                         write_event_log)

IDS = ("a", "b", 'q"uote', "ü-node", "back\\slash", "节点")
MACS = ("aa:aa:aa:aa:aa:aa", 'ma"c', "ñ:01", "f0:0d:00:00:00:01")
PAYLOADS = (encode_gaen(bytes(16), bytes(4)), b"", bytes(range(31)))
TX_POWERS = (-8, 0, 4)
RANGE = 10
# radio ranges: mostly RANGE, sometimes MIN_DISTANCE_M, where only co-located or
# nearer nodes hear each other, or below it, where none do
RANGES = (RANGE, RANGE, radio.MIN_DISTANCE_M, radio.MIN_DISTANCE_M / 2)
# 0 and 10 are exactly RANGE apart, and so are (0, 0) and (6.0, 8) on a diagonal
# (math.hypot gives 10.0); 0, 0.0, -0.0 and 0.004 are co-located or closer than
# MIN_DISTANCE_M; int and float zero and -0.0 give the same distance but write differently
COORDS = (0, 0.0, -0.0, 0.004, 3, 6.0, 8, 10, -10.0)
DURATION = 8
WAYPOINT_TIMES = (0, 2, 3, 5)
# 0, 0.0 and -0.0 compare equal but are written differently
INJECTED_RSSI = (-12, 0, -60, -12.5, float("nan"), 0.0, -0.0, float("inf"))
# rssi of either sign at the ends of write_event_log's orjson window
# (1e-4 <= |x| < 1e16), zero, the smallest and largest floats, and 2**50 + 0.25,
# which lies halfway between the 17-digit decimals ...624.2 and ...624.3
NUMBER_EDGES = tuple(sign * v for v in (1e-4, math.nextafter(1e-4, 0), math.nextafter(1e16, 0),
                                        1e16, 0.0, 5e-324, sys.float_info.max, 2.0 ** 50 + 0.25)
                     for sign in (1, -1))
# NoiseAhead refill sizes: at 1 or 3 pairs, most spans cross a refill and take their
# noise in several pieces
CHUNK_PAIRS = (1, 3, radio.NOISE_CHUNK_PAIRS)


@st.composite
def radio_runs(draw):
    """(world config, emissions per tick, injections as (t, receiver, sighting))."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=2, max_size=5, unique=True))
    nodes = []
    for nid in ids:
        times = sorted(draw(st.sets(st.sampled_from(WAYPOINT_TIMES), min_size=1, max_size=4)))
        trajectory = tuple((wt, draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS)))
                           for wt in times)
        nodes.append(NodeSpec(id=nid, trajectory=trajectory, app=draw(st.booleans()),
                              deputy=draw(st.booleans()), tx_power=draw(st.sampled_from(TX_POWERS))))
    config = WorldConfig(
        nodes=tuple(nodes),
        # an exponent this large overflows rssi to +-inf, which the log writes as json does
        path_loss=PathLoss(exponent=draw(st.sampled_from([2.0, 2.0, 1e308])),
                           noise_sigma=draw(st.sampled_from([0.0, 4.0]))),
        radio_range_max=draw(st.sampled_from(RANGES)),
        tick=1,
        duration=DURATION,
        seed=draw(st.integers(0, 3)),
    )
    # app nodes broadcast, deputies relay; each emission at its node's tx power
    senders = [(n.id, False) for n in nodes if n.app] + [(n.id, True) for n in nodes if n.deputy]
    schedule = []
    for _ in range(DURATION):
        emissions = []
        for _ in range(draw(st.integers(0, 4)) if senders else 0):
            nid, relay = draw(st.sampled_from(senders))
            emissions.append(Emission(nid, draw(st.sampled_from(PAYLOADS)),
                                      draw(st.sampled_from(MACS)), relay))
        schedule.append(emissions)
    injections = []
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, DURATION - 1))
        receiver = draw(st.sampled_from(nodes))
        injections.append((t, receiver.id, Sighting(
            draw(st.sampled_from(PAYLOADS)), draw(st.sampled_from(MACS)),
            draw(st.sampled_from(INJECTED_RSSI)), t,
            receiver.position(t))))
    ticks = draw(spans(nodes, DURATION, [t for t, _, _ in injections]))
    return config, schedule, injections, ticks, draw(st.sampled_from(CHUNK_PAIRS))


@st.composite
def spans(draw, nodes, n_ticks, injected, waypoint_tick=1):
    """(first tick, ticks) in turn over `n_ticks` ticks: a span may end on a
    tick with injections, but no waypoint changes and no tick is injected
    into within it. Times are counted in ticks of `waypoint_tick` seconds."""
    stops = {wp[0] // waypoint_tick for n in nodes for wp in n.trajectory} | {k + 1 for k in injected}
    out, k = [], 0
    while k < n_ticks:
        stop = min([s for s in stops if s > k] + [n_ticks])
        out.append((k, draw(st.integers(1, stop - k))))
        k += out[-1][1]
    return out


def assert_same_generator(fast, slow):
    """The noise `fast` holds drawn ahead is what the reference world's generator
    gives next, bit for bit; once that is drawn, both generators are in one state."""
    ahead = fast._noise.ahead()
    sigma = fast.config.path_loss.noise_sigma
    drained = np.array([slow._rng.gauss(0.0, sigma) for _ in range(len(ahead))])
    assert ahead.view(np.int64).tolist() == drained.view(np.int64).tolist()
    assert fast._rng.getstate() == slow._rng.getstate()


def assert_same_log(got, want):
    """Two worlds' scan logs hold the same columns bit for bit, the same links
    (told apart by repr, as 0 and 0.0 are) and the same first hearings."""
    for a, b in zip(got.events.columns(), want.events.columns()):
        assert a.tobytes() == b.tobytes()
    assert list(map(repr, got.events.keys)) == list(map(repr, want.events.keys))
    assert got.events.first == want.events.first


def step_span(fast, slow, single, t, emissions, ticks):
    """Step `fast` over `ticks` ticks at once, `slow` through the reference and
    `single` through World.step one tick at a time; the new events must match."""
    tick = fast.config.tick
    expected = []
    for k in range(ticks):
        expected += ref.reference_step(slow, t + k * tick, emissions)
        single.step(t + k * tick, emissions)
    rows = fast.step(t, emissions, ticks=ticks)
    assert len(rows) == len(expected)
    assert ref.events(fast.events, rows) == expected


@settings(max_examples=300, deadline=None)
@given(radio_runs())
def test_step_and_event_log_match_reference(run):
    config, schedule, injections, ticks, chunk = run
    fast, slow, single = World(config), World(config), World(config)
    slow.events = []
    with mock.patch.object(radio, "NOISE_CHUNK_PAIRS", chunk):
        for t, k in ticks:
            step_span(fast, slow, single, t, schedule[t], k)
            for when, receiver, sighting in injections:
                if when == t + k - 1:
                    for world in (fast, single):
                        world.inject(receiver, sighting)
                    slow.events.append(ref.appended(receiver, sighting))
    assert ref.same(ref.events(fast.events), slow.events)
    assert_same_log(fast, single)
    assert_same_generator(fast, slow)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        write_event_log(fast.events, got)
        ref.reference_write_event_log(slow.events, want)
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(NUMBER_EDGES),
                          st.integers(-2 ** 70, 2 ** 70)), max_size=40),
       st.integers(0, 2 * radio.WRITE_BATCH_ROWS + 1), st.integers(-2 ** 62, 2 ** 62))
@example([*NUMBER_EDGES, -12, 0], radio.WRITE_BATCH_ROWS + 3, 0)
def test_event_log_numbers_match_reference(values, filler, t0):
    """`values` as the rssi of rows appended after `filler` rows of noisy rssi,
    from time t0 on, are written as the one-json.dumps-per-line writer does
    with each rssi as a float."""
    noise = random.Random(filler)
    rssis = [-60.0 + noise.gauss(0.0, 4.0) for _ in range(filler)] + values
    heard = [(IDS[i % 2], Sighting(PAYLOADS[0], MACS[i % 3], rssi, t0 + i, (0, 0.0)))
             for i, rssi in enumerate(rssis)]
    log = ScanLog()
    for receiver, sighting in heard:
        log.append(receiver, sighting)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        write_event_log(log, got)
        ref.reference_write_event_log([ref.appended(*h) for h in heard], want)
        assert got.read_bytes() == want.read_bytes()


def test_int_to_float_waypoint_is_a_move():
    # (0, 0) -> (0.0, 0.0) leaves every distance as it was, but the log writes rx_x
    # as 0 before and 0.0 after, so the table must take the new waypoint's position
    nodes = (NodeSpec(id="a", trajectory=((0, 0, 0), (2, 0.0, 0.0)), app=True),
             NodeSpec(id="b", trajectory=((0, 3, 0),), app=True))
    config = WorldConfig(nodes=nodes, tick=1, duration=4)
    fast, slow = World(config), World(config)
    slow.events = []
    for t in range(4):
        emissions = [Emission("b", PAYLOADS[0], MACS[0])]
        rows = fast.step(t, emissions)
        assert ref.events(fast.events, rows) == ref.reference_step(slow, t, emissions)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        write_event_log(fast.events, got)
        ref.reference_write_event_log(slow.events, want)
        assert got.read_bytes() == want.read_bytes()


def test_noiseless_link_with_a_new_rssi_is_written_per_row():
    """At noise 0 a link's rows mostly hold its first rssi, and such lines are
    written from the link's one cached line. Two kinds of row break that and
    must be written per row: a static receiver hearing an emitter that moves
    keeps its link (a link holds the receiver's place, not the emitter's)
    with a new rssi, and an injected row can repeat an injected link with
    another rssi. At batches of 1 and 3 rows and the default, the log is
    what the one-json.dumps-per-line writer writes."""
    nodes = (NodeSpec(id="rx", trajectory=((0, 0.0, 0.0),), app=True),
             NodeSpec(id="walker", trajectory=((0, 3.0, 0.0), (3, 6.0, 0.0), (5, 3.0, 0.0)),
                      app=True))
    config = WorldConfig(nodes=nodes, tick=1, duration=8)
    fast, slow = World(config), World(config)
    slow.events = []
    emissions = [Emission("walker", PAYLOADS[0], MACS[0])]
    injected = {2: -50.0, 4: -70.0, 7: -70.0}  # one link, whose later rows differ
    for t, k in ((0, 3), (3, 2), (5, 3)):
        rows = fast.step(t, emissions, ticks=k)
        want = [e for tick in range(t, t + k) for e in ref.reference_step(slow, tick, emissions)]
        assert ref.events(fast.events, rows) == want
        heard = ("rx", Sighting(PAYLOADS[1], MACS[1], injected[t + k - 1], t + k - 1, (0.0, 0.0)))
        fast.inject(*heard)
        slow.events.append(ref.appended(*heard))
    _, key, value = fast.events.columns()
    assert len(fast.events.keys) == 2  # the walker's link and the injected one
    first_value = value[np.frombuffer(fast.events.first, dtype=np.int64)][key]
    at_6m = radio.propagate(0, 6.0, config.path_loss, config.radio_range_max)
    assert value[value != first_value].tolist() == [at_6m, at_6m, -70.0, -70.0]
    with tempfile.TemporaryDirectory() as tmp:
        want = Path(tmp) / "want.jsonl"
        ref.reference_write_event_log(slow.events, want)
        for batch in (1, 3, radio.WRITE_BATCH_ROWS):
            got = Path(tmp) / f"got{batch}.jsonl"
            with mock.patch.object(radio, "WRITE_BATCH_ROWS", batch):
                write_event_log(fast.events, got)
            assert got.read_bytes() == want.read_bytes()


E2E_TICK = 300  # two ticks per 10-minute interval: identifiers rotate during a run
E2E_TICKS = 6
E2E_IDS = ("a", "b", "c", "d")
E2E_WAYPOINT_TIMES = (0, 300, 900, 1200)
OTHER_MAC = "02:00:00:00:00:99"
DECOY = beacon.encode_decoy(beacon.IBeacon(
    uuid="01022022-fa0f-0100-00ac-dd1c6502da1c", major=53479, minor=42571, tx=-59))
MASKS = (None, b"\x00\xf8\x00\x00")


@st.composite
def log_runs(draw):
    """A world whose app nodes broadcast real frames, whose deputies relay
    earlier frames (under the relay MAC or not, masked or not), with
    injections, an attack policy, published key picks and matching params."""
    ids = draw(st.lists(st.sampled_from(E2E_IDS), min_size=2, max_size=4, unique=True))
    nodes = []
    for i, nid in enumerate(ids):
        times = sorted(draw(st.sets(st.sampled_from(E2E_WAYPOINT_TIMES), min_size=1, max_size=3)))
        trajectory = tuple((wt, draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS)))
                           for wt in times)
        # the first node is always both app and deputy
        nodes.append(NodeSpec(id=nid, trajectory=trajectory, app=i == 0 or draw(st.booleans()),
                              deputy=i == 0 or draw(st.booleans()),
                              tx_power=draw(st.sampled_from(TX_POWERS))))
    config = WorldConfig(nodes=tuple(nodes),
                         path_loss=PathLoss(noise_sigma=draw(st.sampled_from([0.0, 4.0]))),
                         radio_range_max=draw(st.sampled_from(RANGES)),
                         tick=E2E_TICK, duration=E2E_TICK * E2E_TICKS,
                         seed=draw(st.integers(0, 3)))
    deputies = [n.id for n in nodes if n.deputy]
    relays = [[(draw(st.sampled_from(deputies)), draw(st.integers(0, 99)),
                draw(st.sampled_from(MASKS)), draw(st.sampled_from([DEFAULT_RELAY_MAC, OTHER_MAC])))
               for _ in range(draw(st.integers(0, 2)))] for _ in range(E2E_TICKS)]
    scanners = [n for n in nodes if n.app or n.deputy]
    injections = [(draw(st.integers(0, E2E_TICKS - 1)), draw(st.sampled_from(scanners)).id,
                   draw(st.integers(-1, 99)), draw(st.sampled_from([OTHER_MAC, DEFAULT_RELAY_MAC])),
                   draw(st.sampled_from(INJECTED_RSSI)))
                  for _ in range(draw(st.integers(0, 3)))]
    policy = AttackPolicy(harvest_zones=draw(st.sampled_from([(), (Zone(-1, -1, 4, 4),)])),
                          collect_all=draw(st.booleans()))
    params = MatchingParams(
        tolerance=draw(st.sampled_from([0, 60, 7200])),
        attenuation_threshold=draw(st.sampled_from([41.0, 55.0, 61.0])),
        duration_threshold=draw(st.sampled_from([0, 1, 2, 3])),
        tick=1,
    )
    published = draw(st.lists(st.integers(0, 99), max_size=6))
    ticks = draw(spans(nodes, E2E_TICKS, [k for k, *_ in injections], waypoint_tick=E2E_TICK))
    return (config, relays, injections, policy, params, published, ticks,
            draw(st.sampled_from(CHUNK_PAIRS)))


def _schedule(config, relays, injections):
    """The devices, and per tick the emissions and the injected (receiver, sighting)."""
    nodes = {n.id: n for n in config.nodes}
    devices = {n.id: DeviceState(id=n.id, rng=random.Random(f"{config.seed}:{n.id}"),
                                 tx_power=n.tx_power) for n in config.nodes if n.app}
    frames, schedule = [], []
    for k in range(E2E_TICKS):
        t = k * E2E_TICK
        emissions = [broadcast_current(devices[nid], t) for nid in sorted(devices)]
        frames += emissions
        for deputy, pick, mask, mac in relays[k]:
            kind = beacon.decode(frames[pick % len(frames)].payload, "").kind
            aem = kind.aem if mask is None else tamper(kind.aem, mask)
            emissions.append(Emission(deputy, encode_gaen(kind.rpi, aem), mac, True))
        injected = [(receiver, Sighting(DECOY if pick < 0 else frames[pick % len(frames)].payload,
                                        mac, rssi, t, nodes[receiver].position(t)))
                    for when, receiver, pick, mac, rssi in injections if when == k]
        schedule.append((t, emissions, injected))
    return devices, schedule


@settings(max_examples=150, deadline=None)
@given(log_runs())
def test_scan_log_readers_match_per_event_routing(run):
    config, relays, injections, policy, params, picks, ticks, chunk = run
    devices, schedule = _schedule(config, relays, injections)
    deputies = sorted(n.id for n in config.nodes if n.deputy)
    fast, slow, single = World(config), World(config), World(config)
    slow.events = []
    server = AttackerServer(policy, log=fast.events, deputies=deputies)
    with mock.patch.object(radio, "NOISE_CHUNK_PAIRS", chunk):
        for k, n in ticks:
            t, emissions, _ = schedule[k]
            step_span(fast, slow, single, t, emissions, n)
            for receiver, sighting in schedule[k + n - 1][2]:
                for world in (fast, single):
                    world.inject(receiver, sighting)
                slow.events.append(ref.appended(receiver, sighting))
            server.catch_up()

    assert ref.same(ref.events(fast.events), slow.events)
    assert_same_log(fast, single)
    assert_same_generator(fast, slow)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        write_event_log(fast.events, got)
        ref.reference_write_event_log(slow.events, want)
        assert got.read_bytes() == want.read_bytes()

    route = ref.reference_route(slow.events, devices, deputies, policy)
    assert engine.harvested_owners(server) == route.owners
    # a candidate keeps its first hearing's row; the reference keeps that hearing's record
    candidates = {rpi: server.record(row)
                  for rpi, (row, *_) in server._relay_candidates.items()}
    assert ref.same(candidates, route.candidates)
    assert ref.same(list(map(server.record, server.db.tolist())), route.db)

    keys = [k for dev in devices.values() for k in dev.tek_history + [dev.current_tek]]
    keys.append(crypto.new_tek(random.Random(config.seed), 0))  # published, never heard
    published = [keys[i % len(keys)] for i in picks]
    entries = [PublishedTek(tek, 0) for tek in published]
    index = crypto.identifier_index(published)
    assert ref.same(server.reidentify(entries, index=index), reference_matching.reidentify(
        SimpleNamespace(db=route.db, policy=policy), entries))
    receivers = fast.events.group(lambda link_id: fast.events.keys[link_id].receiver,
                                  np.arange(len(fast.events)))
    for nid, dev in devices.items():
        dev.log = fast.events
        assert np.array_equal(dev.sightings, receivers.get(nid, radio.NO_ROWS))
        assert ref.same(ref.sightings(dev.log, dev.sightings), route.sightings[nid])
        expected = reference_matching.match_exposures(
            SimpleNamespace(sightings=route.sightings[nid], tek_history=dev.tek_history,
                            current_tek=dev.current_tek), published, params, route.direct[nid])
        assert match_exposures(dev, published, params, index=index) == expected
