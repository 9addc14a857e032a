"""Differential test: the link-table World.step and the fragment-caching
write_event_log against the from-scratch loop and the one-json.dumps-per-line
writer in reference_radio.py.

Generated worlds move nodes across several waypoints (some at the same tick),
mix tx powers per emission, let deputies relay, may make a node both app and
deputy, place pairs exactly at the radio range and closer than
MIN_DISTANCE_M, draw noise or not (with odd draw counts per tick, so the
generator's cached second gaussian carries across ticks), may overflow rssi
to infinity, inject sightings with an int or NaN rssi, and use ids and MACs
with quotes or non-ASCII characters and integer coordinates.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_radio as ref
from ensim.beacon import encode_gaen
from ensim.radio import Emission, NodeSpec, PathLoss, Sighting, World, WorldConfig, write_event_log

IDS = ("a", "b", 'q"uote', "ü-node", "back\\slash", "节点")
MACS = ("aa:aa:aa:aa:aa:aa", 'ma"c', "ñ:01", "f0:0d:00:00:00:01")
PAYLOADS = (encode_gaen(bytes(16), bytes(4)), b"", bytes(range(31)))
TX_POWERS = (-8, 0, 4)
RANGE = 10
# 0 and 10 are exactly RANGE apart; 0, 0.0 and 0.004 are co-located or closer than
# MIN_DISTANCE_M; int and float zero give the same distance but write differently
COORDS = (0, 0.0, 0.004, 3, 6.0, 10, -10.0)
DURATION = 8
WAYPOINT_TIMES = (0, 2, 3, 5)


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
        radio_range_max=RANGE,
        tick=1,
        duration=DURATION,
        seed=draw(st.integers(0, 3)),
    )
    # app nodes broadcast, deputies relay; each emission at a drawn tx power
    senders = [(n.id, False) for n in nodes if n.app] + [(n.id, True) for n in nodes if n.deputy]
    schedule = []
    for _ in range(DURATION):
        emissions = []
        for _ in range(draw(st.integers(0, 4)) if senders else 0):
            nid, relay = draw(st.sampled_from(senders))
            emissions.append(Emission(nid, draw(st.sampled_from(PAYLOADS)),
                                      draw(st.sampled_from(MACS)),
                                      draw(st.sampled_from(TX_POWERS)), relay))
        schedule.append(emissions)
    injections = []
    for _ in range(draw(st.integers(0, 3))):
        t = draw(st.integers(0, DURATION - 1))
        receiver = draw(st.sampled_from(nodes))
        injections.append((t, receiver.id, Sighting(
            draw(st.sampled_from(PAYLOADS)), draw(st.sampled_from(MACS)),
            draw(st.sampled_from([-12, 0, -60, -12.5, float("nan")])), t,
            receiver.position(t))))
    return config, schedule, injections


@settings(max_examples=300, deadline=None)
@given(radio_runs())
def test_step_and_event_log_match_reference(run):
    config, schedule, injections = run
    fast, slow = World(config), World(config)
    for t, emissions in enumerate(schedule):
        events = fast.step(t, emissions)
        assert isinstance(events, list)
        assert events == ref.reference_step(slow, t, emissions)
        for when, receiver, sighting in injections:
            if when == t:
                fast.inject(t, receiver, sighting)
                slow.inject(t, receiver, sighting)
    assert fast.events == slow.events
    assert fast._rng.getstate() == slow._rng.getstate()
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        write_event_log(fast.events, got)
        ref.reference_write_event_log(slow.events, want)
        assert got.read_bytes() == want.read_bytes()


def test_int_to_float_waypoint_is_a_move():
    # (0, 0) -> (0.0, 0.0) leaves every distance as it was, but the log writes rx_x
    # as 0 before and 0.0 after, so the table must take the new waypoint's position
    nodes = (NodeSpec(id="a", trajectory=((0, 0, 0), (2, 0.0, 0.0)), app=True),
             NodeSpec(id="b", trajectory=((0, 3, 0),), app=True))
    config = WorldConfig(nodes=nodes, tick=1, duration=4)
    fast, slow = World(config), World(config)
    for t in range(4):
        emissions = [Emission("b", PAYLOADS[0], MACS[0], 0)]
        assert fast.step(t, emissions) == ref.reference_step(slow, t, emissions)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.jsonl", Path(tmp) / "want.jsonl"
        write_event_log(fast.events, got)
        ref.reference_write_event_log(slow.events, want)
        assert got.read_bytes() == want.read_bytes()
