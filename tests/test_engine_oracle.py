"""Differential test: `engine.run_scenario`, which steps each run of identical
ticks at once, against the tick-by-tick loop in reference_engine.py.

Each config puts a change where a span of repeated ticks could wrongly run
past it: a tick of 7 s (so identifier rotations, relay deadlines and
window edges fall between ticks), waypoint times off the tick grid, a
deputy that walks into the target zone, diagnoses at t = 0 and mid-interval,
injections at t = 0 and on the last tick, a relay latency of 0 (a hearing
is relayed from the next tick), a relay window whose both edges fall inside
an interval, a short replay horizon, no cap on relays per deputy, and an
attack with no target zones. Every artifact must match byte for byte, and
the attacker's two artifacts must also be what reference_artifacts.py writes
for the tick-by-tick run: one `json.dumps` per relay decision, one
`json.dump(indent=2)` of the dossiers. The scan log's and the relay plan's
rows (their columns, keys and first rows) must match byte for byte too.
"""

import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_artifacts
import reference_engine
from ensim import engine

TICK = 7
DURATION = TICK * 300  # 2100 s: rotations at 600, 1200 and 1800 fall between ticks
LAST_TICK = DURATION - TICK
HOME = [-3000.0, 3000.0]


def _node(nid, trajectory, **kw):
    return {"id": nid, "trajectory": trajectory, **kw}


def scenario(**overrides):
    """Visitors pass a deputy-guarded hospital at off-grid times and are
    diagnosed later; deputies near workers far away re-emit what was heard."""
    raw = {
        "schema_version": 1,
        "kind": "scenario",
        "name": "spans",
        "seed": 3,
        "world": {"tick": TICK, "duration": DURATION, "radio_range_max": 50.0,
                  "path_loss": {"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 0.0}},
        "matching": {"tolerance": 7200, "attenuation_threshold": 55.0, "duration_threshold": 60},
        "nodes": [
            _node("dep_h0", [[0, -4.0, -4.0]], deputy=True),
            _node("dep_h1", [[0, 4.0, 4.0]], deputy=True),
            _node("visitor0", [[0, *HOME], [100.5, 1.0, 0.5], [333.25, *HOME]], app=True,
                  infected_at=0, diagnosed_at=1505),
            _node("visitor1", [[0, *HOME], [601.5, -1.0, 2.0], [700.75, *HOME],
                               [1250.125, 0.0, 0.0], [1260, *HOME]], app=True,
                  infected_at=0, diagnosed_at=1806),
            _node("dep_t0", [[0, 998.0, 0.0]], deputy=True),
            # walks into the target zone mid-interval, then out again
            _node("dep_walk", [[0, 1100.0, 0.0], [420.5, 1001.0, 1.0], [1500.2, 1100.0, 0.0]],
                  deputy=True),
            _node("worker0", [[0, 1000.0, 2.0]], app=True),
            _node("worker1", [[0, 1002.0, -1.5]], app=True),
        ],
        "attack": {
            "harvest_zones": [[-10.0, -10.0, 10.0, 10.0]],
            "target_zones": [[990.0, -10.0, 1010.0, 10.0]],
            "tamper_mask_hex": "00f80000",
            "replay_horizon": 60,
        },
        "injections": [],
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


def _diagnosed(times):
    raw = scenario()
    raw["nodes"][2]["diagnosed_at"], raw["nodes"][3]["diagnosed_at"] = times
    return raw


def _injection(t, receiver, rssi=-12.0):
    return {"t": t, "receiver": receiver, "payload_hex": "00" * 31, "mac": "02:00:00:00:00:77",
            "rssi": rssi}


NOISY = {"path_loss": {"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 4.0}}
CASES = {
    "tick7_float_waypoints": scenario(),
    "noisy": scenario(world=NOISY),
    "diagnosed_at_0_and_mid_interval": _diagnosed([0, 301]),
    "injections_first_and_last_tick": scenario(injections=[
        _injection(0, "worker0"), _injection(0, "dep_h0"), _injection(LAST_TICK, "worker1"),
        _injection(LAST_TICK, "dep_h1", rssi=-0.0)]),
    "latency_0_window_uncapped_collect_all": scenario(world=NOISY, attack={
        "relay_latency": 0, "relay_window": [30, 400], "max_relays_per_deputy": None,
        "collect_all": True, "replay_horizon": 7200}),
    "window_short_horizon": scenario(attack={"relay_window": [30, 400], "relay_latency": 12}),
    "no_target_zones": scenario(world=NOISY, attack={"target_zones": []}),
    "no_attack": scenario(attack=None),
}


def assert_same_run(raw, tmp_path):
    cfg = engine.ScenarioConfig.from_dict(copy.deepcopy(raw))
    got, want = engine.run_scenario(cfg), reference_engine.run_scenario(cfg)
    for name, run in (("got", got), ("want", want)):
        engine.write_outputs(run, tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "got").iterdir())
    for name in files:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name
    reference_artifacts.write(want.attacker, want.dossiers, tmp_path / "reference")
    for name in reference_artifacts.NAMES:
        assert ((tmp_path / "got" / name).read_bytes()
                == (tmp_path / "reference" / name).read_bytes()), name
    for a, b in zip(got.world.events.columns(), want.world.events.columns()):
        assert a.view(np.uint8).tobytes() == b.view(np.uint8).tobytes()
    assert got.world.events.first == want.world.events.first
    if want.attacker is not None:  # the plan's rows, not only the text they write
        got_plan, want_plan = got.attacker.plan, want.attacker.plan
        for a, b in zip(got_plan.columns(), want_plan.columns()):
            assert a.view(np.uint8).tobytes() == b.view(np.uint8).tobytes()
        assert list(map(repr, got_plan.keys)) == list(map(repr, want_plan.keys))
        assert got_plan.first == want_plan.first
    assert got.world._rng.getstate() == want.world._rng.getstate()
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_spans_write_what_ticks_write(name, tmp_path):
    got = assert_same_run(CASES[name], tmp_path)
    if name.startswith(("tick7", "noisy", "latency", "window")):
        assert len(got.attacker.plan)  # the attack relays, so the plan is compared too


@st.composite
def span_configs(draw):
    """Small random runs: tick, waypoint times on and off the grid, diagnoses,
    injections and an attack policy whose edges land anywhere."""
    tick = draw(st.sampled_from([1, 7, 60, 600]))
    duration = tick * draw(st.integers(1, 1800 // tick + 2))
    times = st.one_of(st.integers(0, duration + 5), st.floats(0, duration + 5))
    places = st.sampled_from([(0.0, 0.0), (3.0, 0.0), (1000.0, 0.0), (1003.0, 1.0), (5000.0, 0.0)])
    on_tick = st.integers(0, duration // tick - 1).map(lambda k: k * tick)
    nodes = []
    for i in range(draw(st.integers(2, 5))):
        stops = sorted(draw(st.lists(times, min_size=0, max_size=3)))
        trajectory = [[0, *draw(places)]] + [[wt, *draw(places)] for wt in stops]
        app = draw(st.booleans())
        nodes.append(_node(f"n{i}", trajectory, app=app, deputy=draw(st.booleans()),
                           diagnosed_at=draw(st.one_of(st.none(), on_tick)) if app else None))
    scanners = [n["id"] for n in nodes if n["app"] or n["deputy"]]
    injections = [_injection(draw(on_tick), draw(st.sampled_from(scanners)))
                  for _ in range(draw(st.integers(0, 2) if scanners else st.just(0)))]
    window = draw(st.one_of(st.none(), st.tuples(st.integers(0, 900), st.integers(0, 900))))
    attack = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "harvest_zones": st.sampled_from([[], [[-10.0, -10.0, 10.0, 10.0]]]),
        "target_zones": st.sampled_from([[], [[990.0, -10.0, 1010.0, 10.0]]]),
        "relay_latency": st.sampled_from([0, 1, 5, 13]),
        "relay_window": st.just(sorted(window) if window else None),
        "replay_horizon": st.sampled_from([0, 30, 7200]),
        "max_relays_per_deputy": st.sampled_from([None, 0, 1, 2]),
        "collect_all": st.booleans(),
    })))
    return scenario(world={"tick": tick, "duration": duration, **draw(st.sampled_from([{}, NOISY]))},
                    nodes=nodes, attack=attack, injections=injections)


@settings(max_examples=60, deadline=None)
@given(span_configs())
def test_random_runs_match_tick_by_tick(raw):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_run(raw, Path(tmp))
