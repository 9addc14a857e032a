"""Invariance relations: config changes that must leave a run's results alone.

The golden digests pin bytes; these tests state which changes to a config
the paper's effects must not depend on, so an effect comes from the attack
and nothing else:

  * an attack that relays nowhere (`target_zones: []`) writes the same event
    log, notifications and (empty) relay plan as no attacker at all;
  * an all-zero tamper mask changes nothing a relay carries;
  * another seed, without noise or attacker, changes key bytes (and MACs)
    only;
  * an app user out of everyone's range, never diagnosed, changes no other
    notification, nor any dossier;
  * moving the whole scene (every waypoint and zone) by a power of two,
    without noise, changes no notification and moves every dossier
    sighting by the same offset. The configs it runs on have coordinates
    that are multiples of 1/8, so every shifted coordinate and every
    difference of two is exact;
  * moving scenery (nodes with neither app nor deputy), with or without
    noise, changes no artifact byte and no `World.step` call: scenery
    neither sends nor hears, so its waypoints end no span of the run.

The attack-off, bystander and translation relations are checked on the
bundled configs and on small drawn ones (`scenes`): noiseless, with a tick of 1 or 7 s, 2-6 nodes
on a 1/8 m grid with waypoints off the tick grid, diagnoses, injections and,
for some, an attack with harvest and target zones.

Relations that shift the noise of later rows (a bystander in range, moving
the scene under noise) do not hold while noise follows row order, so they
are not stated here.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ensim import scenarios
from ensim.engine import ScenarioConfig, run_scenario, write_outputs
from ensim.radio import World
from test_engine_oracle import _injection, _node, scenario

ATTACK_SCENARIOS = ("lazy_student", "hospital_replay", "targeted_replay", "reidentification",
                    "tamper_range_extension")
SCENARIO_NAMES = [name for name, build in scenarios.BUILDERS.items()
                  if build()["kind"] == "scenario"]


# places near the harvest zone (HARVEST) and the target zone (TARGET), and far
# from both; a drawn node stands within 3 m of one of them, on a 1/8 m grid
PLACES = ((0.0, 0.0), (3.0, 0.0), (1000.0, 0.0), (1003.0, 1.0), (5000.0, 0.0))
HARVEST = [-10.0, -10.0, 10.0, 10.0]
TARGET = [990.0, -10.0, 1010.0, 10.0]
JITTER = st.integers(-24, 24).map(lambda k: k / 8)


@st.composite
def scenes(draw, attack=st.booleans()):
    """A small noiseless run. Waypoint times are drawn as floats, so most fall
    between ticks; app nodes may be diagnosed on a tick, scanners may be
    injected into, and when `attack` draws True deputies harvest around
    HARVEST (or anywhere) and relay into TARGET."""
    tick = draw(st.sampled_from([1, 7]))
    duration = tick * draw(st.integers(120 // tick, 1200 // tick))
    on_tick = st.integers(0, duration // tick - 1).map(lambda k: k * tick)
    place = st.builds(lambda p, dx, dy: [p[0] + dx, p[1] + dy], st.sampled_from(PLACES), JITTER, JITTER)
    nodes = []
    for i in range(draw(st.integers(2, 6))):
        stops = sorted(draw(st.lists(st.floats(0, duration), max_size=3)))
        trajectory = [[0, *draw(place)]] + [[t, *draw(place)] for t in stops]
        app = draw(st.sampled_from([True, True, False]))
        nodes.append(_node(f"n{i}", trajectory, app=app, deputy=draw(st.booleans()),
                           diagnosed_at=draw(st.one_of(st.none(), on_tick)) if app else None))
    scanners = [n["id"] for n in nodes if n["app"] or n["deputy"]]
    injections = [_injection(draw(on_tick), draw(st.sampled_from(scanners)))
                  for _ in range(draw(st.integers(0, 2) if scanners else st.just(0)))]
    policy = draw(st.fixed_dictionaries({
        "harvest_zones": st.sampled_from([[], [HARVEST]]),
        "target_zones": st.just([TARGET]),
        "tamper_mask_hex": st.sampled_from([None, "00f80000"]),
        "relay_latency": st.sampled_from([0, 5]),
        "replay_horizon": st.sampled_from([60, 7200]),
        "max_relays_per_deputy": st.sampled_from([None, 1, 2]),
    })) if draw(attack) else None
    return scenario(world={"tick": tick, "duration": duration}, nodes=nodes, attack=policy,
                    injections=injections)


def artifacts(raw, out, names):
    """Run `raw`, write its artifacts to `out` and return the bytes of `names`."""
    write_outputs(run_scenario(ScenarioConfig.from_dict(raw)), out)
    return {name: (out / name).read_bytes() for name in names}


def assert_relaying_nowhere_is_no_attack(raw, out):
    raw = dict(raw, attack=dict(raw["attack"], target_zones=[]))
    names = ("events.jsonl", "notifications.csv", "attack_plan.jsonl")
    harvest_only = artifacts(raw, out / "harvest_only", names)
    assert harvest_only == artifacts(dict(raw, attack=None), out / "none", names)


@pytest.mark.parametrize("noise_sigma", [0.0, 4.0])
@pytest.mark.parametrize("name", ATTACK_SCENARIOS)
def test_relaying_nowhere_is_no_attack(name, noise_sigma, tmp_path):
    raw = scenarios.BUILDERS[name]()
    raw["world"]["path_loss"]["noise_sigma"] = noise_sigma
    assert_relaying_nowhere_is_no_attack(raw, tmp_path)


@settings(max_examples=40, deadline=None)
@given(scenes(attack=st.just(True)))
def test_drawn_relaying_nowhere_is_no_attack(raw):
    with tempfile.TemporaryDirectory() as tmp:
        assert_relaying_nowhere_is_no_attack(raw, Path(tmp))


def test_zero_tamper_mask_is_no_mask(tmp_path):
    raw = scenarios.tamper_range_extension()
    names = ("events.jsonl", "notifications.csv", "dossiers.json")
    raw["attack"]["tamper_mask_hex"] = "00000000"
    zero = artifacts(raw, tmp_path / "zero", names)
    raw["attack"]["tamper_mask_hex"] = None
    assert zero == artifacts(raw, tmp_path / "none", names)


def test_seed_changes_key_bytes_only():
    raw = scenarios.baseline_no_attack()
    assert raw["attack"] is None and raw["world"]["path_loss"]["noise_sigma"] == 0

    def rows(seed):
        result = run_scenario(ScenarioConfig.from_dict(dict(raw, seed=seed)))
        return [{k: v for k, v in row.items() if k != "tek_hex"}
                for row in result.notification_rows]

    assert rows(raw["seed"]) == rows(raw["seed"] + 1000) != []


def assert_far_bystander_changes_nothing(raw):
    # first in the config and in id order, so no other node keeps its place in either
    far = {"id": "00_far", "app": True, "trajectory": [[0, 1e6, 1e6]]}
    with_far = dict(raw, nodes=[far, *raw["nodes"]])
    got, want = (run_scenario(ScenarioConfig.from_dict(r)) for r in (with_far, raw))
    assert got.notification_rows == want.notification_rows
    assert got.dossiers == want.dossiers


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_far_bystander_changes_nothing(name):
    assert_far_bystander_changes_nothing(scenarios.BUILDERS[name]())


@settings(max_examples=40, deadline=None)
@given(scenes())
def test_drawn_far_bystander_changes_nothing(raw):
    assert_far_bystander_changes_nothing(raw)


def _coordinates(raw):
    zones = [zone for key in ("harvest_zones", "target_zones")
             for zone in (raw.get("attack") or {}).get(key, [])]
    return [c for node in raw["nodes"] for _t, *xy in node["trajectory"] for c in xy] + [
        c for zone in zones for c in zone]


def shifted(raw, dx, dy):
    """`raw` with every waypoint and every zone moved by (dx, dy)."""
    raw = copy.deepcopy(raw)
    for node in raw["nodes"]:
        node["trajectory"] = [[t, x + dx, y + dy] for t, x, y in node["trajectory"]]
    for key in ("harvest_zones", "target_zones"):
        if raw.get("attack") and key in raw["attack"]:
            raw["attack"][key] = [[x0 + dx, y0 + dy, x1 + dx, y1 + dy]
                                  for x0, y0, x1, y1 in raw["attack"][key]]
    return raw


EIGHTHS = [name for name in SCENARIO_NAMES
           if all(c * 8 == int(c * 8) for c in _coordinates(scenarios.BUILDERS[name]()))]


def test_translation_runs_on_most_bundled_configs():
    assert len(EIGHTHS) >= len(SCENARIO_NAMES) - 1


def assert_translation_moves_places_only(raw, dx, dy):
    assert raw["world"]["path_loss"]["noise_sigma"] == 0
    got, want = (run_scenario(ScenarioConfig.from_dict(r)) for r in (shifted(raw, dx, dy), raw))
    assert got.notification_rows == want.notification_rows
    moved_back = [{"tek_hex": d["tek_hex"],
                   "sightings": [dict(s, x=s["x"] - dx, y=s["y"] - dy) for s in d["sightings"]]}
                  for d in got.dossiers]
    assert moved_back == want.dossiers


@pytest.mark.parametrize("dx, dy", [(1024.0, 1024.0), (-4096.0, 256.0)])
@pytest.mark.parametrize("name", EIGHTHS)
def test_translation_moves_places_only(name, dx, dy):
    assert_translation_moves_places_only(scenarios.BUILDERS[name](), dx, dy)


@settings(max_examples=40, deadline=None)
@given(scenes())
def test_drawn_translation_moves_places_only(raw):
    assert_translation_moves_places_only(raw, 1024.0, -4096.0)


@pytest.mark.parametrize("noise_sigma", [0.0, 4.0])
def test_moving_scenery_changes_nothing(noise_sigma, tmp_path, monkeypatch):
    raw = scenarios.hospital_replay()
    raw["world"]["path_loss"]["noise_sigma"] = noise_sigma
    moved = copy.deepcopy(raw)
    scenery = [node for node in moved["nodes"] if not (node.get("app") or node.get("deputy"))]
    assert [node["id"] for node in scenery] == [f"wn{i:02d}" for i in range(5)]
    for node in scenery:
        [[_, x, y]] = node["trajectory"]
        node["trajectory"] += [[137.5, x + 1.5, y], [401, x, y + 1.5], [733, x - 1.5, y]]

    def run(raw, out):
        """The run's `World.step` calls and the bytes of every artifact it writes."""
        steps, step = 0, World.step

        def counted(world, *args, **kwargs):
            nonlocal steps
            steps += 1
            return step(world, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(World, "step", counted)
            write_outputs(run_scenario(ScenarioConfig.from_dict(raw)), out)
        return steps, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    assert run(moved, tmp_path / "moved") == run(raw, tmp_path / "still")
