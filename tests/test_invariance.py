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
    difference of two is exact.

Relations that shift the noise of later rows (a bystander in range, moving
the scene under noise) do not hold while noise follows row order, so they
are not stated here.
"""

import copy

import pytest

from ensim import scenarios
from ensim.engine import ScenarioConfig, run_scenario, write_outputs

ATTACK_SCENARIOS = ("lazy_student", "hospital_replay", "targeted_replay", "reidentification",
                    "tamper_range_extension")
SCENARIO_NAMES = [name for name, build in scenarios.BUILDERS.items()
                  if build()["kind"] == "scenario"]


def artifacts(raw, out, names):
    """Run `raw`, write its artifacts to `out` and return the bytes of `names`."""
    write_outputs(run_scenario(ScenarioConfig.from_dict(raw)), out)
    return {name: (out / name).read_bytes() for name in names}


@pytest.mark.parametrize("noise_sigma", [0.0, 4.0])
@pytest.mark.parametrize("name", ATTACK_SCENARIOS)
def test_relaying_nowhere_is_no_attack(name, noise_sigma, tmp_path):
    raw = scenarios.BUILDERS[name]()
    raw["world"]["path_loss"]["noise_sigma"] = noise_sigma
    raw["attack"]["target_zones"] = []
    names = ("events.jsonl", "notifications.csv", "attack_plan.jsonl")
    harvest_only = artifacts(raw, tmp_path / "harvest_only", names)
    assert harvest_only == artifacts(dict(raw, attack=None), tmp_path / "none", names)


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


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_far_bystander_changes_nothing(name):
    raw = scenarios.BUILDERS[name]()
    # first in the config and in id order, so no other node keeps its place in either
    far = {"id": "00_far", "app": True, "trajectory": [[0, 1e6, 1e6]]}
    with_far = dict(raw, nodes=[far, *raw["nodes"]])
    got, want = (run_scenario(ScenarioConfig.from_dict(r)) for r in (with_far, raw))
    assert got.notification_rows == want.notification_rows
    assert got.dossiers == want.dossiers


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


@pytest.mark.parametrize("dx, dy", [(1024.0, 1024.0), (-4096.0, 256.0)])
@pytest.mark.parametrize("name", EIGHTHS)
def test_translation_moves_places_only(name, dx, dy):
    raw = scenarios.BUILDERS[name]()
    assert raw["world"]["path_loss"]["noise_sigma"] == 0
    got, want = (run_scenario(ScenarioConfig.from_dict(r)) for r in (shifted(raw, dx, dy), raw))
    assert got.notification_rows == want.notification_rows
    moved_back = [{"tek_hex": d["tek_hex"],
                   "sightings": [dict(s, x=s["x"] - dx, y=s["y"] - dy) for s in d["sightings"]]}
                  for d in got.dossiers]
    assert moved_back == want.dossiers
