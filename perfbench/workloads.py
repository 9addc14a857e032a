"""Workload inputs: the `crowd` and `relay` config generators and the bundled suite.

Each generator is a pure function of its seed that returns a schema-v1
scenario dict; `ensim` receives only that dict. Sizes are constants so that
two commits measured with the same benchmark do the same work.
"""

from __future__ import annotations

import math
from random import Random

DEFAULT_SEED = 0
WORKLOADS = ("crowd", "relay", "paper_suite")
MATCHING = {"tolerance": 7200, "attenuation_threshold": 55.0, "duration_threshold": 900}
NOISY_PATH_LOSS = {"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 4.0}
RANGE_EXTENSION_MASK_HEX = "00f80000"

CROWD_NODES = 16
CROWD_SIDE_M = 40.0
CROWD_DURATION_S = 1000
CROWD_DIAGNOSED = 3

RELAY_VISITORS = 6
RELAY_WORKERS = 4
RELAY_DURATION_S = 3600
RELAY_SLOT_S = 600
RELAY_DWELL_S = 120
RELAY_MAX_PER_DEPUTY = 2
# short enough that each identifier ages past its relay deadline while it is
# still among the freshest, so expiry shapes the relay plan within the run
RELAY_HORIZON_S = 600


def _scenario(name, seed, duration, radio_range_max, nodes, attack=None):
    return {
        "schema_version": 1,
        "kind": "scenario",
        "name": name,
        "seed": seed,
        "world": {"tick": 1, "duration": duration, "radio_range_max": radio_range_max,
                  "path_loss": dict(NOISY_PATH_LOSS)},
        "matching": dict(MATCHING),
        "nodes": nodes,
        "attack": attack,
        "injections": [],
    }


def _static(nid, x, y, **kw):
    return {"id": nid, "trajectory": [[0, round(x, 3), round(y, 3)]], **kw}


def crowd(seed: int) -> dict:
    """Dense honest static crowd, no attacker.

    The radio horizon exceeds the square's diagonal, so every node hears
    every other on every tick and the event count is the same for every
    seed. Each diagnosed node has a companion seated 1-2 m away, so every
    seed produces genuine notifications.
    """
    rng = Random(seed)
    late = CROWD_DURATION_S - 50
    nodes = []
    for i in range(CROWD_DIAGNOSED):
        x, y = rng.uniform(2, CROWD_SIDE_M - 2), rng.uniform(2, CROWD_SIDE_M - 2)
        r, a = rng.uniform(1.0, 2.0), rng.uniform(0, 2 * math.pi)
        nodes.append(_static(f"sick{i:02d}", x, y, app=True, infected_at=0, diagnosed_at=late))
        nodes.append(_static(f"near{i:02d}", x + r * math.cos(a), y + r * math.sin(a), app=True))
    for i in range(CROWD_NODES - len(nodes)):
        nodes.append(_static(f"n{i:02d}", rng.uniform(0, CROWD_SIDE_M),
                             rng.uniform(0, CROWD_SIDE_M), app=True))
    return _scenario(f"crowd_s{seed}", seed, CROWD_DURATION_S,
                     radio_range_max=CROWD_SIDE_M * 1.5, nodes=nodes)


def relay(seed: int) -> dict:
    """Long tampered relay attack with little honest traffic.

    Diagnosed visitors pass a deputy-guarded hospital one per 10-minute
    slot and otherwise stay at homes out of everyone's earshot. Two
    deputies 1 km away re-emit the freshest harvested identifiers with the
    +8 dB range-extension mask to the app workers near them, every one of
    whose notifications is therefore a false positive. Each identifier is
    relayed until RELAY_HORIZON_S after its slot ends.
    """
    rng = Random(seed)
    nodes = [_static(f"dep_h{i}", x, y, deputy=True)
             for i, (x, y) in enumerate([(-4, -4), (-4, 4), (4, -4), (4, 4)])]
    for i in range(RELAY_VISITORS):
        home = (-3000.0 - 100.0 * i, 3000.0)
        # fixed arrival times keep the relay schedule, and so the work, equal across seeds
        arrive = i * RELAY_SLOT_S + 60
        traj = [[0, *home],
                [arrive, round(rng.uniform(-3, 3), 3), round(rng.uniform(-3, 3), 3)],
                [arrive + RELAY_DWELL_S, *home]]
        nodes.append({"id": f"visitor{i:02d}", "trajectory": traj, "app": True,
                      "infected_at": 0, "diagnosed_at": RELAY_DURATION_S - 100})
    nodes.append(_static("dep_t0", 998.0, 0.0, deputy=True))
    nodes.append(_static("dep_t1", 1002.0, 0.0, deputy=True))
    for i in range(RELAY_WORKERS):
        a = 2 * math.pi * i / RELAY_WORKERS + rng.uniform(-0.3, 0.3)
        r = rng.uniform(1.5, 3.5)
        nodes.append(_static(f"worker{i:02d}", 1000 + r * math.cos(a), r * math.sin(a), app=True))
    attack = {
        "harvest_zones": [[-10.0, -10.0, 10.0, 10.0]],
        "target_zones": [[990.0, -10.0, 1010.0, 10.0]],
        "tamper_mask_hex": RANGE_EXTENSION_MASK_HEX,
        "relay_latency": 5,
        "max_relays_per_deputy": RELAY_MAX_PER_DEPUTY,
        "replay_horizon": RELAY_HORIZON_S,
    }
    return _scenario(f"relay_s{seed}", seed, RELAY_DURATION_S, radio_range_max=50.0,
                     nodes=nodes, attack=attack)


# Outcomes the paper states for the bundled scenarios: (notified devices,
# notifications without a genuine contact). They hold for every seed offset,
# because the seed only changes key material, never geometry or timing.
PAPER_OUTCOMES = {
    "baseline_no_attack": ({"bob"}, 0),
    "lazy_student": ({"s01", "s02", "s03", "s04"}, 4),
    "hospital_replay": ({f"wk{i:02d}" for i in range(10)}, 10),
    "targeted_replay": ({"victim"}, 1),
    "reidentification": (set(), 0),
    "tamper_range_extension": ({"victim"}, 1),
}
SWEEP_TOLERANCE = 0.01


def build(workload: str, seed: int) -> tuple[dict, dict | None]:
    """(run name -> scenario dict, sweep dict or None) for one workload instance.

    For `paper_suite` the seed is added to each bundled config's own seed, so
    seed 0 runs the bundled configs unchanged.
    """
    if workload == "crowd":
        return {"crowd": crowd(seed)}, None
    if workload == "relay":
        return {"relay": relay(seed)}, None
    if workload == "paper_suite":
        from ensim import scenarios

        raws = {name: build_() for name, build_ in scenarios.BUILDERS.items()}
        sweep = raws.pop("coverage_sweep")
        shift = {name: dict(raw, seed=raw["seed"] + seed) for name, raw in raws.items()}
        return shift, dict(sweep, seed=sweep["seed"] + seed)
    raise ValueError(f"unknown workload {workload!r}")


def check_run(workload: str, name: str, result) -> list[str]:
    """Problems with one scenario run's outcome; empty when it is correct."""
    rows = result.notification_rows
    threshold = result.config.matching.duration_threshold
    notified = {r["device_id"] for r in rows}
    false_pos = sum(1 for r in rows if not r["ground_truth_contact"])
    problems = [f"{r['device_id']} notified at {r['duration_s']} s < {threshold} s"
                for r in rows if r["duration_s"] < threshold]
    if workload == "paper_suite":
        want_notified, want_false = PAPER_OUTCOMES[name]
        if notified != want_notified or len(rows) != len(want_notified) or false_pos != want_false:
            problems.append(f"notified {sorted(notified)} with {false_pos} false positives, "
                            f"expected {sorted(want_notified)} with {want_false}")
    elif workload == "crowd":
        if len(rows) < CROWD_DIAGNOSED or false_pos:
            problems.append(f"{len(rows)} notifications, {false_pos} false positives; expected "
                            f">= {CROWD_DIAGNOSED} and none false in an honest crowd")
    elif len(rows) < RELAY_WORKERS or false_pos != len(rows):
        problems.append(f"{len(rows)} notifications, {false_pos} false positives; expected "
                        f">= {RELAY_WORKERS}, all false")
    if result.attacker is not None and len(result.dossiers) != len(result.published):
        problems.append(f"{len(result.dossiers)} dossiers for {len(result.published)} keys")
    if (workload == "relay" or name == "reidentification") and not all(
            d["sightings"] for d in result.dossiers):
        problems.append("a published key has an empty dossier")
    return problems


def check_sweep(reports) -> list[str]:
    """The coverage closed forms: app coverage ~ a^2, attacker ~ 1-(1-a)^2."""
    worst_sc = max(abs(r.sc_coverage - r.alpha_sc ** 2) for r in reports)
    worst_att = max(abs(r.attacker_coverage - (1 - (1 - r.alpha_cd) ** 2)) for r in reports)
    if max(worst_sc, worst_att) > SWEEP_TOLERANCE:
        return [f"coverage off its closed form by {max(worst_sc, worst_att):.4f}"]
    return []
