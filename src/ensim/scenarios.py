"""Bundled scenario configs, as plain dicts in the documented schema.

Every builder returns a fresh dict; `scenarios/` at the repo root carries
the same configs serialized to JSON (regenerated by scripts/make_scenarios.py)
so the file-based CLI path stays exercised. Geometry notes inline; the
default radio model places the 55 dB attenuation cutoff at ~5 m and the
radio horizon at 50 m unless overridden.

`population` is the scale workload, a generator of sparse moving crowds of
any size; it is not one of the bundled `BUILDERS`.
"""

from __future__ import annotations

import math
from random import Random

# mask XORs the tx_power byte from 0x00 (0 dBm) to 0xF8 (-8 dBm): the victim
# computes an 8 dB smaller attenuation, so the deputy appears ~8 dB nearer
RANGE_EXTENSION_MASK_HEX = "00f80000"

# `population`'s geometry and prevalence
POPULATION_PLACES = 40
POPULATION_MOVES_PER_HOUR = 6
POPULATION_SIDE_M = 2000
POPULATION_PREVALENCE = 0.05


def _node(nid, xy_or_traj, **kw):
    if isinstance(xy_or_traj, tuple):
        traj = [[0, xy_or_traj[0], xy_or_traj[1]]]
    else:
        traj = [list(wp) for wp in xy_or_traj]
    return {"id": nid, "trajectory": traj, **kw}


def _ring(prefix, cx, cy, r, n, **kw):
    nodes = []
    for i in range(n):
        a = 2 * math.pi * i / n
        nodes.append(_node(f"{prefix}{i:02d}", (round(cx + r * math.cos(a), 3),
                                                round(cy + r * math.sin(a), 3)), **kw))
    return nodes


def _base(name, seed, duration, nodes, attack=None, **world_extra):
    world = {"tick": 1, "duration": duration, "radio_range_max": 50.0,
             "path_loss": {"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 0.0}}
    world.update(world_extra)
    return {
        "schema_version": 1,
        "kind": "scenario",
        "name": name,
        "seed": seed,
        "world": world,
        "matching": {"tolerance": 7200, "attenuation_threshold": 55.0, "duration_threshold": 900},
        "nodes": nodes,
        "attack": attack,
        "injections": [],
    }


def baseline_no_attack():
    """Honest operation: one genuine long contact, one far bystander, no attacker."""
    nodes = [
        _node("alice", (0.0, 0.0), app=True, infected_at=0, diagnosed_at=1200),
        _node("bob", (1.5, 0.0), app=True),
        _node("carol", (30.0, 0.0), app=True),  # hears alice, but at 70 dB attenuation
    ]
    return _base("baseline_no_attack", seed=11, duration=1800, nodes=nodes)


def lazy_student():
    """Relay within one room: a 2-minute walk-through is amplified to a full
    exposure for everyone seated there by one deputized classmate."""
    nodes = [
        _node("s01", (1.0, 1.0), app=True),
        _node("s02", (1.0, 5.0), app=True),
        _node("s03", (5.0, 1.0), app=True),
        _node("s04", (5.0, 5.0), app=True),
        _node("lazy", (3.0, 3.0), app=True, deputy=True),
        _node("carrier", [(0, 300.0, 300.0), (60, 3.0, 2.0), (180, 300.0, 300.0)],
              app=True, infected_at=0, diagnosed_at=1400),
    ]
    attack = {
        "harvest_zones": [],  # the SDK hoards everything it hears
        "target_zones": [[0.0, 0.0, 6.0, 6.0]],
        "tamper_mask_hex": None,
        "relay_latency": 5,
        "max_relays_per_deputy": None,  # keep every live identifier on the air
    }
    return _base("lazy_student", seed=23, duration=1500, nodes=nodes, attack=attack)


def hospital_replay():
    """Harvest next to a hospital, re-emit at a factory 1 km away.

    20 workers: 10 app users seated within 2.5 m of the factory deputy
    (notified, all false positives), 5 app users out of radio range,
    5 without the app.
    """
    nodes = [
        _node("carrier", (0.0, 2.0), app=True, infected_at=0, diagnosed_at=1100),
        _node("dep_hospital", (0.0, 0.0), deputy=True),
        _node("dep_factory", (1000.0, 0.0), deputy=True),
    ]
    nodes += _ring("wk", 1000.0, 0.0, 2.5, 10, app=True)
    for i in range(5):
        nodes.append(_node(f"wf{i:02d}", (1030.0, -20.0 + 10.0 * i), app=True))
    nodes += _ring("wn", 1000.0, 0.0, 2.0, 5)
    attack = {
        "harvest_zones": [[-10.0, -10.0, 10.0, 10.0]],
        "target_zones": [[990.0, -10.0, 1010.0, 10.0]],
        "tamper_mask_hex": None,
        "relay_latency": 5,
    }
    # 15 m radio horizon keeps the far workers genuinely out of earshot
    return _base("hospital_replay", seed=4, duration=1200, nodes=nodes,
                 attack=attack, radio_range_max=15.0)


def targeted_replay(relay_age_s=6600, dwell_s=1200):
    """One victim, one stale identifier re-emitted at a chosen age.

    The identifier is harvested during its slot (first 10 minutes); the
    relay window opens relay_age_s after the slot started. At the default
    110 min the full 20-minute dwell lands inside the receiver's 2 h
    tolerance; from 125 min the relay deadline cuts emission long before
    the duration threshold.
    """
    end = relay_age_s + dwell_s
    nodes = [
        _node("carrier", [(0, 0.0, 1.0), (600, 500.0, 500.0)],
              app=True, infected_at=0, diagnosed_at=end + 50),
        _node("dep_hospital", (0.0, 0.0), deputy=True),
        _node("victim", (200.0, 0.0), app=True),
        _node("dep_target", (200.0, 1.5), deputy=True),
    ]
    attack = {
        "harvest_zones": [[-5.0, -5.0, 5.0, 5.0]],
        "target_zones": [[195.0, -5.0, 205.0, 5.0]],
        "tamper_mask_hex": None,
        "relay_latency": 5,
        "relay_window": [relay_age_s, end],
    }
    return _base("targeted_replay", seed=31, duration=end + 100, nodes=nodes, attack=attack)


def reidentification():
    """Deputy mesh + diagnosed commuter: published keys turn a day of harvested
    beacons into a located, MAC-linked movement dossier."""
    nodes = [
        _node("commuter", [(0, 50.0, 1.0), (300, 175.0, 0.0), (700, 300.0, 1.0),
                           (1000, 450.0, 0.0), (1400, 600.0, 1.0), (1700, 800.0, 200.0)],
              app=True, infected_at=0, diagnosed_at=2050),
        _node("bystander", (300.0, 2.0), app=True),
        _node("dep_a", (50.0, 0.0), deputy=True),
        _node("dep_b", (300.0, 0.0), deputy=True),
        _node("dep_c", (600.0, 0.0), deputy=True),
    ]
    attack = {
        "harvest_zones": [],
        "target_zones": [],  # harvest-only operation, nothing re-emitted
        "tamper_mask_hex": None,
        "relay_latency": 5,
    }
    return _base("reidentification", seed=17, duration=2100, nodes=nodes, attack=attack)


def tamper_range_extension(victim_distance=8.0, tampered=True):
    """Same relay twice the distance out: honest metadata fails the 55 dB
    cutoff beyond ~5 m, the masked copy passes out to ~12.6 m."""
    nodes = [
        _node("carrier", [(0, 0.0, 1.0), (600, 500.0, -500.0)],
              app=True, infected_at=0, diagnosed_at=1700),
        _node("dep_hospital", (0.0, 0.0), deputy=True),
        _node("dep_target", (100.0, 0.0), deputy=True),
        _node("victim", (100.0 + victim_distance, 0.0), app=True),
    ]
    attack = {
        "harvest_zones": [[-5.0, -5.0, 5.0, 5.0]],
        "target_zones": [[95.0, -5.0, 105.0, 5.0]],
        "tamper_mask_hex": RANGE_EXTENSION_MASK_HEX if tampered else None,
        "relay_latency": 5,
    }
    return _base("tamper_range_extension", seed=13, duration=1800, nodes=nodes, attack=attack)


def coverage_sweep():
    # population large enough that group-membership sampling noise stays well
    # under the per-contact binomial noise at 1e5 contacts
    grid = [round(i / 10, 1) for i in range(11)]
    return {
        "schema_version": 1,
        "kind": "sweep",
        "name": "coverage_sweep",
        "seed": 7,
        "n": 500000,
        "n_contacts": 100000,
        "alphas_sc": grid,
        "alphas_cd": grid,
        "one_sided_quality": 1.0,
    }


def population(n, *, duration, seed, alpha_app):
    """A sparse moving population of `n` nodes over `duration` s (more than 60).

    POPULATION_PLACES places are drawn uniformly in a POPULATION_SIDE_M
    square. Each node starts at a random place and moves to a random place
    at round(POPULATION_MOVES_PER_HOUR * duration / 3600) distinct random
    seconds (at most duration - 1), each waypoint jittered by up to 5 m in x
    and y and rounded to mm. The radio reaches 50 m, with noise_sigma 4; no
    node is a deputy and there is no attack.

    Roles come from two uniforms per node, (app, infected), drawn for every
    node first, in node order, from `Random(seed)`, whatever `alpha_app`: a
    node has the app when its first is below `alpha_app` and is infected (at
    0) when its second is below POPULATION_PREVALENCE. So a larger
    `alpha_app`'s app users hold a smaller one's, and the geometry is the
    same at any `alpha_app`. An infected app user is diagnosed at
    duration - 60; an infected node without the app is never diagnosed, as
    it has no app to publish from.
    """
    rng = Random(seed)
    draws = [(rng.random(), rng.random()) for _ in range(n)]
    spots = [(rng.uniform(0, POPULATION_SIDE_M), rng.uniform(0, POPULATION_SIDE_M))
             for _ in range(POPULATION_PLACES)]
    moves = min(round(POPULATION_MOVES_PER_HOUR * duration / 3600), duration - 1)

    def waypoint(t):
        x, y = rng.choice(spots)
        return [t, round(x + rng.uniform(-5, 5), 3), round(y + rng.uniform(-5, 5), 3)]

    nodes = []
    for i, (u_app, u_infected) in enumerate(draws):
        times = [0, *sorted(rng.sample(range(1, duration), moves))]
        node = _node(f"p{i:04d}", [waypoint(t) for t in times], app=u_app < alpha_app)
        if u_infected < POPULATION_PREVALENCE:
            node["infected_at"] = 0
            if node["app"]:
                node["diagnosed_at"] = duration - 60
        nodes.append(node)
    return _base(f"population_n{n}_s{seed}", seed=seed, duration=duration, nodes=nodes,
                 path_loss={"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 4.0})


BUILDERS = {
    "baseline_no_attack": baseline_no_attack,
    "lazy_student": lazy_student,
    "hospital_replay": hospital_replay,
    "targeted_replay": targeted_replay,
    "reidentification": reidentification,
    "tamper_range_extension": tamper_range_extension,
    "coverage_sweep": coverage_sweep,
}
