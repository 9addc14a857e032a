"""`scenarios.population`, the sparse moving population: a pure function of
its arguments whose output is a valid scenario, whose roles are the
thresholded draws its docstring names, and which runs."""

import json
import math
from random import Random

from hypothesis import given, settings, strategies as st

from ensim import engine, scenarios
from ensim.radio import MIN_DISTANCE_M

ALPHA = st.floats(0.0, 1.0)


def draws(n, seed):
    """The (app, infected) uniforms of each node, as the docstring names them."""
    rng = Random(seed)
    return [(rng.random(), rng.random()) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 25), duration=st.integers(61, 7200), seed=st.integers(0, 2**32),
       alpha_app=ALPHA)
def test_population_is_pure_and_valid(n, duration, seed, alpha_app):
    args = {"duration": duration, "seed": seed, "alpha_app": alpha_app}
    text = json.dumps(scenarios.population(n, **args))
    assert json.dumps(scenarios.population(n, **args)) == text
    raw = json.loads(text)
    cfg = engine.ScenarioConfig.from_dict(raw)
    assert len(cfg.world.nodes) == n and cfg.attack is None
    assert cfg.world.radio_range_max == 50.0 and cfg.world.path_loss.noise_sigma == 4.0
    moves = min(round(scenarios.POPULATION_MOVES_PER_HOUR * duration / 3600), duration - 1)
    side = scenarios.POPULATION_SIDE_M
    for node in raw["nodes"]:
        times = [wp[0] for wp in node["trajectory"]]
        assert times[0] == 0 and len(times) == moves + 1 and len(set(times)) == len(times)
        assert all(-5.001 <= v <= side + 5.001 and round(v, 3) == v
                   for wp in node["trajectory"] for v in wp[1:])

    # roles: the thresholded draws, nothing else
    u = draws(n, seed)
    assert [node["app"] for node in raw["nodes"]] == [a < alpha_app for a, _ in u]
    assert not any(node.deputy for node in cfg.world.nodes)
    assert ["infected_at" in node for node in raw["nodes"]] == \
        [i < scenarios.POPULATION_PREVALENCE for _, i in u]
    for node in raw["nodes"]:
        assert node.get("infected_at", 0) == 0
        diagnosed = "infected_at" in node and node["app"]
        assert node.get("diagnosed_at") == (duration - 60 if diagnosed else None)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 25), seed=st.integers(0, 1000),
       alphas=st.lists(ALPHA, min_size=2, max_size=2))
def test_roles_nest_and_geometry_stays(n, seed, alphas):
    """A larger alpha's app set holds a smaller one's, and the nodes' places,
    times and infections do not depend on the alpha."""
    low, high = sorted(alphas)
    small, large = (scenarios.population(n, duration=1200, seed=seed, alpha_app=a)
                    for a in (low, high))
    assert {node["id"] for node in small["nodes"] if node["app"]} <= \
        {node["id"] for node in large["nodes"] if node["app"]}
    assert [(node["trajectory"], "infected_at" in node) for node in small["nodes"]] == \
        [(node["trajectory"], "infected_at" in node) for node in large["nodes"]]


def test_population_is_not_bundled():
    assert scenarios.population not in scenarios.BUILDERS.values()


def test_twenty_nodes_for_ten_minutes():
    """A 20-node, 600 s run with half the nodes app users: only app nodes send
    and hear, every row is heard within radio range of where its emitter
    stood, and the run is deterministic."""
    raw = scenarios.population(20, duration=600, seed=0, alpha_app=0.5)
    cfg = engine.ScenarioConfig.from_dict(raw)
    result = engine.run_scenario(cfg)
    log = result.world.events
    assert len(log) > 0 and len(log.keys) > 1
    apps = {node["id"] for node in raw["nodes"] if node["app"]}
    nodes = {node.id: node for node in cfg.world.nodes}
    t_col, link_col, _ = log.columns()
    for t, link_id in zip(t_col.tolist(), link_col.tolist()):
        link = log.keys[link_id]
        assert {link.receiver, link.emitter} <= apps and not link.relay
        assert link.rx == nodes[link.receiver].position(t)
        d = max(math.dist(link.rx, nodes[link.emitter].position(t)), MIN_DISTANCE_M)
        assert d <= cfg.world.radio_range_max
    again = engine.run_scenario(engine.ScenarioConfig.from_dict(raw))
    assert [c.tobytes() for c in again.world.events.columns()] == \
        [c.tobytes() for c in log.columns()]
    assert again.notification_rows == result.notification_rows
