"""`scripts/scale_probe.py` at a tiny size: with and without `--run-only`,
and on the sparse population.

The crowd generator seats at least three diagnosed pairs, so 4 requested
nodes are 6, each hearing the other 5 on every one of 60 ticks: 30 links,
since no identifier rotates within the first 600 s. The run makes 4 world
steps: t = 0, ticks 1-9, the diagnosis at tick 10, and ticks 11-59.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ensim import engine, radio, scenarios

ROOT = Path(__file__).resolve().parents[1]
HEADER = ["nodes", "seconds", "alpha_app", "events", "links", "steps", "run_s", "write_s",
          "max_rss_mb"]


def probe(*args) -> list:
    """The probe's one row for `args`, split into fields, under its header."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), *args]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=120)
    header, row = done.stdout.splitlines()
    assert header.split() == HEADER
    return row.split()


@pytest.mark.parametrize("run_only", [True, False])
def test_scale_probe_smoke(run_only):
    row = probe("--nodes", "4", "--seconds", "60", *(["--run-only"] if run_only else []))
    nodes, seconds, alpha_app, events, links, steps, run_s, write_s, max_rss_mb = row
    assert (nodes, seconds, alpha_app, events, links, steps) == (
        "4", "60", "1.00", str(6 * 5 * 60), str(6 * 5), "4")
    assert float(run_s) >= 0 and int(max_rss_mb) > 0
    if run_only:
        assert write_s == "-"
    else:
        assert float(write_s) >= 0


def test_scale_probe_population(monkeypatch):
    """`--population` runs `scenarios.population` at `--alpha-app`: its events,
    links and world steps are those of the same run in this process."""
    nodes, seconds, alpha_app, events, links, steps, run_s, write_s, max_rss_mb = probe(
        "--population", "--alpha-app", "0.5", "--nodes", "20", "--seconds", "600", "--run-only")
    calls, step = [], radio.World.step
    monkeypatch.setattr(radio.World, "step", lambda *a, **kw: calls.append(1) or step(*a, **kw))
    raw = scenarios.population(20, duration=600, seed=0, alpha_app=0.5)
    log = engine.run_scenario(engine.ScenarioConfig.from_dict(raw)).world.events
    assert (nodes, seconds, alpha_app, write_s) == ("20", "600", "0.50", "-")
    assert (int(events), int(links), int(steps)) == (len(log), len(log.keys), len(calls))
    assert len(log) > 0 and float(run_s) >= 0 and int(max_rss_mb) > 0
