"""`scripts/low_repeat_probe.py`'s two cases, run once each, against their
pinned artifact digests.

Every other pinned digest comes from a bundled config, whose ticks mostly
repeat; here every node moves on every tick at `noise_sigma` 4, so every
tick of the relay and the crowd generator is run in full. The script stays
the timing tool: this test builds its cases from the script's `walking` and
`CASES`, with perfbench's workload constants set for the test alone. A
benchmark change that alters the generators re-pins these digests.
"""

import importlib.util
from pathlib import Path

import pytest

from ensim import engine

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = {
    "relay_walk": "0d8de1081b67ee180179d5ec2e47ccaf3d1b5cb2290c843c23eb3608123f8ced",
    "crowd_walk": "009065eab8b7f4fd512fd683d6c295ac703b63fba1c6aa76763a79d2554d1c89",
}


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_low_repeat_case_digest(case, monkeypatch, tmp_path):
    probe = load("low_repeat_probe", ROOT / "scripts" / "low_repeat_probe.py")
    workloads = load("workloads", ROOT / "perfbench" / "workloads.py")
    generator, constant, seconds = probe.CASES[case]
    monkeypatch.setattr(workloads, constant, seconds)
    raw = probe.walking(getattr(workloads, generator)(0))
    engine.write_outputs(engine.run_scenario(engine.ScenarioConfig.from_dict(raw)), tmp_path)
    assert probe.artifact_digest(tmp_path) == DIGESTS[case]
