"""Pinned artifacts: every bundled scenario and the coverage sweep, byte for byte.

`data/golden_digests.json` holds the sha256 of each artifact the CLI writes
for each bundled config. Determinism (criterion 10) only compares two runs
of the same code; these pins also catch a change that alters outputs
consistently. A deliberate behaviour change regenerates the file and says
so in CHANGES.md.

`data/golden_digests_noisy.json` pins two bundled scenarios rerun with
`noise_sigma: 4`, so the order of the radio's noise draws is pinned too
(every bundled scenario is noiseless): `hospital_replay` (deputies that
harvest and relay to ten receivers) and `lazy_student` (a walking carrier
and a node that is both app and deputy). The noisy configs are built here
rather than bundled, so the bundled scenarios and their outcome checks stay
as they are.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ensim import scenarios
from ensim.cli import main as cli_main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_digests.json").read_text())
GOLDEN_NOISY = json.loads((DATA / "golden_digests_noisy.json").read_text())


def _digests(outdir: Path) -> dict:
    return {
        f.relative_to(outdir).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(outdir.rglob("*")) if f.is_file()
    }


def noisy(name: str) -> dict:
    raw = scenarios.BUILDERS[name]()
    raw["world"]["path_loss"]["noise_sigma"] = 4.0
    return raw


def test_every_bundled_config_is_pinned():
    assert sorted(GOLDEN) == sorted(scenarios.BUILDERS)


@pytest.mark.parametrize("name", sorted(scenarios.BUILDERS))
def test_artifacts_match_golden_digests(name, tmp_path):
    cmd = "sweep" if name == "coverage_sweep" else "run"
    assert cli_main([cmd, name, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["hospital_replay", "lazy_student"])
def test_noisy_artifacts_match_golden_digests(name, tmp_path):
    cfg = tmp_path / f"noisy_{name}.json"
    cfg.write_text(json.dumps(noisy(name)))
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg), "--out", str(out)]) == 0
    assert _digests(out) == GOLDEN_NOISY[name]
