"""Pinned artifacts: every bundled scenario and the coverage sweep, byte for byte.

`data/golden_digests.json` holds the sha256 of each artifact the CLI writes
for each bundled config. Determinism (criterion 10) only compares two runs
of the same code; these pins also catch a change that alters outputs
consistently. A deliberate behaviour change regenerates the file and says
so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ensim import scenarios
from ensim.cli import main as cli_main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_digests.json").read_text())


def test_every_bundled_config_is_pinned():
    assert sorted(GOLDEN) == sorted(scenarios.BUILDERS)


@pytest.mark.parametrize("name", sorted(scenarios.BUILDERS))
def test_artifacts_match_golden_digests(name, tmp_path):
    cmd = "sweep" if name == "coverage_sweep" else "run"
    assert cli_main([cmd, name, "--out", str(tmp_path)]) == 0
    digests = {
        f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(tmp_path.rglob("*")) if f.is_file()
    }
    assert digests == GOLDEN[name]
