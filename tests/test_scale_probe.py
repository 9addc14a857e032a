"""`scripts/scale_probe.py` at a tiny size: with and without `--run-only`.

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

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("run_only", [True, False])
def test_scale_probe_smoke(run_only):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--nodes", "4",
           "--seconds", "60", *(["--run-only"] if run_only else [])]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True, timeout=120)
    header, row = done.stdout.splitlines()
    assert header.split() == ["nodes", "seconds", "events", "links", "steps", "run_s", "write_s",
                              "max_rss_mb"]
    nodes, seconds, events, links, steps, run_s, write_s, max_rss_mb = row.split()
    assert (nodes, seconds, events, links, steps) == ("4", "60", str(6 * 5 * 60), str(6 * 5), "4")
    assert float(run_s) >= 0 and int(max_rss_mb) > 0
    if run_only:
        assert write_s == "-"
    else:
        assert float(write_s) >= 0
