"""Time the benchmark's relay and crowd generators where no tick repeats.

    PYTHONPATH=src python3 scripts/low_repeat_probe.py

Every benchmark workload repeats 99% or more of its ticks, which a run
delivers in one `World.step` call per span, so the cost of a fully run tick
barely shows. Here perfbench's relay is cut to 900 s and its crowd to 400 s
(both generators place their diagnoses relative to the end), and every node
is given a waypoint on every tick, a few cm around where it is: the geometry
changes on every tick, so every tick is run in full.

Each case runs in a fresh child process, one at a time, which sets the
duration constants in its own copy of perfbench's workload module (no file
changes) and runs seed 0 untraced: 5 `engine.run_scenario` calls, and 5
`engine.write_outputs` calls of the first run's result, each into a fresh
temporary directory that is deleted afterwards. One row is printed per
case: the scan events, the links of the scan log (`radio.Link`), the best
of the 5 run times, the best of the 5 write times, and the sha256 of the
first write's artifacts (each file's name and bytes, in name order), which
must not change with a refactor.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = {"relay_walk": ("relay", "RELAY_DURATION_S", 900),
         "crowd_walk": ("crowd", "CROWD_DURATION_S", 400)}
RUNS = 5


def walking(raw: dict) -> dict:
    """`raw` with every node given a waypoint on every tick, a few cm (a
    fixed cycle of offsets) around the waypoint it was at."""
    tick, duration = raw["world"]["tick"], raw["world"]["duration"]
    for node in raw["nodes"]:
        trajectory, k, walk = node["trajectory"], 0, []
        for t in range(0, duration, tick):
            while k + 1 < len(trajectory) and trajectory[k + 1][0] <= t:
                k += 1
            _, x, y = trajectory[k]
            walk.append([t, x + 0.01 * (t // tick % 5 - 2), y + 0.01 * (t // tick % 3 - 1)])
        node["trajectory"] = walk
    return raw


def artifact_digest(out) -> str:
    """The sha256 of the files in `out`: each file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(out).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def probe(case: str) -> dict:
    """One case in this (child) process; returns its row."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from ensim import engine

    generator, constant, seconds = CASES[case]
    setattr(workloads, constant, seconds)
    cfg = engine.ScenarioConfig.from_dict(walking(getattr(workloads, generator)(0)))
    start = time.perf_counter()
    result = engine.run_scenario(cfg)
    run_s = [time.perf_counter() - start]
    write_s, digest = [], None
    for _ in range(RUNS):
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            engine.write_outputs(result, out)
            write_s.append(time.perf_counter() - start)
            digest = digest or artifact_digest(out)
    events, links = len(result.world.events), len(result.world.events.keys)
    del result
    for _ in range(RUNS - 1):
        start = time.perf_counter()
        engine.run_scenario(cfg)
        run_s.append(time.perf_counter() - start)
    return {"case": case, "events": events, "links": links, "run_best_s": round(min(run_s), 4),
            "write_best_s": round(min(write_s), 4), "sha256": digest}


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    print("case        events   links  run_best_s  write_best_s  sha256")
    for case in CASES:
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as child:
            row = child.submit(probe, case).result()
        print(f"{row['case']:10s}  {row['events']:6d}  {row['links']:6d}  "
              f"{row['run_best_s']:10.4f}  {row['write_best_s']:12.4f}  {row['sha256']}", flush=True)


if __name__ == "__main__":
    main()
