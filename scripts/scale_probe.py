"""Run perfbench's crowd or a sparse population at a larger size and report its cost.

    PYTHONPATH=src python3 scripts/scale_probe.py --nodes 50 100 --seconds 600
    PYTHONPATH=src python3 scripts/scale_probe.py --nodes 100 --seconds 3600 --run-only
    PYTHONPATH=src python3 scripts/scale_probe.py --population --alpha-app 0.5 \
        --nodes 300 --seconds 3600 --run-only

Each (nodes, seconds) run happens in a fresh child process, one at a time,
and runs seed 0 untraced: `engine.run_scenario`, then `engine.write_outputs`
into a temporary directory that is deleted afterwards. By default the run is
perfbench's crowd, every node an app user: the child sets
`workloads.CROWD_NODES` and `workloads.CROWD_DURATION_S` in its own copy of
perfbench's workload module (no file changes). With `--population` it is
`scenarios.population` at `--alpha-app` (default 1.0), which has no
deputies. The event log alone is about 230 bytes per event, so
check free disk space before large runs, or pass `--run-only`, which writes
nothing (its write_s reads `-`).
One row is printed per run: the share of nodes drawn as app users
(`alpha_app`, 1.00 for the crowd), the scan events, the links of the scan log
(`radio.Link`), the `World.step` calls (each a span of identical ticks,
counted through a wrapper on the class in the child, as perfbench's tracer
counts them), the run and write seconds, and the child's maximum resident
set size in MB of 10**6 bytes, as perfbench reports `peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def probe(nodes: int, seconds: int, run_only: bool, alpha_app, results) -> None:
    """One run in this (child) process: the crowd when `alpha_app` is None,
    else the population at `alpha_app`; puts its row on `results`. Its
    `write_s` is None when `run_only` skips writing the artifacts."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from ensim import engine, radio, scenarios

    steps, step = 0, radio.World.step

    def counted(world, *args, **kwargs):
        nonlocal steps
        steps += 1
        return step(world, *args, **kwargs)

    radio.World.step = counted
    if alpha_app is None:
        workloads.CROWD_NODES = nodes
        workloads.CROWD_DURATION_S = seconds
        raw = workloads.crowd(workloads.DEFAULT_SEED)
    else:
        raw = scenarios.population(nodes, duration=seconds, seed=workloads.DEFAULT_SEED,
                                   alpha_app=alpha_app)
    cfg = engine.ScenarioConfig.from_dict(raw)
    start = time.perf_counter()
    result = engine.run_scenario(cfg)
    run_s = time.perf_counter() - start
    write_s = None
    if not run_only:
        with tempfile.TemporaryDirectory() as out:
            start = time.perf_counter()
            engine.write_outputs(result, out)
            write_s = round(time.perf_counter() - start, 2)
    results.put({"nodes": nodes, "seconds": seconds,
                 "alpha_app": 1.0 if alpha_app is None else alpha_app,
                 "events": len(result.world.events),
                 "links": len(result.world.events.keys), "steps": steps,
                 "run_s": round(run_s, 2), "write_s": write_s,
                 "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)})


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--nodes", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--run-only", action="store_true",
                    help="run the scenario but write no artifacts (no event log)")
    ap.add_argument("--population", action="store_true",
                    help="run scenarios.population instead of perfbench's crowd")
    ap.add_argument("--alpha-app", type=float,
                    help="with --population, the share of nodes drawn as app users (default 1.0)")
    args = ap.parse_args()
    if args.alpha_app is not None and not args.population:
        ap.error("--alpha-app needs --population")
    alpha_app = (1.0 if args.alpha_app is None else args.alpha_app) if args.population else None
    ctx = multiprocessing.get_context("spawn")
    print("nodes  seconds  alpha_app     events    links   steps  run_s  write_s  max_rss_mb")
    for nodes in args.nodes:
        results = ctx.Queue()
        child = ctx.Process(target=probe, args=(nodes, args.seconds, args.run_only, alpha_app,
                                                results))
        child.start()
        child.join()
        if child.exitcode != 0:
            raise SystemExit(f"the run at {nodes} nodes failed (exit code {child.exitcode})")
        row = results.get()
        write_s = "-" if row["write_s"] is None else f"{row['write_s']:.2f}"
        print(f"{row['nodes']:5d}  {row['seconds']:7d}  {row['alpha_app']:9.2f}  "
              f"{row['events']:9d}  {row['links']:7d}  "
              f"{row['steps']:6d}  {row['run_s']:5.2f}  {write_s:>7}  {row['max_rss_mb']:10d}",
              flush=True)


if __name__ == "__main__":
    main()
