"""The ensim benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload crowd|relay|paper_suite --seed N \
        --seconds S --trace 0|1

The workload's configs are generated from the seed (see workloads.py) and
each instance runs in a fresh child process (worker.py), one at a time: a
closed loop with one client. `--trace 0` runs the workload again and again,
at least MIN_ITERATIONS times and for at least S seconds, and reports
medians; before each instance it starts SETUP_CHILDREN_PER_INSTANCE children
that only import `ensim` and validate the configs, so that set-up time is
sampled across the whole run. Times are scaled by the speed gauge the run children
take around each instance (see GAUGE_REF_S). `--trace 1` alternates untraced
and traced children for S seconds, reports the per-layer metrics of the
traced ones and the tracing overhead, and requires traced and untraced
artifacts to be byte-identical.

Every run's outputs are checked (workloads.check_run, check_sweep); repeated
runs of one seed must write identical artifacts, and seed 0 must reproduce
the digests pinned in digests.json. Metric names and units are those
declared in BENCHMARK.json. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUP_CHILDREN_PER_INSTANCE = 2
# The speed a shared virtual CPU gives one process drifts by up to 2x over
# minutes. Every time is scaled by (GAUGE_REF_S / g) ** GAUGE_ELASTICITY,
# where g is the median time of worker.gauge() over the run's instances: one
# reading is too noisy to correct one instance, so readings are pooled over
# the run. The program's times moved about half as much as the gauge (median
# log-log slope 0.56 over 70 runs on a 2-vCPU VM), and scaling by the full
# ratio over-corrected. Set-up-only children take no gauge: pooled with
# theirs, the scale followed readings the instances did not.
GAUGE_REF_S = 0.05
GAUGE_ELASTICITY = 0.5
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150


def child(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to completion and return its JSON report."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out", str(OUT / f"{workload}-s{seed}")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker --mode {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def tally(runs: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every scenario run of every instance.

    A run fails on its own output check, or when its artifacts differ from
    those of the same run in the first instance of this seed.
    """
    reference = runs[0]["digests"]
    attempted = failed = 0
    for r in runs:
        for name, problems in r["problems"].items():
            attempted += 1
            if r["digests"].get(name) != reference.get(name):
                problems = problems + ["artifacts differ between runs of one seed"]
            if problems:
                failed += 1
                print(f"FAIL {name}: {'; '.join(problems)}")
    return attempted, failed


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    setups, runs = [], []
    start = time.perf_counter()
    while len(runs) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        setups += [child(workload, seed, "setup") for _ in range(SETUP_CHILDREN_PER_INSTANCE)]
        runs.append(child(workload, seed, "run"))
    med = statistics.median
    gauge_s = med(g for r in runs for g in r["gauges_s"])
    scale = (GAUGE_REF_S / gauge_s) ** GAUGE_ELASTICITY
    metrics = {
        "setup_s": med(r["setup_s"] for r in setups + runs) * scale,
        "wall_s": med(r["wall_s"] for r in runs) * scale,
        "events_per_s": med(r["events"] / r["wall_s"] for r in runs) / scale,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        "artifact_mb": med(r["artifact_bytes"] for r in runs) / 1e6,
    }
    print(f"{workload} seed {seed}: {len(runs)} instances, {len(setups)} set-up-only children, "
          f"{runs[0]['events']} scan events per instance; median gauge {gauge_s:.4f} s; "
          "wall_s per instance as measured " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    return runs, metrics


def trace(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(child(workload, seed, "run"))
        traced.append(child(workload, seed, "trace"))
    layers = {k: statistics.median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
    overhead = (statistics.median(t["wall_s"] for t in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1)
    layers["trace.overhead_ratio"] = overhead
    print(f"{workload} seed {seed}: {len(traced)} traced and {len(plain)} untraced instances, "
          f"tracing overhead {overhead:+.1%}; spans in {OUT}")
    return plain + traced, layers


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # exit through Python on SIGTERM, so subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    OUT.mkdir(exist_ok=True)
    runs, metrics = (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
    attempted, failed = tally(runs)
    if not args.trace:
        # the share of runs passing their check: fail_ratio is 1 minus this
        metrics["pass_ratio"] = (attempted - failed) / attempted
    if metrics.keys() != units.keys():
        raise SystemExit(f"measured and declared metrics differ: "
                         f"{sorted(metrics.keys() ^ units.keys())} (see {SPEC.name})")
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} runs failed their check)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
