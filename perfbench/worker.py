"""One benchmark child process: set up, run one workload instance, check it, report.

    python3 perfbench/worker.py --workload crowd --seed 0 --mode run --out DIR

`--mode setup` stops after set-up; `run` also runs the workload and writes its
artifacts under DIR; `trace` does the same with every layer boundary wrapped
and writes the spans to DIR.spans.npz. The last line of standard output is
one JSON object. Each call is a fresh process, so set-up time and peak memory
belong to this workload instance alone. Before and after the timed steps
the worker times a fixed pure-Python job (`gauge`), from which run.py
corrects the timings for the CPU speed the machine gave during the run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
GAUGE_ROWS = 10_000
GAUGE_REPEATS = 3
sys.path.insert(0, str(SRC))

import ensim  # noqa: E402
from ensim import coverage, engine  # noqa: E402

import workloads  # noqa: E402


def _digests(out: Path) -> tuple[dict, int]:
    """run name -> {file name -> sha256}, and the total bytes, of every artifact."""
    digests, size = {}, 0
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        size += f.stat().st_size
        run, *rel = f.relative_to(out).parts
        with open(f, "rb") as fh:  # streamed, so hashing adds nothing to peak memory
            digests.setdefault(run, {})["/".join(rel)] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests, size


def gauge() -> float:
    """Seconds taken by a fixed job shaped like the simulator's own work
    (dicts, JSON, hashing, sorting), the median of GAUGE_REPEATS tries so that
    a blip of speed does not count; it uses no `ensim` code, so no change to
    the program moves it."""
    times = []
    for _ in range(GAUGE_REPEATS):
        t = time.perf_counter()
        rows = []
        for i in range(GAUGE_ROWS):
            rec = {"t": i, "x": i * 0.5, "id": str(i)}
            rows.append(json.dumps(rec) + hashlib.sha256(rec["id"].encode()).hexdigest()[:8])
        rows.sort()
        times.append(time.perf_counter() - t)
    return sorted(times)[GAUGE_REPEATS // 2]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    if not Path(ensim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ensim imported from {ensim.__file__}, not from {SRC}")
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
    with tracer.installed() if tracer else contextlib.nullcontext():
        raws, sweep = workloads.build(args.workload, args.seed)
        configs = {name: engine.ScenarioConfig.from_dict(raw) for name, raw in raws.items()}
        if sweep is not None:
            missing = [k for k in ("seed", "alphas_sc", "alphas_cd") if k not in sweep]
            if missing:
                raise SystemExit(f"sweep config lacks {missing}")
        setup_s = time.perf_counter() - T0
        report = {"setup_s": setup_s}
        if args.mode != "setup":
            before = gauge()
            report.update(_run(args, configs, sweep))
            report["gauges_s"] = [before, gauge()]
    if tracer is not None:
        tracer.save(args.out.with_name(args.out.name + ".spans.npz"))
        report["layers"] = tracer.layer_metrics()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(report))


def _run(args, configs, sweep) -> dict:
    """Run every config of the instance; only running and writing are timed."""
    out = args.out
    shutil.rmtree(out, ignore_errors=True)
    wall = 0.0
    events = 0
    problems = {}
    for name, cfg in configs.items():
        t = time.perf_counter()
        result = engine.run_scenario(cfg)
        engine.write_outputs(result, out / name)
        wall += time.perf_counter() - t
        events += len(result.world.events)
        problems[name] = workloads.check_run(args.workload, name, result)
        del result
    if sweep is not None:
        t = time.perf_counter()
        reports = coverage.sweep(
            alphas_sc=sweep["alphas_sc"], alphas_cd=sweep["alphas_cd"],
            n=sweep.get("n", 10000), n_contacts=sweep.get("n_contacts", 100000),
            seed=sweep["seed"], one_sided_quality=sweep.get("one_sided_quality", 1.0),
        )
        (out / "coverage_sweep").mkdir(parents=True, exist_ok=True)
        coverage.write_sweep_csv(reports, out / "coverage_sweep" / "coverage.csv")
        wall += time.perf_counter() - t
        problems["coverage_sweep"] = workloads.check_sweep(reports)

    digests, size = _digests(out)
    shutil.rmtree(out)
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text()).get(args.workload, {}) if DIGESTS.exists() else {}
        for name in problems:
            if pinned.get(name) != digests.get(name):
                problems[name].append(f"artifacts differ from the digests pinned for seed "
                                      f"{workloads.DEFAULT_SEED}")
    return {"wall_s": wall, "events": events, "artifact_bytes": size,
            "digests": digests, "problems": problems}


if __name__ == "__main__":
    main()
