"""Command-line front end.

    ensim run <config>       run a scenario (bundled name or JSON path)
    ensim sweep <config>     run a coverage sweep config
    ensim vectors --count N --seed S   emit crypto test vectors

All artifacts land under --out with fixed filenames. Exit 0 on success,
2 on a config problem or an unusable --out, found before the run or when
writing its artifacts (the message names the field).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import coverage as coverage_mod
from . import crypto, scenarios
from .engine import RunResult, ScenarioError, SweepConfig, load_config, run_scenario, write_outputs


def _load_config(ref: str, seed):
    p = Path(ref)
    if p.exists():
        try:
            raw = json.loads(p.read_text())
        except (OSError, ValueError, RecursionError) as e:  # RecursionError: nested too deep
            raise ScenarioError(f"config {ref!r} is not valid JSON: {e}") from e
    elif ref in scenarios.BUILDERS:
        raw = scenarios.BUILDERS[ref]()
    else:
        raise ScenarioError(f"config {ref!r} is neither a file nor a bundled scenario "
                            f"(bundled: {', '.join(sorted(scenarios.BUILDERS))})")
    return load_config(raw, seed)


def _make_out(out, default: Path) -> Path:
    """Create the output directory before any work; exit 2 naming --out if it cannot be."""
    outdir = Path(out) if out else default
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        print(f"ensim: error: argument --out: cannot create {str(outdir)!r}: {e}", file=sys.stderr)
        raise SystemExit(2) from e
    return outdir


@contextmanager
def _writing_under(outdir: Path):
    """Exit 2 naming --out and the path if an artifact cannot be written."""
    try:
        yield
    except OSError as e:
        path = e.filename if e.filename is not None else outdir
        print(f"ensim: error: argument --out: cannot write {str(path)!r}: {e.strerror or e}",
              file=sys.stderr)
        raise SystemExit(2) from e


def _summarize(result: RunResult) -> None:
    rows = result.notification_rows
    false_pos = sum(1 for r in rows if not r["ground_truth_contact"])
    print(f"scenario {result.config.name}: {len(result.world.events)} scan events, "
          f"{len(result.published)} published keys")
    print(f"notifications: {len(rows)} ({false_pos} with no genuine contact)")
    if result.attacker is not None:
        print(f"attacker: {len(result.attacker.db)} harvested hearings, "
              f"{len(result.attacker.plan)} relay decisions, "
              f"{len(result.dossiers)} dossiers")


def cmd_run(args) -> int:
    """`ensim run` runs either kind of config; `ensim sweep` only a sweep."""
    cfg = _load_config(args.config, args.seed)
    if args.command == "sweep" and not isinstance(cfg, SweepConfig):
        raise ScenarioError("field 'kind' must be 'sweep' for `ensim sweep`")
    outdir = _make_out(args.out, Path("out") / cfg.name)
    if isinstance(cfg, SweepConfig):
        reports = coverage_mod.sweep(**cfg.params)
        with _writing_under(outdir):
            coverage_mod.write_sweep_csv(reports, outdir / "coverage.csv")
        print(f"sweep: {len(reports)} grid points -> {outdir / 'coverage.csv'}")
        return 0
    result = run_scenario(cfg)
    with _writing_under(outdir):
        write_outputs(result, outdir)
    _summarize(result)
    print(f"artifacts -> {outdir}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type: reports a bad value as `argument --count: ...`, exit 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def cmd_vectors(args) -> int:
    outdir = _make_out(args.out, Path("out"))
    vectors = crypto.generate_test_vectors(args.count, args.seed)
    path = outdir / "test_vectors.jsonl"
    with _writing_under(outdir), open(path, "w") as fh:
        for v in vectors:
            fh.write(json.dumps(v) + "\n")
    print(f"{len(vectors)} vectors -> {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ensim",
        description="Deterministic BLE exposure-notification attack simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, what in (("run", "scenario"), ("sweep", "coverage sweep")):
        p = sub.add_parser(command, help=f"run a {what} config")
        p.add_argument("config", help=f"bundled {what} name or path to a JSON config")
        p.add_argument("--out", help="output directory (default out/<name>)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.set_defaults(func=cmd_run)

    p_vec = sub.add_parser("vectors", help="emit crypto pipeline test vectors")
    p_vec.add_argument("--count", type=_positive_int, required=True)
    p_vec.add_argument("--seed", type=int, required=True)
    p_vec.add_argument("--out", help="output directory (default out/)")
    p_vec.set_defaults(func=cmd_vectors)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
