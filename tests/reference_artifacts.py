"""Reference writers of the attacker's two artifacts, as `engine.write_outputs`
wrote them before the relay plan was kept as one group per planned tick:
attack_plan.jsonl is one `json.dumps` per relay decision, each decision its
own dict, and dossiers.json is one `json.dump(indent=2)`.
test_artifact_writers.py and test_engine_oracle.py check that the program
writes the same bytes.
"""

import json
from pathlib import Path

NAMES = ("attack_plan.jsonl", "dossiers.json")


def decisions(plan):
    """Every relay decision of a plan log as its own dict, in line order: for each
    group, each of its ticks, each entry with that tick's `t` and `age_s`."""
    return [{**entry, "t": t, "age_s": t - entry["harvest_t"]}
            for ticks, entries in plan for t in ticks for entry in entries]


def write(plan, dossiers, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "attack_plan.jsonl", "w") as fh:
        for entry in decisions(plan):
            fh.write(json.dumps(entry) + "\n")
    with open(out / "dossiers.json", "w") as fh:
        json.dump(dossiers, fh, indent=2)
        fh.write("\n")
