"""Reference writers of the attacker's two artifacts, as `engine.write_outputs`
wrote them before the relay plan was kept as rows: attack_plan.jsonl is one
`json.dumps` per relay decision, each decision its own dict, and
dossiers.json is one `json.dump(indent=2)`.
test_artifact_writers.py and test_engine_oracle.py check that the program
writes the same bytes.
"""

import json
from pathlib import Path

NAMES = ("attack_plan.jsonl", "dossiers.json")
# an attack_plan.jsonl line's keys, in the order the README documents
PLAN_KEYS = ("t", "deputy", "rpi_hex", "aem_hex", "tampered", "source_deputy",
             "harvest_t", "harvest_x", "harvest_y", "age_s", "deadline_t")


def decisions(server):
    """Every relay decision of a server's plan as its own dict, in row order:
    the row's time, its entry's fields and the age at that time, in PLAN_KEYS
    order. No server, no decision."""
    if server is None:
        return []
    out = []
    t_col, entry_col, _ = server.plan.columns()
    for t, entry in zip(t_col.tolist(), entry_col.tolist()):
        fields = {**server.plan.keys[entry], "t": t}
        fields["age_s"] = t - fields["harvest_t"]
        assert sorted(fields) == sorted(PLAN_KEYS)
        out.append({key: fields[key] for key in PLAN_KEYS})
    return out


def write(server, dossiers, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "attack_plan.jsonl", "w") as fh:
        for decision in decisions(server):
            fh.write(json.dumps(decision) + "\n")
    with open(out / "dossiers.json", "w") as fh:
        json.dump(dossiers, fh, indent=2)
        fh.write("\n")
