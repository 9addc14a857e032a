"""The benchmark's tracer, `perfbench/spans.py`, against the program it wraps.

The tracer wraps public functions by attribute name and unpacks their
arguments and results in its after-hooks, all from outside the program, so
a refactor that renames or reshapes one of them would otherwise break only
`perfbench/run.py --trace 1`. Here the file is imported as it stands: every
attribute it wraps must exist, and a traced run must write the artifacts of
an untraced one and yield its layer metrics.
"""

import importlib.util
from pathlib import Path

from ensim import engine, scenarios

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    for owner, attr, span_name, _after in load_spans().Tracer()._targets():
        assert hasattr(owner, attr), span_name


def test_traced_run_writes_the_untraced_artifacts(tmp_path):
    raw = scenarios.lazy_student()
    engine.write_outputs(engine.run_scenario(engine.ScenarioConfig.from_dict(raw)),
                         tmp_path / "untraced")
    tracer = load_spans().Tracer()
    with tracer.installed():
        # through the module attributes, which the tracer has replaced
        result = engine.run_scenario(engine.ScenarioConfig.from_dict(raw))
        engine.write_outputs(result, tmp_path / "traced")
    untraced = sorted((tmp_path / "untraced").iterdir())
    assert [p.name for p in untraced] == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for path in untraced:
        assert path.read_bytes() == (tmp_path / "traced" / path.name).read_bytes(), path.name

    metrics = tracer.layer_metrics()
    assert metrics["radio.events"] == len(result.world.events)  # lazy_student injects nothing
    assert metrics["engine.run_scenario.s"] > 0
    # the hooks that read what matching and re-identification were handed
    assert metrics["device.match.sighting_key_pairs"] > 0
    assert metrics["attacker.reidentify.join_pairs"] > 0
