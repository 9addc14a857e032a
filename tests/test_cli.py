import copy
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_gaen as ref
from ensim import cli, engine, scenarios
from ensim.cli import main
from test_engine import small_scenario

SMALL_SWEEP = dict(scenarios.coverage_sweep(), alphas_sc=[0.0, 0.5], alphas_cd=[0.5],
                   n=2000, n_contacts=5000)
PAYLOAD_HEX = "02011a03036ffd17166ffdf252a8a76c6012a86337d54f914b53b5ed12161b"


def _edited(base, edits):
    doc = copy.deepcopy(base)
    for path, value in edits:
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


def test_run_bundled_by_name(tmp_path, capsys):
    rc = main(["run", "baseline_no_attack", "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "notifications: 1" in out
    for name in ("events.jsonl", "notifications.csv", "published_teks.jsonl",
                 "attack_plan.jsonl", "dossiers.json"):
        assert (tmp_path / "o" / name).exists()


def test_run_summary_counts_what_the_run_wrote(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_scenario",
                        lambda cfg: runs.append(engine.run_scenario(cfg)) or runs[-1])
    assert main(["run", "hospital_replay", "--out", str(tmp_path / "o")]) == 0
    harvested, decisions = map(int, re.search(
        r"attacker: (\d+) harvested hearings, (\d+) relay decisions", capsys.readouterr().out).groups())
    [result] = runs
    lines = (tmp_path / "o" / "attack_plan.jsonl").read_text().splitlines()
    assert decisions == len(lines) == len(result.attacker.plan) > len(result.attacker.plan.keys)
    assert harvested == len(result.attacker.db) > 0


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scenarios.baseline_no_attack()))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_missing_seed_exits_nonzero_naming_field(tmp_path, capsys):
    raw = scenarios.baseline_no_attack()
    del raw["seed"]
    cfg = tmp_path / "broken.json"
    cfg.write_text(json.dumps(raw))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'seed'" in capsys.readouterr().err


def test_unknown_scenario_name(tmp_path, capsys):
    rc = main(["run", "no_such_scenario", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no_such_scenario" in capsys.readouterr().err


def test_invalid_json(tmp_path, capsys):
    # past its nesting limit json.loads raises RecursionError, not ValueError: a traceback
    for text in ("{nope", "[" * 10**5 + "]" * 10**5):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err


def test_sweep_rejects_scenario_kind(tmp_path, capsys):
    rc = main(["sweep", "baseline_no_attack", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_sweep_writes_csv(tmp_path, capsys):
    raw = dict(scenarios.coverage_sweep(), alphas_sc=[0.0, 0.5], alphas_cd=[0.0, 0.5],
               n=2000, n_contacts=5000)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(raw))
    assert main(["sweep", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "coverage.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2x2 grid


def test_run_dispatches_sweep_kind(tmp_path, capsys):
    raw = dict(scenarios.coverage_sweep(), alphas_sc=[0.5], alphas_cd=[0.5],
               n=2000, n_contacts=5000)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "coverage.csv").exists()


def _injection(**kw):
    return [dict({"t": 3, "receiver": "bob", "payload_hex": PAYLOAD_HEX,
                  "mac": "AB:B1:E9:9E:1B:BA"}, **kw)]


# (base config, edits as (path, value), text the error must contain)
INVALID_CONFIGS = {
    "bad injection hex": ("scenario", [(("injections",), _injection(payload_hex="zz"))],
                          "'injections[0].payload_hex'"),
    # beacon.decode rejects it at matching or harvest time, after the run started
    "32-byte injection payload": ("scenario", [(("injections",), _injection(payload_hex="00" * 32))],
                                  "'injections[0].payload_hex'"),
    # scenery hears nothing, so the injected sighting would be logged but never received
    "injection to scenery": ("scenario", [(("nodes", 2, "app"), False),
                                          (("injections",), _injection(receiver="carol"))],
                             "'injections[0].receiver'"),
    "tx_power 300": ("scenario", [(("nodes", 0, "tx_power"), 300)], "'nodes[0].tx_power'"),
    "2-element waypoint": ("scenario", [(("nodes", 0, "trajectory", 0), [0, 1.0])],
                           "'nodes[0].trajectory[0]'"),
    "tick 0.5": ("scenario", [(("world", "tick"), 0.5)], "'world.tick'"),
    "nodes 5": ("scenario", [(("nodes",), 5)], "'nodes'"),
    "app 'no'": ("scenario", [(("nodes", 1, "app"), "no")], "'nodes[1].app'"),
    "misspelt matching": ("scenario", [(("matchng",), {"duration_threshold": 60})],
                          "'matchng'"),
    "off-tick diagnosed_at": ("scenario", [(("world", "tick"), 2),
                                           (("nodes", 0, "diagnosed_at"), 1201)],
                              "'nodes[0].diagnosed_at'"),
    "diagnosed_at at duration": ("scenario", [(("nodes", 0, "diagnosed_at"), 1800)],
                                 "'nodes[0].diagnosed_at'"),
    "off-schedule injection": ("scenario", [(("world", "tick"), 2),
                                            (("injections",), _injection(t=3))],
                               "'injections[0].t'"),
    "radio_range_max -1": ("scenario", [(("world", "radio_range_max"), -1)],
                           "'world.radio_range_max'"),
    "seed true": ("scenario", [(("seed",), True)], "'seed'"),
    "world []": ("scenario", [(("world",), [])], "'world'"),
    "tolerance -5": ("scenario", [(("matching", "tolerance"), -5)], "'matching.tolerance'"),
    "duration 0": ("scenario", [(("world", "duration"), 0)], "'world.duration'"),
    # every unmatched published key would notify with no minimum attenuation
    "duration_threshold 0": ("scenario", [(("matching", "duration_threshold"), 0)],
                             "'matching.duration_threshold'"),
    # bounded so that no rssi can overflow: -Infinity is not JSON, and events.jsonl held it
    "path-loss exponent 1e308": ("scenario", [(("world", "path_loss", "exponent"), 1e308)],
                                 "'world.path_loss.exponent'"),
    "noise_sigma 1e308": ("scenario", [(("world", "path_loss", "noise_sigma"), 1e308)],
                          "'world.path_loss.noise_sigma'"),
    "empty trajectory": ("scenario", [(("nodes", 0, "trajectory"), [])], "'nodes[0].trajectory'"),
    "unsorted trajectory": ("scenario",
                            [(("nodes", 0, "trajectory"), [[10, 0.0, 0.0], [0, 1.0, 1.0]])],
                            "'nodes[0].trajectory'"),
    "tick 0": ("scenario", [(("world", "tick"), 0)], "'world.tick'"),
    "duration off the tick": ("scenario", [(("world", "tick"), 7)], "'world.duration'"),
    "relay_latency -1": ("scenario", [(("attack",), {"relay_latency": -1})],
                         "'attack.relay_latency'"),
    "path-loss exponent 0": ("scenario", [(("world", "path_loss", "exponent"), 0)],
                             "'world.path_loss.exponent'"),
    "sweep n 1": ("sweep", [(("n",), 1)], "'n'"),
    "sweep n_contacts 0": ("sweep", [(("n_contacts",), 0)], "'n_contacts'"),
    # numpy would fail to allocate the population or the contact list, with a traceback
    "sweep n 1e12": ("sweep", [(("n",), 10**12)], "'n'"),
    "sweep n_contacts 1e13": ("sweep", [(("n_contacts",), 10**13)], "'n_contacts'"),
    "sweep one_sided_quality 1.5": ("sweep", [(("one_sided_quality",), 1.5)],
                                    "'one_sided_quality'"),
    "sweep alpha 1.5": ("sweep", [(("alphas_sc",), [1.5])], "'alphas_sc[0]'"),
    # no grid point: exited 0 with a header-only coverage.csv
    "sweep alphas_sc []": ("sweep", [(("alphas_sc",), [])], "'alphas_sc'"),
    "sweep alphas_cd []": ("sweep", [(("alphas_cd",), [])], "'alphas_cd'"),
    # cell (i, j) is seeded seed * 1,000,003 + i * 1009 + j: (0, 1009) drew what (1, 0) drew
    "sweep 1010 alphas_cd": ("sweep", [(("alphas_sc",), [0.5, 0.5]), (("alphas_cd",), [0.5] * 1010)],
                             "'alphas_cd'"),
    "sweep 1010 alphas_sc": ("sweep", [(("alphas_sc",), [0.5] * 1010)], "'alphas_sc'"),
    "sweep n 'x'": ("sweep", [(("n",), "x")], "'n'"),
    "sweep seed -1": ("sweep", [(("seed",), -1)], "'seed'"),
    "top-level []": ("scenario", [((), [])], "'config' must be a JSON object"),
    # a tick at or after 600 * 2**32 s has no 32-bit GAEN interval number: a traceback
    "duration past the interval numbers": ("scenario", [(("world", "tick"), 10**12),
                                                        (("world", "duration"), 5 * 10**12),
                                                        (("nodes", 0, "diagnosed_at"), None)],
                                           "'world.duration'"),
    # the default output directory is out/<name>: these wrote outside it or into out/
    "name '../escaped'": ("scenario", [(("name",), "../escaped")], "'name'"),
    "name ''": ("scenario", [(("name",), "")], "'name'"),
    "name with a backslash": ("scenario", [(("name",), "a\\b")], "'name'"),
    # without --out, mkdir raised ValueError (embedded null byte): a traceback
    "name with NUL": ("scenario", [(("name",), "a\0b")], "'name'"),
    # JSON's "\ud800" is a lone surrogate, which UTF-8 cannot encode: the name's print
    # and the node id's seed hash raised UnicodeEncodeError, a traceback
    "name with a lone surrogate": ("scenario", [(("name",), "a\ud800")], "'name'"),
    "node id with a lone surrogate": ("scenario", [(("nodes", 0, "id"), "\ud800")],
                                      "'nodes[0].id'"),
    "sweep name '.'": ("sweep", [(("name",), ".")], "'name'"),
    "sweep name '..'": ("sweep", [(("name",), "..")], "'name'"),
    "sweep name 'a/b'": ("sweep", [(("name",), "a/b")], "'name'"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_exits_2_naming_field(case, tmp_path, capsys):
    base, edits, expected = INVALID_CONFIGS[case]
    raw = scenarios.baseline_no_attack() if base == "scenario" else SMALL_SWEEP
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_edited(raw, edits)))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert expected in capsys.readouterr().err


def test_longest_alphas_load():
    raw = dict(SMALL_SWEEP, alphas_sc=[0.5] * 1009, alphas_cd=[i / 1008 for i in range(1009)])
    params = engine.load_config(raw).params
    assert len(params["alphas_sc"]) == len(params["alphas_cd"]) == 1009


def test_longest_duration_runs(tmp_path):
    # the last tick, 600 * 2**31 s, is in interval 2**31; 600 * 2**32 itself is never a tick
    raw = _edited(scenarios.baseline_no_attack(), [(("world", "tick"), 600 * 2**31),
                                                   (("world", "duration"), 600 * 2**32),
                                                   (("nodes", 0, "diagnosed_at"), None)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("path_loss", [
    {"ref_rssi_at_1m": 1.7976931348623157e308, "exponent": 10, "noise_sigma": 100},
    {"ref_rssi_at_1m": -1.7976931348623157e308, "exponent": 10, "noise_sigma": 100},
    {"ref_rssi_at_1m": -41.0, "exponent": 5e-324, "noise_sigma": 0},
], ids=["max ref", "min ref", "least exponent"])
def test_accepted_path_loss_extremes_write_finite_rssi(path_loss, tmp_path):
    # co-located (clamped to MIN_DISTANCE_M), 1 m apart and exactly at the radio range,
    # at both ends of tx_power
    raw = small_scenario(nodes=[
        {"id": "a", "app": True, "tx_power": 127, "trajectory": [[0, 0.0, 0.0]]},
        {"id": "b", "app": True, "tx_power": -128, "trajectory": [[0, 0.0, 0.0]]},
        {"id": "c", "app": True, "trajectory": [[0, 1.0, 0.0]]},
        {"id": "d", "deputy": True, "trajectory": [[0, 50.0, 0.0]]},
    ])
    raw["world"].update(duration=60, path_loss=path_loss)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def not_json(name):
        raise AssertionError(f"events.jsonl holds {name}")

    lines = (tmp_path / "o" / "events.jsonl").read_text().splitlines()
    assert len(lines) == 60 * 3 * 3
    assert all(abs(json.loads(line, parse_constant=not_json)["rssi"]) <= 1.7976931348623157e308
               for line in lines)


def test_integer_coordinates_far_apart_run(tmp_path):
    # a and b are 2 * 10**308 apart, an exact int difference too large for a float: the
    # distance is infinite, beyond any range; c hears a 1 m away
    raw = small_scenario(nodes=[
        {"id": "a", "app": True, "trajectory": [[0, 10**308, 0]]},
        {"id": "b", "app": True, "trajectory": [[0, -10**308, 0]]},
        {"id": "c", "app": True, "trajectory": [[0, 10**308, 1]]},
    ])
    raw["world"].update(duration=60, radio_range_max=1e308)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "events.jsonl").read_text().splitlines()
    assert {json.loads(line)["receiver"] for line in lines} == {"a", "c"}
    assert len(lines) == 60 * 2


def _paths(doc, path=()):
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


FUZZ_BASES = [
    small_scenario(),
    small_scenario(
        nodes=[
            {"id": "a", "app": True, "tx_power": 0, "trajectory": [[0, 0.0, 0.0], [600, 1.0, 0.0]],
             "infected_at": 0, "diagnosed_at": 1200},
            {"id": "b", "app": True, "deputy": False, "trajectory": [[0, 1.0, 0.0]]},
            {"id": "d", "deputy": True, "trajectory": [[0, 0.5, 1.0]]},
        ],
        attack={"harvest_zones": [[-5.0, -5.0, 5.0, 5.0]], "target_zones": [[-5.0, -5.0, 5.0, 5.0]],
                "tamper_mask_hex": "00f80000", "relay_latency": 5, "collect_all": False,
                "relay_window": [0, 7200], "replay_horizon": 600, "max_relays_per_deputy": 1,
                "relay_mac": "f0:0d:00:00:00:01"},
        injections=[{"t": 3, "receiver": "b", "payload_hex": PAYLOAD_HEX,
                     "mac": "AB:B1:E9:9E:1B:BA", "rssi": -12.0}],
    ),
    SMALL_SWEEP,
]
# each mutation drops one key, replaces one value (leaf or container) or adds an unknown key
FUZZ_MUTATIONS = [
    (i, op, path)
    for i, base in enumerate(FUZZ_BASES)
    for path, value in _paths(base)
    for op in ("drop", "replace", "add")
    if (op == "drop" and path and isinstance(path[-1], str))
    or (op == "replace" and path)
    or (op == "add" and isinstance(value, dict))
]
# no value above 300, so every accepted config stays a short run
FUZZ_VALUES = [None, True, "x", -1, 0, 0.5, 1.5, 300, [], {}, [0, 1]]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FUZZ_MUTATIONS), st.sampled_from(FUZZ_VALUES))
def test_config_fuzz_exits_0_or_2(mutation, value):
    i, op, path = mutation
    doc = copy.deepcopy(FUZZ_BASES[i])
    if op == "add":
        doc = _edited(doc, [(path + ("unknown_key",), value)])
    elif op == "replace":
        doc = _edited(doc, [(path, value)])
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "--out", str(Path(tmp) / "o")]) in (0, 2)


def test_seed_override_changes_artifacts(tmp_path, capsys):
    main(["run", "baseline_no_attack", "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", "baseline_no_attack", "--out", str(tmp_path / "b"), "--seed", "2"])
    assert ((tmp_path / "a" / "events.jsonl").read_bytes()
            != (tmp_path / "b" / "events.jsonl").read_bytes())


@pytest.mark.parametrize("command, work", [
    (["run", "baseline_no_attack"], "run_scenario"),
    (["sweep", "SWEEP"], "coverage_mod.sweep"),
    (["vectors", "--count", "3", "--seed", "0"], "crypto.generate_test_vectors"),
])
def test_out_naming_a_file_exits_2_before_any_work(command, work, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{work} ran although --out cannot be created")

    monkeypatch.setattr(f"ensim.cli.{work}", must_not_run)
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(SMALL_SWEEP))
    out = tmp_path / "F"
    out.write_text("")
    argv = [str(sweep_cfg) if arg == "SWEEP" else arg for arg in command]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--out", str(out)])
    assert exit_.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert out.read_text() == ""


@pytest.mark.parametrize("command, artifact", [
    (["run", "baseline_no_attack"], "events.jsonl"),
    (["run", "baseline_no_attack"], "dossiers.json"),
    (["sweep", "SWEEP"], "coverage.csv"),
    (["vectors", "--count", "3", "--seed", "0"], "test_vectors.jsonl"),
])
def test_unwritable_artifact_exits_2_naming_path(command, artifact, tmp_path, capsys):
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(SMALL_SWEEP))
    out = tmp_path / "D"
    (out / artifact).mkdir(parents=True)
    argv = [str(sweep_cfg) if arg == "SWEEP" else arg for arg in command]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err
    assert str(out / artifact) in err


class TestVectors:
    def test_count_and_fields(self, tmp_path, capsys):
        assert main(["vectors", "--count", "10", "--seed", "3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "test_vectors.jsonl").read_text().strip().splitlines()
        assert len(lines) == 10
        v = json.loads(lines[0])
        assert list(v) == ["tek_hex", "interval", "rpik_hex", "rpi_hex",
                           "aemk_hex", "meta_hex", "aem_hex"]

    def test_byte_identical_under_same_seed(self, tmp_path, capsys):
        main(["vectors", "--count", "25", "--seed", "9", "--out", str(tmp_path / "a")])
        main(["vectors", "--count", "25", "--seed", "9", "--out", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "test_vectors.jsonl").read_bytes()
                == (tmp_path / "b" / "test_vectors.jsonl").read_bytes())

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_count_exits_2_naming_option(self, count, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["vectors", "--count", count, "--seed", "3", "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert "--count" in capsys.readouterr().err
        assert not (tmp_path / "test_vectors.jsonl").exists()

    def test_vectors_validate_against_reference(self, tmp_path, capsys):
        main(["vectors", "--count", "50", "--seed", "21", "--out", str(tmp_path)])
        for line in (tmp_path / "test_vectors.jsonl").read_text().splitlines():
            v = json.loads(line)
            tek = bytes.fromhex(v["tek_hex"])
            rpik = ref.ref_rpik(tek)
            aemk = ref.ref_aemk(tek)
            rpi = ref.ref_rpi(rpik, v["interval"])
            assert rpik.hex() == v["rpik_hex"]
            assert aemk.hex() == v["aemk_hex"]
            assert rpi.hex() == v["rpi_hex"]
            assert ref.ref_aem(aemk, rpi, bytes.fromhex(v["meta_hex"])).hex() == v["aem_hex"]
