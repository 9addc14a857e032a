import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ensim import beacon, coverage, crypto, device, engine, radio, scenarios
from ensim.engine import ScenarioConfig, ScenarioError, run_scenario, write_outputs

REPO = Path(__file__).resolve().parents[1]


def small_scenario(**overrides):
    raw = {
        "schema_version": 1,
        "kind": "scenario",
        "name": "mini",
        "seed": 5,
        "world": {"tick": 1, "duration": 1500, "radio_range_max": 50.0,
                  "path_loss": {"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 0.0}},
        "matching": {"tolerance": 7200, "attenuation_threshold": 55.0, "duration_threshold": 900},
        "nodes": [
            {"id": "a", "app": True, "trajectory": [[0, 0.0, 0.0]],
             "infected_at": 0, "diagnosed_at": 1200},
            {"id": "b", "app": True, "trajectory": [[0, 1.0, 0.0]]},
        ],
        "attack": None,
        "injections": [],
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_missing_seed_names_field(self):
        raw = small_scenario()
        del raw["seed"]
        with pytest.raises(ScenarioError, match="'seed'"):
            ScenarioConfig.from_dict(raw)

    def test_missing_name(self):
        raw = small_scenario()
        del raw["name"]
        with pytest.raises(ScenarioError, match="'name'"):
            ScenarioConfig.from_dict(raw)

    def test_non_integer_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            ScenarioConfig.from_dict(small_scenario(seed="abc"))

    def test_duplicate_node_id(self):
        raw = small_scenario()
        raw["nodes"].append({"id": "a", "trajectory": [[0, 9.0, 9.0]]})
        with pytest.raises(ScenarioError, match="duplicate"):
            ScenarioConfig.from_dict(raw)

    def test_diagnosed_without_app(self):
        raw = small_scenario()
        raw["nodes"].append({"id": "c", "trajectory": [[0, 9.0, 9.0]], "diagnosed_at": 10})
        with pytest.raises(ScenarioError, match="diagnosed_at"):
            ScenarioConfig.from_dict(raw)

    def test_unknown_injection_receiver(self):
        raw = small_scenario(injections=[
            {"t": 0, "receiver": "ghost", "payload_hex": "", "mac": "00:00:00:00:00:00"}])
        with pytest.raises(ScenarioError, match="ghost"):
            ScenarioConfig.from_dict(raw)

    def test_misaligned_duration(self):
        raw = small_scenario()
        raw["world"]["tick"] = 7
        with pytest.raises(ScenarioError, match="'world.duration'"):
            ScenarioConfig.from_dict(raw)

    def test_bad_tamper_mask(self):
        raw = small_scenario(attack={"tamper_mask_hex": "00f8", "target_zones": []})
        with pytest.raises(ScenarioError, match="attack"):
            ScenarioConfig.from_dict(raw)

    def test_round_trip_through_dict(self):
        for name, builder in scenarios.BUILDERS.items():
            raw = builder()
            if raw.get("kind") != "scenario":
                continue
            cfg = ScenarioConfig.from_dict(raw)
            assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg, name


SCENARIO_TABLES = (engine.SCENARIO_FIELDS, engine.WORLD_FIELDS, engine.PATH_LOSS_FIELDS,
                   engine.MATCHING_FIELDS, engine.NODE_FIELDS, engine.ATTACK_FIELDS,
                   engine.INJECTION_FIELDS)


def test_readme_schema_block_matches_field_tables():
    readme = (REPO / "README.md").read_text()
    block = readme.split("```jsonc", 1)[1].split("```", 1)[0]
    assert set(re.findall(r'"(\w+)"\s*:', block)) == set().union(*SCENARIO_TABLES)


def test_readme_sweep_and_required_keys_match_field_tables():
    readme = (REPO / "README.md").read_text()
    sweep = readme.split("Sweep configs:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)", sweep))
    assert engine.SWEEP_FIELDS.keys() - {"schema_version", "kind"} <= named
    # up to the first full stop: `world.duration` names `world` and its `duration`
    sentence = re.split(r"\.\s", readme.split("Required keys:", 1)[1], maxsplit=1)[0]
    keys = [k for name in re.findall(r"`([\w.]+)`", sentence) for k in name.split(".")]
    required = [k for table in SCENARIO_TABLES for k, check in table.items()
                if isinstance(check, engine.required)]
    assert sorted(keys) == sorted(required)


def _defaults(cls) -> dict:
    return dict(cls._field_defaults)


def _attack_defaults() -> dict:
    defaults = _defaults(engine.AttackPolicy)
    mask = defaults.pop("tamper_mask")
    return dict(defaults, tamper_mask_hex=mask and mask.hex())


# each table with the defaults its absent keys take: the owning value type's fields, or
# coverage.sweep's keyword arguments
TABLE_DEFAULTS = {
    "path_loss": (engine.PATH_LOSS_FIELDS, _defaults(engine.PathLoss)),
    "world": ({k: v for k, v in engine.WORLD_FIELDS.items() if k != "path_loss"},
              _defaults(engine.WorldConfig)),
    "matching": (engine.MATCHING_FIELDS, _defaults(engine.MatchingParams)),
    "node": (engine.NODE_FIELDS, _defaults(engine.NodeSpec)),
    "attack": (engine.ATTACK_FIELDS, _attack_defaults()),
    "injection": (engine.INJECTION_FIELDS, _defaults(engine.InjectionSpec)),
    "sweep": ({k: v for k, v in engine.SWEEP_FIELDS.items()
               if k not in ("schema_version", "kind", "name")},
              {name: p.default for name, p in inspect.signature(coverage.sweep).parameters.items()
               if p.default is not p.empty}),
}


@pytest.mark.parametrize("name", sorted(TABLE_DEFAULTS))
def test_every_default_passes_its_table_row(name):
    # the tables are the only check, so a default is the one value that never meets its row
    table, defaults = TABLE_DEFAULTS[name]
    optional = {key for key, check in table.items() if not isinstance(check, engine.required)}
    assert optional <= defaults.keys(), "an optional row without a default"
    for key in table.keys() & defaults.keys():
        table[key](defaults[key], f"{name}.{key}")


def test_benchmark_and_bundled_configs_parse():
    # strict validation must never reject a config the benchmark runs
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in range(3):
        for raw in (workloads.crowd(seed), workloads.relay(seed)):
            assert isinstance(engine.load_config(raw), ScenarioConfig)
    for name, build in scenarios.BUILDERS.items():
        cfg = engine.load_config(build())
        assert cfg.name == name
        assert isinstance(cfg, engine.SweepConfig) == (name == "coverage_sweep")


def test_bundled_files_match_builders():
    # scenarios/ holds exactly the builders as scripts/make_scenarios.py writes them
    folder = REPO / "scenarios"
    assert sorted(p.name for p in folder.iterdir()) == sorted(
        f"{name}.json" for name in scenarios.BUILDERS), "run scripts/make_scenarios.py"
    for name, builder in scenarios.BUILDERS.items():
        on_disk = (folder / f"{name}.json").read_text()
        assert on_disk == json.dumps(builder(), indent=2) + "\n", (
            f"{name}: run scripts/make_scenarios.py")


class TestBaselineRun:
    def test_genuine_contact_notified(self):
        result = run_scenario(ScenarioConfig.from_dict(small_scenario()))
        rows = result.notification_rows
        assert [r["device_id"] for r in rows] == ["b"]
        assert rows[0]["ground_truth_contact"] is True
        assert rows[0]["duration_s"] == 1500

    def test_bundled_baseline_no_false_positives(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.baseline_no_attack()))
        assert all(r["ground_truth_contact"] for r in result.notification_rows)
        assert {r["device_id"] for r in result.notification_rows} == {"bob"}

    def test_visibility_from_run(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.reidentification()))
        vis = result.visibility()
        assert vis.infected_total == 1
        assert vis.attacker_known == 1  # published and harvested


class TestLazyStudent:
    def test_whole_class_falsely_notified(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.lazy_student()))
        notified = {r["device_id"] for r in result.notification_rows}
        assert notified == {"s01", "s02", "s03", "s04"}
        assert all(not r["ground_truth_contact"] for r in result.notification_rows)

    def test_direct_exposure_alone_too_short(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.lazy_student()))
        direct = {r["device_id"]: r["direct_duration_s"] for r in result.notification_rows}
        for sid in ("s01", "s02", "s03", "s04"):
            assert 0 < direct[sid] < 900


class TestGroundTruthPerKey:
    def test_contact_on_another_day_does_not_count(self):
        # alice sits 1 m from bob for 1,200 s on day 0, then leaves; on day 1 she
        # spends 120 s beside the hospital deputy, and her harvested identifiers
        # are relayed 1.5 m from bob, 1 km away, for about 2 h
        day = crypto.INTERVALS_PER_DAY * crypto.INTERVAL_SECONDS
        away = [5000.0, 5000.0]
        raw = small_scenario(name="two_days", nodes=[
            {"id": "alice", "app": True, "infected_at": day, "diagnosed_at": day + 600,
             "trajectory": [[0, 1001.0, 0.0], [1200, *away], [day, 0.0, 2.0],
                            [day + 120, *away]]},
            {"id": "bob", "app": True, "trajectory": [[0, 1000.0, 0.0]]},
            {"id": "dep_hospital", "deputy": True, "trajectory": [[0, 0.0, 0.0]]},
            {"id": "dep_target", "deputy": True, "trajectory": [[0, 1000.0, 1.5]]},
        ], attack={
            "harvest_zones": [[-5.0, -5.0, 5.0, 5.0]],
            "target_zones": [[995.0, -5.0, 1005.0, 5.0]],
            "relay_latency": 5,
        })
        raw["world"]["duration"] = day + 3 * 3600
        result = run_scenario(ScenarioConfig.from_dict(raw))
        rows = {r["day"]: r for r in result.notification_rows}
        assert [r["device_id"] for r in result.notification_rows] == ["bob", "bob"]
        assert rows[0]["ground_truth_contact"] is True
        assert rows[1]["ground_truth_contact"] is False  # every matched tick was relayed
        assert rows[0]["direct_duration_s"] == rows[0]["duration_s"] == 1200
        assert rows[1]["direct_duration_s"] == 0 and rows[1]["duration_s"] >= 900


class TestAttackStructure:
    def test_relay_decisions_consume_only_deputy_uploads(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.hospital_replay()))
        deputies = set(result.deputies)
        plan = result.attacker.plan
        assert len(plan)
        for e in plan.columns()[1].tolist():
            entry = plan.keys[e]
            assert entry["source_deputy"] in deputies
            assert entry["deputy"] in deputies

    def test_every_relay_emission_originates_from_deputy(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.hospital_replay()))
        # every row has a link, and every link a row: its first hearing
        relay_links = [link for link in result.world.events.keys if link.relay]
        assert relay_links
        assert {link.emitter for link in relay_links} <= set(result.deputies)

    def test_rows_are_heard_at_the_senders_true_power(self):
        # the carrier sends at 3 dBm and every other app node at 0; the factory
        # deputy re-emits the carrier's frames, which claim 3 dBm, at its own -6
        power = {"carrier": 3, "dep_factory": -6}
        raw = scenarios.hospital_replay()
        raw["world"]["path_loss"]["noise_sigma"] = 0.0
        for node in raw["nodes"]:
            node["tx_power"] = power.get(node["id"], 0)
        cfg = ScenarioConfig.from_dict(raw)
        nodes = {n.id: n for n in cfg.world.nodes}
        log = run_scenario(cfg).world.events
        heard = Counter()
        for t, link_id, rssi in zip(*(column.tolist() for column in log.columns())):
            link = log.keys[link_id]
            ex, ey = nodes[link.emitter].position(t)
            d = math.hypot(link.rx[0] - ex, link.rx[1] - ey)
            assert rssi == radio.propagate(power.get(link.emitter, 0), d, cfg.world.path_loss,
                                           cfg.world.radio_range_max)
            heard[link.emitter, link.relay] += 1
        assert heard["carrier", False] and heard["dep_factory", True]
        assert {emitter for emitter, relay in heard if relay} == {"dep_factory"}

    def test_window_respected_in_plan(self):
        result = run_scenario(ScenarioConfig.from_dict(scenarios.hospital_replay()))
        plan = result.attacker.plan
        assert len(plan)
        for t, e in zip(*(column.tolist() for column in plan.columns()[:2])):
            assert t <= plan.keys[e]["deadline_t"]

    def test_relay_machinery_is_blind(self, monkeypatch):
        # no diagnosis ever happens: the whole harvest+tamper+relay pipeline
        # must run without touching decryption or key regeneration
        def boom(*a, **k):
            raise AssertionError("key material touched by relay path")
        monkeypatch.setattr(crypto, "decrypt_aem", boom)
        monkeypatch.setattr(crypto, "regenerate_day", boom)
        raw = scenarios.tamper_range_extension()
        for node in raw["nodes"]:
            node.pop("diagnosed_at", None)
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert any(link.relay for link in result.world.events.keys)
        assert result.notification_rows == []


class TestSingleHearing:
    def test_one_tick_harvest_supports_relay(self):
        # carrier in deputy range for exactly one tick; victim notified later
        raw = small_scenario(name="blink", nodes=[
            {"id": "carrier", "app": True, "infected_at": 0, "diagnosed_at": 1700,
             "trajectory": [[0, 500.0, 500.0], [10, 0.0, 1.0], [11, 500.0, 500.0]]},
            {"id": "dep_h", "deputy": True, "trajectory": [[0, 0.0, 0.0]]},
            {"id": "dep_t", "deputy": True, "trajectory": [[0, 200.0, 0.0]]},
            {"id": "victim", "app": True, "trajectory": [[0, 200.0, 1.0]]},
        ], attack={
            "harvest_zones": [[-5.0, -5.0, 5.0, 5.0]],
            "target_zones": [[195.0, -5.0, 205.0, 5.0]],
            "relay_latency": 5,
        })
        raw["world"]["duration"] = 1800
        result = run_scenario(ScenarioConfig.from_dict(raw))
        server = result.attacker
        carrier_hearings = [row for row in server.db.tolist()
                            if server.record(row).deputy_id == "dep_h"]
        assert len(carrier_hearings) == 1
        assert [r["device_id"] for r in result.notification_rows] == ["victim"]
        assert result.notification_rows[0]["ground_truth_contact"] is False


class TestInjection:
    INJECTED_MAC = "AB:B1:E9:9E:1B:BA"

    def test_injected_sentinel_reaches_device_log(self):
        sentinel_payload = "02011a03036ffd17166ffdf252a8a76c6012a86337d54f914b53b5ed12161b"
        raw = small_scenario(injections=[{
            "t": 3, "receiver": "b", "payload_hex": sentinel_payload,
            "mac": "AB:B1:E9:9E:1B:BA", "rssi": -12.0,
        }])
        result = run_scenario(ScenarioConfig.from_dict(raw))
        dev = result.devices["b"]
        log, rows = dev.log, dev.sightings.tolist()
        macs = {log.keys[log.at(row)[1]].mac for row in rows}
        assert "AB:B1:E9:9E:1B:BA" in macs
        hits = [row for row in rows if log.keys[log.at(row)[1]].mac == "AB:B1:E9:9E:1B:BA"]
        assert len(hits) == 1
        assert log.value[hits[0]] == -12.0

    def _with_deputy(self, injections):
        """small_scenario with a deputy "d" out of everyone's range, an attack
        that only harvests, and `injections` (rssi given) of a's frame at t=3."""
        raw = small_scenario()
        result = run_scenario(ScenarioConfig.from_dict(raw))
        log = result.world.events
        payload = next(link.payload for link in log.keys if link.emitter == "a")
        raw["nodes"].append({"id": "d", "deputy": True, "trajectory": [[0, 1000.0, 0.0]]})
        raw["attack"] = {"target_zones": []}
        raw["injections"] = [{"t": 3, "receiver": receiver, "payload_hex": payload.hex(),
                              "mac": self.INJECTED_MAC, "rssi": rssi}
                             for receiver, rssi in injections]
        return run_scenario(ScenarioConfig.from_dict(raw))

    def _injected_lines(self, path):
        return [line for line in path.read_text().splitlines() if self.INJECTED_MAC in line]

    def test_int_rssi_is_written_as_float(self, tmp_path):
        write_outputs(self._with_deputy([("b", -12), ("d", -12)]), tmp_path)
        lines = self._injected_lines(tmp_path / "events.jsonl")
        assert len(lines) == 2
        assert all('"rssi": -12.0,' in line for line in lines)

    def test_int_rssi_has_one_value_everywhere(self, tmp_path):
        # 2**53 + 1 has no float; the column holds the nearest, 2**53
        result = self._with_deputy([("d", 9007199254740993)])
        log = result.world.events
        row, = [row for row, link_id in enumerate(log.columns()[1].tolist())
                if log.keys[link_id].mac == self.INJECTED_MAC]
        assert log.columns()[2][row].item() == 9007199254740992.0  # what matching reads
        record = result.attacker.record(row)
        assert type(record.rssi) is float and record.rssi == 9007199254740992.0
        write_outputs(result, tmp_path)
        line, = self._injected_lines(tmp_path / "events.jsonl")
        assert '"rssi": 9007199254740992.0,' in line
        sightings = [s for d in json.loads((tmp_path / "dossiers.json").read_text())
                     for s in d["sightings"] if s["mac"] == self.INJECTED_MAC]
        assert [(type(s["rssi"]), s["rssi"]) for s in sightings] == [(float, 9007199254740992.0)]


def test_run_does_not_import_numpy_ma(tmp_path):
    """A run that raises a notification and a noisy run, each writing its
    artifacts, leave `numpy.ma` and `numpy.random` unimported: nothing needs
    them, importing `numpy.ma` takes 10-20 ms of the run and importing
    `numpy.random` adds about 2.5 MB to its peak memory."""
    code = ("import sys; from ensim import engine, scenarios; "
            "r = engine.run_scenario(engine.ScenarioConfig.from_dict("
            "scenarios.baseline_no_attack())); "
            "assert r.notification_rows; "
            f"engine.write_outputs(r, {str(tmp_path / 'plain')!r}); "
            "raw = scenarios.tamper_range_extension(); "
            "raw['world']['path_loss']['noise_sigma'] = 4.0; "
            "r = engine.run_scenario(engine.ScenarioConfig.from_dict(raw)); "
            f"engine.write_outputs(r, {str(tmp_path / 'noisy')!r}); "
            "print(sorted({'numpy.ma', 'numpy.random'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"),
                                                      os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestDeterminism:
    def test_same_config_same_artifacts(self, tmp_path):
        raw = scenarios.tamper_range_extension()
        for sub in ("one", "two"):
            result = run_scenario(ScenarioConfig.from_dict(raw))
            write_outputs(result, tmp_path / sub)
        files = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert files == ["attack_plan.jsonl", "dossiers.json", "events.jsonl",
                         "notifications.csv", "published_teks.jsonl"]
        for name in files:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_seed_changes_event_log(self):
        r1 = run_scenario(ScenarioConfig.from_dict(small_scenario(seed=1)))
        r2 = run_scenario(ScenarioConfig.from_dict(small_scenario(seed=2)))
        def contents(log):
            return [column.tobytes() for column in log.columns()], log.keys

        assert contents(r1.world.events) != contents(r2.world.events)


class TestDiagnosisAtStart:
    def test_diagnosed_at_zero_publishes_todays_key(self):
        raw = small_scenario()
        raw["nodes"][0]["diagnosed_at"] = 0
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert [e.publication_time for e in result.published] == [0]
        assert result.published[0].tek == result.devices["a"].current_tek
        rows = result.notification_rows
        assert [r["device_id"] for r in rows] == ["b"]
        assert rows[0]["ground_truth_contact"] is True


class TestComputeOnce:
    """Each crypto and codec result is computed once per distinct input."""

    def test_call_counts_two_devices(self, monkeypatch):
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("encrypt_aem", "decrypt_aem", "regenerate_day"):
            count(crypto, name)
        count(beacon, "decode")
        # a is diagnosed at 1200 s; all three hear each other for 1500 s
        raw = small_scenario()
        raw["nodes"].append({"id": "c", "app": True, "trajectory": [[0, 0.0, 1.0]]})
        result = run_scenario(ScenarioConfig.from_dict(raw))
        intervals = 3  # 0-599, 600-1199, 1200-1499
        assert calls["encrypt_aem"] == len(result.devices) * intervals
        # the one identifier index of the run regenerates each published key once
        assert calls["regenerate_day"] == len(result.published) == 1
        # each distinct payload of the run is decoded once, however many devices
        # heard it (each frame here is heard by two)
        distinct_payloads = {link.payload for link in result.world.events.keys}
        assert calls["decode"] == len(distinct_payloads) == len(result.devices) * intervals
        # b and c decrypt each of a's frames once; a hears only unpublished keys
        assert calls["decrypt_aem"] == 2 * intervals

    @pytest.mark.parametrize("name", ["lazy_student", "hospital_replay"])
    def test_attack_runs_decode_each_payload_once(self, name, monkeypatch):
        # the harvest and matching read one decode of each distinct payload of
        # the log; in lazy_student one node is both an app device and a deputy
        decode, calls = beacon.decode, Counter()

        def counted(payload, mac):
            calls[payload] += 1
            return decode(payload, mac)

        monkeypatch.setattr(beacon, "decode", counted)
        result = run_scenario(ScenarioConfig.from_dict(getattr(scenarios, name)()))
        assert result.attacker.harvest_links and result.published
        distinct_payloads = {link.payload for link in result.world.events.keys}
        assert set(calls) == distinct_payloads
        assert sum(calls.values()) == len(distinct_payloads)

    def test_each_frame_made_once(self, monkeypatch):
        # a device's frame is made when its identifier rotates, a relay
        # candidate's when it is harvested; every lazy_student candidate is relayed
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        count(crypto, "encrypt_aem")
        count(beacon, "encode_gaen")
        result = run_scenario(ScenarioConfig.from_dict(scenarios.lazy_student()))
        device_intervals = sum(len(dev.mac_history) for dev in result.devices.values())
        candidates = result.attacker._relay_candidates
        assert calls["encrypt_aem"] == device_intervals
        assert calls["encode_gaen"] == device_intervals + len(candidates)
        plan = result.attacker.plan
        assert ({plan.keys[e]["rpi_hex"] for e in plan.columns()[1].tolist()}
                == {rpi.hex() for rpi in candidates})

    def test_world_steps_the_devices_own_emissions(self, monkeypatch):
        # a device's frame is the Emission the world takes, not a copy made per step
        broadcast, step = device.broadcast_current, radio.World.step
        made, sent = [], []  # both hold their emissions, so no two share an id

        def recorded(state, t):
            made.append(broadcast(state, t))
            return made[-1]

        def stepped(world, t, emissions, **kwargs):
            sent.extend(em for em in emissions if not em.relay)
            return step(world, t, emissions, **kwargs)

        monkeypatch.setattr(device, "broadcast_current", recorded)
        monkeypatch.setattr(radio.World, "step", stepped)
        result = run_scenario(ScenarioConfig.from_dict(scenarios.lazy_student()))
        assert any(link.relay for link in result.world.events.keys)
        assert sent and {id(em) for em in sent} == {id(em) for em in made}

    def test_relay_encodes_each_identifier_once(self, monkeypatch):
        calls = Counter()
        encode_gaen = beacon.encode_gaen

        def counted(*args):
            calls["encode_gaen"] += 1
            return encode_gaen(*args)

        monkeypatch.setattr(beacon, "encode_gaen", counted)
        result = run_scenario(ScenarioConfig.from_dict(scenarios.targeted_replay()))
        plan = result.attacker.plan
        relayed = {plan.keys[e]["rpi_hex"] for e in plan.columns()[1].tolist()}
        assert len(plan) > len(relayed) > 0
        device_intervals = sum(len(dev.mac_history) for dev in result.devices.values())
        assert calls["encode_gaen"] == device_intervals + len(relayed)
