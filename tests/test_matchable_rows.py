"""Differential test: a run matches and re-identifies from the rows that can
match, and gets what matching over every row would.

`engine._result` hands each device only its rows of links whose identifier
is published, and `AttackerServer.reidentify` splits only the harvested rows
whose identifier is published. Here every device's notifications
(`direct_duration` included) are recomputed by reference_matching.py over
every row the device heard (`DeviceState.sightings`, found when read), and
the dossiers over every harvested row. The configs are those of
test_engine_oracle.py, plus the cases the filter could get wrong: injected
rows of a published and of an unknown payload, relayed published
identifiers, a device hearing its own key, and a key published twice.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import reference_matching
import reference_radio
from ensim import beacon, crypto, engine, radio
from ensim.diagnosis import DiagnosisServer
from test_engine_oracle import CASES, scenario, span_configs

VISITOR = "visitor0"  # diagnosed; its frames are harvested and relayed to the workers


def reference_rows(result) -> list:
    """`result.notification_rows` as matching over every row each device heard gives them."""
    log = result.world.events
    every = log.group(lambda link_id: log.keys[link_id].receiver, np.arange(len(log)))
    teks = [e.tek for e in result.published]
    rows = []
    for nid in sorted(result.devices):
        dev = result.devices[nid]
        heard = every.get(nid, radio.NO_ROWS)
        assert np.array_equal(dev.sightings, heard)
        state = SimpleNamespace(sightings=reference_radio.sightings(log, heard),
                                tek_history=dev.tek_history, current_tek=dev.current_tek)
        direct = [log.keys[link_id].direct for link_id in log.decode(heard)[1].tolist()]
        for note in reference_matching.match_exposures(state, teks, result.config.matching, direct):
            rows.append({
                "device_id": nid,
                "tek_hex": note.matched_tek.key.hex(),
                "day": note.day,
                "duration_s": note.cumulative_duration,
                "min_attenuation_db": note.min_attenuation,
                "direct_duration_s": note.direct_duration,
                "ground_truth_contact": note.direct_duration >= result.config.matching.duration_threshold,
            })
    return rows


def reference_dossiers(result) -> list:
    """`result.dossiers` as the join over every harvested row gives them."""
    server = result.attacker
    if server is None:
        return []
    log = server.log
    kept = [row for row, link_id in enumerate(log.columns()[1].tolist())
            if link_id in server.harvest_links]
    return reference_matching.reidentify(
        SimpleNamespace(db=list(map(server.record, kept)), policy=server.policy), result.published)


def assert_matches_every_row(raw):
    result = engine.run_scenario(engine.ScenarioConfig.from_dict(copy.deepcopy(raw)))
    assert result.notification_rows == reference_rows(result)
    assert reference_radio.same(result.dossiers, reference_dossiers(result))
    return result


def payload_of(node_id) -> str:
    """The payload of `node_id`'s first broadcast in the default scenario."""
    log = engine.run_scenario(engine.ScenarioConfig.from_dict(scenario())).world.events
    return next(link.payload for link in log.keys if link.emitter == node_id).hex()


def _inject(t, receiver, payload_hex):
    return {"t": t, "receiver": receiver, "payload_hex": payload_hex,
            "mac": "02:00:00:00:00:77", "rssi": -20.0}


def edge_cases() -> dict:
    published = payload_of(VISITOR)
    return {
        "injected_published_and_unknown": scenario(injections=[
            _inject(105, "worker0", published), _inject(105, "worker1", "00" * 31),
            _inject(301, "dep_h0", published), _inject(301, "dep_h1", "00" * 31)]),
        "hears_own_key": scenario(injections=[
            _inject(t, VISITOR, published) for t in range(0, 1400, 7)]),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_oracle_configs(name):
    assert_matches_every_row(CASES[name])


@pytest.mark.parametrize("name", ["injected_published_and_unknown", "hears_own_key"])
def test_edge_cases(name):
    result = assert_matches_every_row(edge_cases()[name])
    if name == "hears_own_key":  # a key is never matched by its own owner
        own = {tek.key.hex() for tek in result.devices[VISITOR].tek_history
               + [result.devices[VISITOR].current_tek]}
        assert own & {e.tek.key.hex() for e in result.published}
        assert not [r for r in result.notification_rows
                    if r["device_id"] == VISITOR and r["tek_hex"] in own]


def test_relayed_published_identifiers_match():
    result = assert_matches_every_row(scenario())
    log = result.world.events
    relayed = [log.keys[link_id].relay for link_id in log.columns()[1].tolist()]
    assert any(relayed)
    assert {r["device_id"] for r in result.notification_rows} & {"worker0", "worker1"}


def test_key_published_twice(monkeypatch):
    publish = DiagnosisServer.publish
    monkeypatch.setattr(DiagnosisServer, "publish",
                        lambda self, teks, t: publish(self, [*teks, *teks], t))
    result = assert_matches_every_row(scenario())
    keys = [e.tek.key for e in result.published]
    assert len(keys) == 2 * len(set(keys)) > 0
    assert any(row["tek_hex"] == other["tek_hex"]
               for i, row in enumerate(result.notification_rows)
               for other in result.notification_rows[i + 1:])


@settings(max_examples=25, deadline=None)
@given(span_configs())
def test_random_runs_match_every_row(raw):
    assert_matches_every_row(raw)


def allowed_rows(result) -> set:
    """The rows a run may split: app devices' rows of links whose identifier
    is published, and harvested rows whose identifier is published."""
    log = result.world.events
    published = {r.rpi for e in result.published for r in crypto.regenerate_day(e.tek)}
    harvested = result.attacker.harvest_links if result.attacker is not None else {}

    def carries_published(link):
        kind = beacon.decode(link.payload, link.mac).kind
        return isinstance(kind, beacon.Gaen) and kind.rpi in published

    keep = {link_id for link_id, link in enumerate(log.keys) if carries_published(link)
            and (link.receiver in result.devices or link_id in harvested)}
    return {row for row, link_id in enumerate(log.columns()[1].tolist()) if link_id in keep}


@pytest.mark.parametrize("name", ["tick7_float_waypoints", "injections_first_and_last_tick",
                                  "latency_0_window_uncapped_collect_all", "no_attack"])
def test_no_split_beyond_the_rows_that_can_match(name, monkeypatch):
    splits = []
    group = radio.ScanLog.group

    def recorded(log, key, rows=None, *key_ids):
        splits.append(None if rows is None else set(np.asarray(rows).tolist()))
        return group(log, key, rows, *key_ids)

    with monkeypatch.context() as patch:
        patch.setattr(radio.ScanLog, "group", recorded)
        result = engine.run_scenario(engine.ScenarioConfig.from_dict(copy.deepcopy(CASES[name])))
    allowed = allowed_rows(result)
    assert splits and None not in splits
    assert all(rows <= allowed for rows in splits)
    assert len(allowed) < len(result.world.events)
