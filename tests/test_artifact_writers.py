"""Differential test of the attacker's two artifacts on hand-made plans and
dossiers: `engine.write_outputs` renders attack_plan.jsonl once per plan group
and dossiers.json through the C encoder, and must write the bytes that
reference_artifacts.py writes with one stdlib json call per decision and one
`json.dump(indent=2)`. The cases are the values whose text a hand-rolled
renderer could get wrong: NaN, -0.0, int coordinates, quoted and non-ASCII
text, ticks of 7 s, and empty dossiers.
"""

import math
import random
from types import SimpleNamespace

import reference_artifacts
from ensim import crypto, engine
from ensim.attacker import AttackPolicy, AttackerServer, Zone
from ensim.device import DeviceState, broadcast_current
from ensim.diagnosis import PublishedTek
from ensim.radio import ScanLog, Sighting

HOSPITAL = Zone(-10, -10, 10, 10)
FACTORY = Zone(990, -10, 1010, 10)


def server_with(**policy):
    return AttackerServer(AttackPolicy(harvest_zones=(HOSPITAL,), target_zones=(FACTORY,), **policy))


def harvest(server, dev, t, deputy="hosp", loc=(0.0, 0.0), rssi=-40.0, mac=None):
    frame = broadcast_current(dev, t)
    server.deputy_on_scan(deputy, Sighting(frame.payload, mac or frame.mac, rssi, t, loc))


def plan(server, deputies):
    """Plan a group of four ticks and a group of one: the writer cuts the entries
    of every group around `t` and `age_s` and puts each tick's back, so a group
    of one tick is written the same way as a longer one."""
    server.select_relays(600, deputies)
    server.repeat_plan(600, range(601, 604))
    server.select_relays(700, deputies)
    assert [ticks for ticks, _entries in server.plan_log] == [range(600, 604), range(700, 701)]


def written(server, dossiers, tmp_path):
    """{name: (bytes write_outputs writes, bytes the reference writes)}."""
    result = SimpleNamespace(world=SimpleNamespace(events=ScanLog()), notification_rows=[],
                             published=(), attacker=server, dossiers=dossiers)
    engine.write_outputs(result, tmp_path / "got")
    plan = server.plan_log if server is not None else []
    reference_artifacts.write(plan, dossiers, tmp_path / "want")
    return {name: ((tmp_path / "got" / name).read_bytes(), (tmp_path / "want" / name).read_bytes())
            for name in reference_artifacts.NAMES}


def assert_same(server, dossiers, tmp_path) -> dict:
    files = written(server, dossiers, tmp_path)
    for name, (got, want) in files.items():
        assert got == want, name
    return {name: got.decode() for name, (got, _want) in files.items()}


def test_nan_rssi_reaches_a_dossier(tmp_path):
    server = server_with()
    dev = DeviceState(id="victim", rng=random.Random(1))
    harvest(server, dev, 10, rssi=math.nan)
    harvest(server, dev, 20, deputy="hosp2", rssi=-math.inf)
    plan(server, {"fac": (1000.0, 0.0)})
    dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
    assert math.isnan(dossiers[0]["sightings"][0]["rssi"])
    text = assert_same(server, dossiers, tmp_path)
    assert '"rssi": NaN,' in text["dossiers.json"] and '"rssi": -Infinity,' in text["dossiers.json"]


def test_negative_zero_and_int_coordinates(tmp_path):
    server = server_with()
    dev = DeviceState(id="victim", rng=random.Random(2))
    harvest(server, dev, 0, loc=(-0.0, 3))
    plan(server, {"fac": (1000.0, 0.0)})
    dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
    text = assert_same(server, dossiers, tmp_path)
    assert '"harvest_x": -0.0, "harvest_y": 3,' in text["attack_plan.jsonl"]
    assert '"x": -0.0,\n        "y": 3,' in text["dossiers.json"]


def test_quoted_and_non_ascii_ids_and_macs(tmp_path):
    server = server_with(relay_mac='r\u00e9"lay\\')
    dev = DeviceState(id="victim", rng=random.Random(3))
    harvest(server, dev, 0, deputy='h\u00f6sp "1"\\', mac='\u00e4"\\:01\n')
    plan(server, {'f\u00e4b\t"2"': (1000.0, 0.0), "\u2603": (1001.0, 0.0)})
    dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
    text = assert_same(server, dossiers, tmp_path)
    assert '"deputy": "f\\u00e4b\\t\\"2\\""' in text["attack_plan.jsonl"]
    assert '"mac": "\\u00e4\\"\\\\:01\\n"' in text["dossiers.json"]


def test_tick_7_span_writes_each_tick_as_planned_on_its_own(tmp_path):
    """A group widened over ticks of 7 s writes what planning every tick writes:
    two candidates relayed by two deputies, four entries a tick, tick by tick."""
    deputies = {"fac1": (1000.0, 0.0), "fac2": (1001.0, 1.0)}
    spanned, ticked = (server_with(max_relays_per_deputy=2) for _ in range(2))
    for server in (spanned, ticked):
        for seed, t in ((4, 0), (5, 3)):
            harvest(server, DeviceState(id=f"d{seed}", rng=random.Random(seed)), t)
    spanned.select_relays(14, deputies)
    [(_ticks, entries)] = spanned.plan_log
    before = [dict(entry) for entry in entries]
    spanned.repeat_plan(14, range(21, 70, 7))
    for t in range(14, 70, 7):
        ticked.select_relays(t, deputies)

    [(ticks, same)] = spanned.plan_log
    assert ticks == range(14, 70, 7) and same is entries and entries == before  # no entry copied
    assert len(entries) == 4 and len(ticked.plan_log) == len(ticks)
    text = assert_same(spanned, [], tmp_path)
    assert text == assert_same(ticked, [], tmp_path / "ticked")
    lines = text["attack_plan.jsonl"].splitlines()
    assert len(lines) == 4 * len(ticks) and lines[-1].startswith('{"t": 63, ')


def test_no_dossiers_and_no_plan(tmp_path):
    text = assert_same(server_with(), [], tmp_path)
    assert text == {"attack_plan.jsonl": "", "dossiers.json": "[]\n"}
    assert assert_same(None, [], tmp_path / "no_attack") == text


def test_dossier_with_no_sightings(tmp_path):
    server = server_with()
    dev = DeviceState(id="victim", rng=random.Random(6))
    harvest(server, dev, 10)
    stranger = crypto.new_tek(random.Random(77), 0)
    published = [PublishedTek(stranger, 0), PublishedTek(dev.current_tek, 2000)]
    dossiers = server.reidentify(published)
    assert sorted(len(d["sightings"]) for d in dossiers) == [0, 1]
    text = assert_same(server, dossiers, tmp_path)
    assert '"sightings": []\n  }' in text["dossiers.json"]
