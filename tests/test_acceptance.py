"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v`; the per-criterion lines
appear in the terminal summary (or inline with -s).
"""

import hashlib
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import reference_gaen as ref
from ensim import beacon, scenarios
from ensim.cli import main as cli_main
from ensim.coverage import sweep
from ensim.crypto import Metadata, decrypt_aem, encrypt_aem, generate_test_vectors
from ensim.engine import ScenarioConfig, run_scenario, write_outputs

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_frames.json").read_text())


def run_bundled(name, **builder_kwargs):
    raw = scenarios.BUILDERS[name](**builder_kwargs)
    return run_scenario(ScenarioConfig.from_dict(raw))


@pytest.fixture(scope="module")
def hospital_run():
    t0 = time.perf_counter()
    result = run_bundled("hospital_replay")
    return result, time.perf_counter() - t0


def test_criterion_01_crypto_oracle_equivalence(acceptance_record):
    t0 = time.perf_counter()
    vectors = generate_test_vectors(1000, seed=20200616)
    mismatches = 0
    for v in vectors:
        tek = bytes.fromhex(v["tek_hex"])
        rpik = ref.ref_rpik(tek)
        aemk = ref.ref_aemk(tek)
        rpi = ref.ref_rpi(rpik, v["interval"])
        aem = ref.ref_aem(aemk, rpi, bytes.fromhex(v["meta_hex"]))
        if (rpik.hex(), aemk.hex(), rpi.hex(), aem.hex()) != (
                v["rpik_hex"], v["aemk_hex"], v["rpi_hex"], v["aem_hex"]):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    acceptance_record(
        1, "crypto oracle equivalence", mismatches == 0 and elapsed < 10.0,
        f"1000 vectors, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_malleability_law(acceptance_record):
    rng = random.Random(20200605)
    failures = 0
    for _ in range(10_000):
        aemk = rng.randbytes(16)
        rpi = rng.randbytes(16)
        meta = Metadata(version=rng.randrange(256), tx_power=rng.randrange(-127, 128),
                        reserved=rng.randbytes(2))
        mask = rng.randbytes(4)
        forged = bytes(a ^ b for a, b in zip(encrypt_aem(aemk, rpi, meta), mask))
        want = bytes(a ^ b for a, b in zip(meta.to_bytes(), mask))
        if decrypt_aem(aemk, rpi, forged).to_bytes() != want:
            failures += 1
    acceptance_record(2, "metadata malleability law", failures == 0,
                      f"10000 tuples, {failures} violations")


def test_criterion_03_replay_window_boundary(acceptance_record):
    inside = run_bundled("targeted_replay", relay_age_s=110 * 60)
    outside = run_bundled("targeted_replay", relay_age_s=125 * 60)
    ok = (
        [r["device_id"] for r in inside.notification_rows] == ["victim"]
        and outside.notification_rows == []
    )
    acceptance_record(
        3, "replay window boundary", ok,
        f"110min -> {len(inside.notification_rows)} notification(s), "
        f"125min -> {len(outside.notification_rows)}",
    )


def test_criterion_04_hospital_replay_false_positives(acceptance_record, hospital_run):
    result, elapsed = hospital_run
    expected = {f"wk{i:02d}" for i in range(10)}
    notified = {r["device_id"] for r in result.notification_rows}
    all_false = all(not r["ground_truth_contact"] for r in result.notification_rows)
    ok = notified == expected and all_false and elapsed < 60.0
    acceptance_record(
        4, "hospital replay false positives", ok,
        f"{len(notified)} app workers notified in {elapsed:.1f}s, "
        f"all ground_truth_contact=false: {all_false}",
    )


def test_criterion_05_remote_attacker_refutation(acceptance_record, hospital_run):
    result, _ = hospital_run
    deputies = set(result.deputies)
    plan = result.attacker.plan  # one row per decision per tick, each naming its entry
    decisions = len(plan)
    sources_ok = decisions > 0 and all(
        e["source_deputy"] in deputies and e["deputy"] in deputies
        for e in map(plan.keys.__getitem__, plan.columns()[1].tolist()))
    # every row has a link, and every link a row: its first hearing
    relay_links = [link for link in result.world.events.keys if link.relay]
    emissions_ok = bool(relay_links) and {link.emitter for link in relay_links} <= deputies
    server_placeless = not any(
        hasattr(result.attacker, attr) for attr in ("location", "position", "x", "y", "trajectory"))
    ok = sources_ok and emissions_ok and server_placeless
    acceptance_record(
        5, "remote attacker refutation", ok,
        f"{decisions} relay decisions all deputy-sourced: {sources_ok}, "
        f"emissions deputy-only: {emissions_ok}, server placeless: {server_placeless}",
    )


def test_criterion_06_single_hearing_harvest(acceptance_record):
    raw = {
        "schema_version": 1, "kind": "scenario", "name": "single_hearing", "seed": 8,
        "world": {"tick": 1, "duration": 1800, "radio_range_max": 50.0,
                  "path_loss": {"ref_rssi_at_1m": -41.0, "exponent": 2.0, "noise_sigma": 0.0}},
        "matching": {"tolerance": 7200, "attenuation_threshold": 55.0, "duration_threshold": 900},
        "nodes": [
            {"id": "carrier", "app": True, "infected_at": 0, "diagnosed_at": 1700,
             "trajectory": [[0, 500.0, 500.0], [10, 0.0, 1.0], [11, 500.0, 500.0]]},
            {"id": "dep_h", "deputy": True, "trajectory": [[0, 0.0, 0.0]]},
            {"id": "dep_t", "deputy": True, "trajectory": [[0, 200.0, 0.0]]},
            {"id": "victim", "app": True, "trajectory": [[0, 200.0, 1.0]]},
        ],
        "attack": {"harvest_zones": [[-5.0, -5.0, 5.0, 5.0]],
                   "target_zones": [[195.0, -5.0, 205.0, 5.0]], "relay_latency": 5},
        "injections": [],
    }
    result = run_scenario(ScenarioConfig.from_dict(raw))
    server = result.attacker
    hearings = [row for row in server.db.tolist() if server.record(row).deputy_id == "dep_h"]
    notified = [r["device_id"] for r in result.notification_rows]
    ok = len(hearings) == 1 and notified == ["victim"]
    acceptance_record(6, "single hearing harvest", ok,
                      f"{len(hearings)} hearing -> notified {notified}")


def test_criterion_07_tamper_range_extension(acceptance_record):
    def notifies(distance, tampered):
        result = run_bundled("tamper_range_extension",
                             victim_distance=distance, tampered=tampered)
        return bool(result.notification_rows)

    lo, hi = 2.0, 20.0  # untampered notifies at lo, not at hi
    assert notifies(lo, tampered=False) and not notifies(hi, tampered=False)
    while hi - lo > 0.5:
        mid = (lo + hi) / 2
        if notifies(mid, tampered=False):
            lo = mid
        else:
            hi = mid
    # hi: closest probed distance where the honest relay already fails
    untampered = notifies(hi, tampered=False)
    tampered = notifies(hi, tampered=True)
    acceptance_record(
        7, "tamper range extension", (not untampered) and tampered,
        f"at d={hi:.2f} m: untampered notified={untampered}, +8dB mask notified={tampered}",
    )


def test_criterion_08_reidentification(acceptance_record, tmp_path):
    result = run_bundled("reidentification")
    write_outputs(result, tmp_path)
    published = result.published
    assert len(published) == 1
    victim = result.tek_owner[published[0].tek.key]

    log = result.world.events
    t_col = log.columns()[0]
    truth = set()
    for link_id, rows in log.group(lambda link_id: link_id if (
            log.keys[link_id].receiver in result.deputies
            and log.keys[link_id].emitter == victim) else None, np.arange(len(log))).items():
        link = log.keys[link_id]
        truth |= {(t, link.rx[0], link.rx[1], link.mac) for t in t_col[rows].tolist()}
    dossiers = json.loads((tmp_path / "dossiers.json").read_text())
    assert [d["tek_hex"] for d in dossiers] == [published[0].tek.key.hex()]
    dossier = dossiers[0]["sightings"]
    got = {(h["t"], h["x"], h["y"], h["mac"]) for h in dossier}
    complete = truth <= got
    no_false = got <= truth

    side_db = {}
    for nid, dev in result.devices.items():
        for _, mac in dev.mac_history:
            side_db[mac] = f"adid-{nid}"
    # MAC linkage: the dossier's MACs joined against the side database
    linked = {side_db.get(h["mac"]) for h in dossier}
    identity_ok = linked == {f"adid-{victim}"}
    ok = complete and no_false and identity_ok
    acceptance_record(
        8, "re-identification dossier and linkage", ok,
        f"{len(dossier)}/{len(truth)} sightings, false attributions: {len(got - truth)}, "
        f"recovered id: {sorted(linked, key=str)}",
    )


def test_criterion_09_coverage_model(acceptance_record):
    t0 = time.perf_counter()
    raw = scenarios.coverage_sweep()
    reports = sweep(
        alphas_sc=raw["alphas_sc"], alphas_cd=raw["alphas_cd"],
        n=raw["n"], n_contacts=raw["n_contacts"], seed=raw["seed"],
        one_sided_quality=raw["one_sided_quality"],
    )
    worst_sc = max(abs(r.sc_coverage - r.alpha_sc**2) for r in reports)
    worst_att = max(abs(r.attacker_coverage - (1 - (1 - r.alpha_cd) ** 2)) for r in reports)
    diagonal_ok = all(
        r.attacker_coverage >= r.sc_coverage for r in reports if r.alpha_sc == r.alpha_cd)
    elapsed = time.perf_counter() - t0
    ok = worst_sc <= 0.01 and worst_att <= 0.01 and diagonal_ok and elapsed < 60.0
    acceptance_record(
        9, "coverage model closed forms", ok,
        f"121 cells, max |sc-a^2|={worst_sc:.4f}, max |att-form|={worst_att:.4f}, "
        f"diagonal dominance: {diagonal_ok}, {elapsed:.1f}s",
    )


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def test_criterion_10_determinism(acceptance_record, tmp_path):
    mismatched = []
    for name in sorted(scenarios.BUILDERS):
        cmd = "sweep" if name == "coverage_sweep" else "run"
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            rc = cli_main([cmd, name, "--out", str(out)])
            assert rc == 0, name
            digests.append(_dir_digest(out))
        if digests[0] != digests[1]:
            mismatched.append(name)
    acceptance_record(
        10, "bundled scenario determinism", not mismatched,
        f"{len(scenarios.BUILDERS)} scenarios run twice; mismatches: {mismatched or 'none'}",
    )


def test_criterion_11_codec_fuzz_totality(acceptance_record):
    rng = random.Random(0xFD6F)
    crashes = 0
    for _ in range(100_000):
        raw = rng.randbytes(rng.randrange(32))
        try:
            frame = beacon.decode(raw, "00:00:00:00:00:00")
            if frame.payload != raw:
                crashes += 1
        except Exception:
            crashes += 1
    fixtures_ok = True
    for g in GOLDEN["frames"]:
        raw = bytes.fromhex(g["payload_hex"])
        frame = beacon.decode(raw, g["mac"])
        if frame.payload != raw or isinstance(frame.kind, beacon.Unknown):
            fixtures_ok = False
    acceptance_record(
        11, "codec fuzz totality", crashes == 0 and fixtures_ok,
        f"100000 payloads, {crashes} failures; fixtures lossless: {fixtures_ok}",
    )


def notified_under_noise(name, seed, **builder_kwargs):
    """The notification rows of a bundled scenario run at `seed` with noise_sigma 4 dB
    (realistic Bluetooth rssi spread)."""
    raw = scenarios.BUILDERS[name](**builder_kwargs)
    raw["seed"] = seed
    raw["world"]["path_loss"]["noise_sigma"] = 4.0
    return run_scenario(ScenarioConfig.from_dict(raw)).notification_rows


@pytest.mark.parametrize("seed", range(5))
def test_tamper_range_extension_holds_under_noise(seed):
    # the honest relay fails at 6 and 10 m on every seed, the -8 dB mask carries to both
    def notifies(distance, tampered):
        return bool(notified_under_noise("tamper_range_extension", seed,
                                         victim_distance=distance, tampered=tampered))

    for distance in (6.0, 10.0):
        assert not notifies(distance, tampered=False)
        assert notifies(distance, tampered=True)


@pytest.mark.parametrize("seed", range(5))
def test_hospital_replay_false_positives_hold_under_noise(seed):
    rows = notified_under_noise("hospital_replay", seed)
    assert {r["device_id"] for r in rows} == {f"wk{i:02d}" for i in range(10)}
    assert not any(r["ground_truth_contact"] for r in rows)


@pytest.mark.parametrize("seed", range(5))
def test_replay_window_boundary_holds_under_noise(seed):
    def notified(age_s):
        rows = notified_under_noise("targeted_replay", seed, relay_age_s=age_s)
        return {r["device_id"] for r in rows}

    assert notified(110 * 60) == {"victim"}
    assert notified(125 * 60) == set()
