import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ensim import beacon, crypto
from ensim.attacker import (
    AttackPolicy,
    AttackerServer,
    RelayOrder,
    Zone,
    slot_end,
    tamper,
)
from ensim.device import DeviceState, broadcast_current
from ensim.diagnosis import DiagnosisServer, PublishedTek
from ensim.radio import Sighting

HOSPITAL = Zone(-10, -10, 10, 10)
FACTORY = Zone(990, -10, 1010, 10)


def gaen_sighting(t, rssi=-30.0, loc=(0.0, 0.0), seed=1, mac=None, emit_t=None):
    dev = DeviceState(id="carrier", rng=random.Random(seed))
    frame = broadcast_current(dev, emit_t if emit_t is not None else t)
    return Sighting(frame.payload, mac or frame.mac, rssi, t, loc), dev


def make_server(**kw):
    kw.setdefault("harvest_zones", (HOSPITAL,))
    kw.setdefault("target_zones", (FACTORY,))
    return AttackerServer(AttackPolicy(**kw))


def relayed(server, order):
    """The harvested frame kind a relay order re-emits (rpi and possibly masked aem)."""
    return beacon.decode(order.payload, server.policy.relay_mac).kind


class TestTamper:
    def test_zero_mask_identity(self):
        assert tamper(b"\x01\x02\x03\x04", bytes(4)) == b"\x01\x02\x03\x04"

    def test_involution(self):
        mask = b"\x00\x08\x00\x00"
        aem = b"\xde\xad\xbe\xef"
        assert tamper(tamper(aem, mask), mask) == aem

    def test_bit_flip_lands_in_decrypted_power(self):
        dev = DeviceState(id="c", rng=random.Random(0), tx_power=0)
        em = broadcast_current(dev, 0)
        kind = beacon.decode(em.payload, em.mac).kind
        mask = bytes([0x00, 0x08, 0x00, 0x00])  # bit 3 of the tx_power byte
        forged = tamper(kind.aem, mask)
        aemk = crypto.derive_aemk(dev.current_tek)
        meta = crypto.decrypt_aem(aemk, kind.rpi, forged)
        assert meta.tx_power == 0 ^ 0x08

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            tamper(b"\x00" * 3, bytes(4))
        with pytest.raises(ValueError):
            tamper(b"\x00" * 4, bytes(3))


class TestHarvest:
    def test_single_hearing_harvested(self):
        server = make_server()
        s, _ = gaen_sighting(5)
        rec = server.deputy_on_scan("dep1", s)
        assert rec is not None
        assert rec.frame.payload == s.payload
        assert rec.deputy_id == "dep1"
        assert [server.record(row) for row in server.db.tolist()] == [rec]

    def test_non_gaen_skipped_by_default(self):
        server = make_server()
        payload = beacon.encode_decoy(beacon.IBeacon(
            uuid="01022022-fa0f-0100-00ac-dd1c6502da1c", major=53479, minor=42571, tx=-59))
        s = Sighting(payload, "AB:B1:E6:6E:1B:BA", -12.0, 0, (0.0, 0.0))
        assert server.deputy_on_scan("dep1", s) is None

    def test_collect_all_keeps_decoys_byte_exact(self):
        server = make_server(collect_all=True)
        payload = beacon.encode_decoy(beacon.EddystoneUrl(url="https://example.com", tx=-20))
        s = Sighting(payload, "AB:B1:E8:8E:1B:BA", -12.0, 0, (0.0, 0.0))
        rec = server.deputy_on_scan("dep1", s)
        assert rec.frame.payload == payload
        assert isinstance(beacon.decode(rec.frame.payload, rec.mac).kind, beacon.EddystoneUrl)

    def test_own_relay_mac_ignored(self):
        server = make_server()
        s, _ = gaen_sighting(5, mac=server.policy.relay_mac)
        assert server.deputy_on_scan("dep1", s) is None

    def test_record_of_a_row_not_kept_raises(self):
        server = make_server()
        own, _ = gaen_sighting(5, mac=server.policy.relay_mac)  # our own re-emission
        decoy = Sighting(beacon.encode_decoy(beacon.EddystoneUrl(url="https://example.com", tx=-20)),
                         "AB:B1:E8:8E:1B:BA", -12.0, 6, (0.0, 0.0))
        kept, _ = gaen_sighting(7, seed=2)
        records = [server.deputy_on_scan("dep1", s) for s in (own, decoy, kept)]
        assert records[:2] == [None, None]
        for row in (0, 1):
            with pytest.raises(KeyError):
                server.record(row)
        assert server.db.tolist() == [2]
        assert server.record(2) == records[2]


class TestSelectRelays:
    def test_fresh_harvest_selected_for_target_deputy(self):
        server = make_server()
        s, _ = gaen_sighting(0, loc=(0.0, 0.0))
        server.deputy_on_scan("hosp", s)
        orders = server.select_relays(600, {"hosp": (0.0, 0.0), "fac": (1000.0, 0.0)})
        assert [o.deputy_id for o in orders] == ["fac"]
        assert relayed(server, orders[0]).rpi == beacon.decode(s.payload, s.mac).kind.rpi

    def test_expired_excluded(self):
        # heard at the end of its slot: productive until slot_end + 2 h; 5 min past that is out
        server = make_server()
        s, _ = gaen_sighting(599, loc=(0.0, 0.0))
        server.deputy_on_scan("hosp", s)
        deps = {"fac": (1000.0, 0.0)}
        assert server.select_relays(slot_end(599) + 7200, deps) != []
        assert server.select_relays(slot_end(599) + 7200 + 300, deps) == []

    def test_no_deputy_in_target_zone(self):
        server = make_server()
        s, _ = gaen_sighting(0)
        server.deputy_on_scan("hosp", s)
        assert server.select_relays(600, {"hosp": (0.0, 0.0)}) == []

    def test_harvest_zone_filter(self):
        server = make_server()
        s, _ = gaen_sighting(0, loc=(500.0, 0.0))  # heard outside the hospital zone
        server.deputy_on_scan("roam", s)
        assert server.select_relays(600, {"fac": (1000.0, 0.0)}) == []

    def test_upload_latency_respected(self):
        server = make_server(relay_latency=5)
        s, _ = gaen_sighting(100, loc=(0.0, 0.0))
        server.deputy_on_scan("hosp", s)
        deps = {"fac": (1000.0, 0.0)}
        assert server.select_relays(104, deps) == []
        assert server.select_relays(105, deps) != []

    def test_relay_window_gates_emission_age(self):
        server = make_server(relay_window=(6600, 7800))
        s, _ = gaen_sighting(3, loc=(0.0, 0.0))
        server.deputy_on_scan("hosp", s)
        deps = {"fac": (1000.0, 0.0)}
        assert server.select_relays(6599, deps) == []
        assert server.select_relays(6600, deps) != []
        assert server.select_relays(7800, deps) != []
        assert server.select_relays(7801, deps) == []

    def test_plan_log_records_provenance(self):
        server = make_server()
        s, _ = gaen_sighting(0, loc=(1.0, 2.0))
        server.deputy_on_scan("hosp", s)
        server.select_relays(600, {"fac": (1000.0, 0.0)})
        assert [column.tolist() for column in server.plan.columns()[:2]] == [[600], [0]]
        [entry] = server.plan.keys
        assert entry["source_deputy"] == "hosp"
        assert entry["deputy"] == "fac"
        assert entry["harvest_t"] == 0
        assert entry["tampered"] is False

    def test_mask_applied_to_orders(self):
        mask = bytes([0, 0xF8, 0, 0])
        server = make_server(tamper_mask=mask)
        s, _ = gaen_sighting(0, loc=(0.0, 0.0))
        server.deputy_on_scan("hosp", s)
        orders = server.select_relays(600, {"fac": (1000.0, 0.0)})
        original = beacon.decode(s.payload, s.mac).kind
        assert relayed(server, orders[0]) == beacon.Gaen(original.rpi, tamper(original.aem, mask))

    @pytest.mark.parametrize("smaller_first", [False, True])
    def test_same_tick_tie_goes_to_the_smaller_identifier(self, smaller_first):
        # two identifiers first heard on one tick: the plan ranks them by identifier
        # bytes, whichever order the tick's hearings were logged in
        sightings = sorted((gaen_sighting(0, seed=seed)[0] for seed in (1, 2)),
                           key=lambda s: beacon.decode(s.payload, s.mac).kind.rpi,
                           reverse=not smaller_first)
        server = make_server(max_relays_per_deputy=1)
        for s in sightings:
            server.deputy_on_scan("hosp", s)
        [order] = server.select_relays(600, {"fac": (1000.0, 0.0)})
        heard = [beacon.decode(s.payload, s.mac).kind.rpi for s in sightings]
        assert relayed(server, order).rpi == min(heard) != max(heard)


HEARINGS = st.lists(st.tuples(
    st.sampled_from(["hosp1", "hosp2"]),
    st.sampled_from([(0.0, 0.0), (1.0, 1.0), (500.0, 0.0)]),  # the last outside HOSPITAL
    st.integers(0, 3),  # whose identifier
    st.integers(0, 3),  # the 10-minute interval it was broadcast in
), max_size=3)
POLICIES = st.builds(
    make_server,
    relay_latency=st.just(0) | st.integers(1, 10),  # 0 often: heard at t, relayable at t + 1
    relay_window=st.none() | st.tuples(st.integers(0, 8000), st.integers(0, 2000)).map(
        lambda w: (w[0], w[0] + w[1])),
    replay_horizon=st.integers(0, 8000),
    max_relays_per_deputy=st.sampled_from([None, 1, 2]),
)


class TestNextPlanChange:
    TARGETS = {"fac": (1000.0, 0.0), "fac2": (1001.0, 1.0), "hosp1": (0.0, 0.0)}

    def orders(self, server, t):
        return [(o.deputy_id, o.payload) for o in server.select_relays(t, self.TARGETS)]

    @settings(max_examples=100, deadline=None)
    @given(POLICIES, st.lists(st.tuples(st.integers(1, 1500), HEARINGS), min_size=1, max_size=10))
    def test_plan_holds_until_the_next_plan_change(self, server, steps):
        """As in a run: at each step's time t the plan is made, then the step's
        hearings are fed; every second before the next plan change, looked at
        up to 600 s ahead, gets the plan made at t. The next step is at that
        change or `gap` seconds on, whichever is first."""
        t = 0
        for gap, hearings in steps:
            planned = self.orders(server, t)
            for deputy, loc, seed, interval in hearings:
                s, _ = gaen_sighting(t, loc=loc, seed=seed, emit_t=interval * 600)
                server.deputy_on_scan(deputy, s)
            change = server.next_plan_change(t)
            assert change > t
            for later in range(t + 1, min(change, t + 600)):
                assert self.orders(server, later) == planned, (t, later, change)
            t = min(change, t + gap)

    def test_no_target_zone_never_changes(self):
        server = make_server(target_zones=())
        s, _ = gaen_sighting(0)
        server.deputy_on_scan("hosp", s)
        assert server.next_plan_change(0) == math.inf


class TestRebroadcast:
    def test_emission_from_deputy_with_attacker_mac(self):
        server = make_server()
        s, _ = gaen_sighting(0, loc=(0.0, 0.0))
        server.deputy_on_scan("hosp", s)
        orders = server.select_relays(600, {"fac": (1000.0, 0.0)})
        em = server.rebroadcast(orders[0])
        assert em.node_id == "fac"
        assert em.relay is True
        assert em.mac == server.policy.relay_mac
        assert em._fields == ("node_id", "payload", "mac", "relay")  # sent at the deputy's power
        assert RelayOrder._fields == ("payload", "deputy_id")
        kind = beacon.decode(em.payload, em.mac).kind
        assert type(kind) is beacon.Gaen and kind == beacon.decode(s.payload, s.mac).kind

    def test_server_has_no_location(self):
        server = make_server()
        for attr in ("location", "position", "x", "y", "trajectory"):
            assert not hasattr(server, attr)


class TestReidentify:
    def _harvest_walk(self, server, dev, stops):
        """Walk `dev` past deputies: stops = [(t, deputy, loc)]."""
        for t, dep, loc in stops:
            frame = broadcast_current(dev, t)
            server.deputy_on_scan(dep, Sighting(frame.payload, frame.mac, -40.0, t, loc))

    def test_dossier_complete_and_chronological(self):
        server = make_server()
        dev = DeviceState(id="victim", rng=random.Random(9))
        stops = [(10, "d1", (0.0, 0.0)), (700, "d2", (5.0, 0.0)), (1400, "d3", (9.0, 0.0))]
        self._harvest_walk(server, dev, stops)
        published = [PublishedTek(dev.current_tek, 2000)]
        dossiers = server.reidentify(published)
        assert len(dossiers) == 1
        got = [(h["t"], (h["x"], h["y"])) for h in dossiers[0]["sightings"]]
        assert got == [(t, loc) for t, _, loc in stops]

    def test_unharvested_tek_empty_dossier(self):
        server = make_server()
        stranger = crypto.new_tek(random.Random(77), 0)
        dossiers = server.reidentify([PublishedTek(stranger, 0)])
        assert dossiers == [{"tek_hex": stranger.key.hex(), "sightings": []}]

    def test_no_false_attribution_across_teks(self):
        server = make_server()
        a = DeviceState(id="a", rng=random.Random(1))
        b = DeviceState(id="b", rng=random.Random(2))
        self._harvest_walk(server, a, [(10, "d1", (0.0, 0.0))])
        self._harvest_walk(server, b, [(20, "d1", (0.0, 0.0))])
        published = [PublishedTek(a.current_tek, 100), PublishedTek(b.current_tek, 100)]
        dossiers = {d["tek_hex"]: d["sightings"] for d in server.reidentify(published)}
        assert [h["t"] for h in dossiers[a.current_tek.key.hex()]] == [10]
        assert [h["t"] for h in dossiers[b.current_tek.key.hex()]] == [20]

    def test_dossier_macs_are_the_rotated_ground_truth(self):
        for stops in (
            [(10, "d1", (0.0, 0.0)), (700, "d2", (1.0, 0.0))],
            # the rotation boundary: one MAC for 0/300/599, the next for 600/900
            [(t, "d1", (0.0, 0.0)) for t in (0, 300, 599, 600, 900)],
        ):
            server = make_server()
            dev = DeviceState(id="victim", rng=random.Random(3))
            self._harvest_walk(server, dev, stops)
            dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
            got_macs = [h["mac"] for h in dossiers[0]["sightings"]]
            truth = dict(dev.mac_history)
            assert got_macs == [truth[t // crypto.INTERVAL_SECONDS] for t, _, _ in stops]
            assert truth[0] != truth[1]


class TestCorrelate:
    """MAC linkage, read from the dossiers: each sighting keeps its MAC."""

    def test_side_database_join_recovers_persistent_id(self):
        # synthetic ad-ecosystem database: every MAC any device ever used -> its ad id
        server = make_server()
        victim = DeviceState(id="victim", rng=random.Random(6))
        other = DeviceState(id="other", rng=random.Random(7))
        for t in (0, 700):
            for dev in (victim, other):
                frame = broadcast_current(dev, t)
                server.deputy_on_scan("d1", Sighting(frame.payload, frame.mac, -40.0, t, (0.0, 0.0)))
        side_db = {}
        for dev in (victim, other):
            for _, mac in dev.mac_history:
                side_db[mac] = f"adid-{dev.id}"
        dossiers = server.reidentify([PublishedTek(victim.current_tek, 2000)])
        linked = {side_db[h["mac"]] for h in dossiers[0]["sightings"]}
        assert linked == {"adid-victim"}

