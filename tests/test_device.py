import random

from ensim import beacon, crypto
from ensim.device import (
    DeviceState,
    MatchingParams,
    broadcast_current,
    diagnose_and_upload,
    match_exposures,
    on_scan,
)
from ensim.diagnosis import DiagnosisServer
from ensim.radio import Sighting

PARAMS = MatchingParams()


def make_device(nid="dev", seed=1, tx_power=0):
    return DeviceState(id=nid, rng=random.Random(seed), tx_power=tx_power)


def sighting_of(frame, t, rssi=-41.0):
    return Sighting(payload=frame.payload, mac=frame.mac, rssi=rssi, time=t, rx_location=(0.0, 0.0))


def kind_of(emission):
    """The frame kind a broadcast's payload decodes to: its identifier and metadata."""
    return beacon.decode(emission.payload, emission.mac).kind


def replay_sightings(emitter, times, rssi=-41.0, emit_t=None):
    """Sightings of the frame the emitter broadcasts at emit_t, replayed at `times`."""
    frame = broadcast_current(emitter, emit_t if emit_t is not None else times[0])
    return [sighting_of(frame, t, rssi) for t in times]


class TestBroadcast:
    def test_stable_within_interval(self):
        dev = make_device()
        f1 = broadcast_current(dev, 0)
        f2 = broadcast_current(dev, 599)
        assert kind_of(f1).rpi == kind_of(f2).rpi
        assert f1.mac == f2.mac

    def test_rotation_at_interval_boundary(self):
        dev = make_device()
        f1 = broadcast_current(dev, 599)
        f2 = broadcast_current(dev, 600)
        assert kind_of(f1).rpi != kind_of(f2).rpi
        assert f1.mac != f2.mac

    def test_frame_decodes_to_own_rpi(self):
        dev = make_device()
        frame = broadcast_current(dev, 1234)
        kind = beacon.decode(frame.payload, frame.mac).kind
        assert isinstance(kind, beacon.Gaen)
        rpik = crypto.derive_rpik(dev.current_tek)
        assert kind.rpi == crypto.generate_rpi(rpik, crypto.interval_number(1234)).rpi

    def test_aem_claims_true_power_until_tampered(self):
        dev = make_device(tx_power=-4)
        frame = broadcast_current(dev, 0)
        aemk = crypto.derive_aemk(dev.current_tek)
        meta = crypto.decrypt_aem(aemk, kind_of(frame).rpi, kind_of(frame).aem)
        assert meta.tx_power == -4

    def test_one_frame_per_interval(self, monkeypatch):
        encrypt_aem, calls = crypto.encrypt_aem, []

        def counted(*args):
            calls.append(args)
            return encrypt_aem(*args)

        monkeypatch.setattr(crypto, "encrypt_aem", counted)
        dev = make_device()
        f1 = broadcast_current(dev, 0)
        assert (f1.node_id, f1.relay) == (dev.id, False)
        assert all(broadcast_current(dev, t) is f1 for t in range(1, 600))
        f2 = broadcast_current(dev, 600)
        assert f2 is not f1 and broadcast_current(dev, 1199) is f2
        assert len(calls) == len(dev.mac_history) == 2

    def test_schedule_across_day_boundaries(self):
        dev = make_device()
        day_keys, frames = {}, []
        for t in range(0, 2 * 86400 + 3600 + 1, crypto.INTERVAL_SECONDS):
            frame = broadcast_current(dev, t)
            assert broadcast_current(dev, t + crypto.INTERVAL_SECONDS - 1) is frame
            day_keys.setdefault(t // 86400, dev.current_tek)
            frames.append(frame)
            if t == 86400:
                assert dev.tek_history == [day_keys[0]]
        assert dev.tek_history == [day_keys[0], day_keys[1]]
        for interval, frame in enumerate(frames):
            day = crypto.regenerate_day(day_keys[interval // crypto.INTERVALS_PER_DAY])
            assert kind_of(frame).rpi == day[interval % crypto.INTERVALS_PER_DAY].rpi
        macs = [frame.mac for frame in frames]
        assert all(a != b for a, b in zip(macs, macs[1:]))
        assert dev.mac_history == list(enumerate(macs))

    def test_daily_tek_rotation(self):
        dev = make_device()
        broadcast_current(dev, 0)
        first = dev.current_tek
        broadcast_current(dev, 86400)  # next day
        assert dev.current_tek != first
        assert dev.tek_history == [first]


class TestStorage:
    def test_sightings_append_only_ordered(self):
        dev = make_device()
        frame = broadcast_current(make_device(seed=2), 0)
        for t in range(100_000):
            on_scan(dev, sighting_of(frame, t))
        assert len(dev.sightings) == 100_000
        assert [dev.log.at(row)[0] for row in dev.sightings[:5]] == [0, 1, 2, 3, 4]
        assert dev.log.at(dev.sightings[-1])[0] == 99_999

    def test_duplicates_kept_separately(self):
        dev = make_device()
        frame = broadcast_current(make_device(seed=2), 0)
        on_scan(dev, sighting_of(frame, 5))
        on_scan(dev, sighting_of(frame, 9))
        assert len(dev.sightings) == 2

    def test_scans_go_on_after_matching(self):
        # matching reads the rows without keeping a view that would pin them
        carrier, victim = make_device("c", 1), make_device("v", 2)
        for t in range(0, 1200):
            on_scan(victim, sighting_of(broadcast_current(carrier, t), t))
            if t in (0, 899):
                match_exposures(victim, [carrier.current_tek], PARAMS)
        assert len(victim.sightings) == 1200
        assert len(match_exposures(victim, [carrier.current_tek], PARAMS)) == 1


class TestUpload:
    def test_upload_counts_days(self):
        dev = make_device()
        for day in range(3):
            broadcast_current(dev, day * 86400)
        server = DiagnosisServer()
        teks = diagnose_and_upload(dev, server, t=3 * 86400)
        assert len(teks) == 3
        assert len(server.snapshot(3 * 86400)) == 3

    def test_retention_cap(self):
        dev = make_device()
        for day in range(20):
            broadcast_current(dev, day * 86400)
        server = DiagnosisServer()
        teks = diagnose_and_upload(dev, server, t=20 * 86400)
        assert len(teks) == 14

    def test_published_set_visible_to_any_reader(self):
        dev = make_device()
        broadcast_current(dev, 0)
        server = DiagnosisServer()
        uploaded = diagnose_and_upload(dev, server, t=100)
        assert [e.tek for e in server.snapshot(100)] == uploaded


class TestMatching:
    def test_direct_contact_notifies(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        for t in range(0, 1200):  # 20 min at reference distance
            frame = broadcast_current(carrier, t)
            on_scan(victim, sighting_of(frame, t))
        notes = match_exposures(victim, [carrier.current_tek], PARAMS)
        assert len(notes) == 1
        assert notes[0].cumulative_duration == 1200
        assert notes[0].day == 0
        assert notes[0].min_attenuation == 41.0

    def test_replay_within_two_hours_notifies(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        # identifier from interval 0, replayed 90 min after its window, for 20 min
        start = 600 + 90 * 60
        for s in replay_sightings(carrier, range(start, start + 1200), emit_t=0):
            on_scan(victim, s)
        assert len(match_exposures(victim, [carrier.current_tek], PARAMS)) == 1

    def test_replay_after_three_hours_fails(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        start = 600 + 180 * 60
        for s in replay_sightings(carrier, range(start, start + 1200), emit_t=0):
            on_scan(victim, s)
        assert match_exposures(victim, [carrier.current_tek], PARAMS) == []

    def test_short_contact_no_notification(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        for t in range(0, 600):  # 10 min only
            on_scan(victim, sighting_of(broadcast_current(carrier, t), t))
        assert match_exposures(victim, [carrier.current_tek], PARAMS) == []

    def test_window_boundary_exact(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        inside = 600 + 7200  # exactly at nominal window end + tolerance
        for s in replay_sightings(carrier, [inside, inside + 1], emit_t=0):
            on_scan(victim, s)
        params = MatchingParams(duration_threshold=1)
        notes = match_exposures(victim, [carrier.current_tek], params)
        assert notes[0].cumulative_duration == 1  # only the in-window tick counts

    def test_far_sightings_do_not_count(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        for t in range(0, 1200):
            # rssi at ~30 m: attenuation 70.5 dB, beyond the 55 dB bucket
            on_scan(victim, sighting_of(broadcast_current(carrier, t), t, rssi=-70.5))
        assert match_exposures(victim, [carrier.current_tek], PARAMS) == []

    def test_duplicate_ticks_counted_once(self):
        carrier, victim = make_device("c", 3), make_device("v", 4)
        for t in range(0, 800):  # two sightings per tick, only 800 s of wall clock
            frame = broadcast_current(carrier, t)
            on_scan(victim, sighting_of(frame, t))
            on_scan(victim, sighting_of(frame, t, rssi=-45.0))
        assert match_exposures(victim, [carrier.current_tek], PARAMS) == []

    def test_own_key_never_matches(self):
        dev = make_device("d", 5)
        for t in range(0, 1200):
            on_scan(dev, sighting_of(broadcast_current(dev, t), t))
        assert match_exposures(dev, [dev.current_tek], PARAMS) == []

    def test_tampered_claim_shifts_attenuation_threshold(self):
        # at a distance where honest attenuation is 58 dB (> 55), a mask that
        # lowers the claimed power by 8 dB turns no-notification into notification
        carrier, victim = make_device("c", 3), make_device("v", 4)
        mask = bytes([0x00, 0x00 ^ 0xF8, 0x00, 0x00])
        honest, forged = [], []
        for t in range(0, 1200):
            frame = broadcast_current(carrier, t)
            honest.append(sighting_of(frame, t, rssi=-58.0))
            tampered_aem = bytes(a ^ b for a, b in zip(kind_of(frame).aem, mask))
            payload = beacon.encode_gaen(kind_of(frame).rpi, tampered_aem)
            forged.append(Sighting(payload, frame.mac, -58.0, t, (0.0, 0.0)))
        for s in honest:
            on_scan(victim, s)
        assert match_exposures(victim, [carrier.current_tek], PARAMS) == []
        victim2 = make_device("v2", 6)
        for s in forged:
            on_scan(victim2, s)
        notes = match_exposures(victim2, [carrier.current_tek], PARAMS)
        assert len(notes) == 1
        assert notes[0].min_attenuation == 50.0  # -8 claimed - (-58 rssi)


class TestDiagnosisServer:
    def test_snapshot_time_filtered(self):
        server = DiagnosisServer()
        tek = crypto.new_tek(random.Random(0), 0)
        server.publish([tek], t=100)
        assert server.snapshot(99) == ()
        assert len(server.snapshot(100)) == 1

    def test_publish_empty_noop(self):
        server = DiagnosisServer()
        server.publish([], t=0)
        assert server.snapshot(10) == ()

    def test_interleaved_publishers_union(self):
        server = DiagnosisServer()
        rng = random.Random(0)
        a, b = crypto.new_tek(rng, 0), crypto.new_tek(rng, 0)
        server.publish([a], t=1)
        server.publish([b], t=2)
        snap = server.snapshot(5)
        assert {e.tek for e in snap} == {a, b}

    def test_snapshot_monotone_and_idempotent(self):
        server = DiagnosisServer()
        rng = random.Random(0)
        for i in range(5):
            server.publish([crypto.new_tek(rng, 0)], t=i)
        s2, s4 = server.snapshot(2), server.snapshot(4)
        assert set(s2) <= set(s4)
        assert server.snapshot(4) == s4
