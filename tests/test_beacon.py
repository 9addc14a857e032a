import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ensim import beacon
from ensim.beacon import (
    AltBeacon,
    BeaconFrame,
    EddystoneUrl,
    Gaen,
    IBeacon,
    Unknown,
    decode,
    encode_decoy,
    encode_gaen,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_frames.json").read_text())
MAC = "00:11:22:33:44:55"


def golden(name):
    return next(f for f in GOLDEN["frames"] if f["name"] == name)


class TestGaenFrame:
    def test_zero_frame_bytes(self):
        # hand-assembled: flags | uuid list | service data (0xFD6F + 16 rpi + 4 aem)
        want = "02011a" + "03036ffd" + "1716" + "6ffd" + "00" * 20
        payload = encode_gaen(bytes(16), bytes(4))
        assert payload.hex() == want
        assert len(payload) == 31
        # service-data AD structure occupies 24 bytes; its length byte is 23
        assert payload[7] == 0x17

    def test_round_trip(self):
        rpi, aem = bytes(range(16)), b"\xAA\xBB\xCC\xDD"
        frame = decode(encode_gaen(rpi, aem), MAC)
        assert type(frame.kind) is Gaen and frame.kind == Gaen(rpi=rpi, aem=aem)

    def test_wrong_lengths(self):
        with pytest.raises(ValueError):
            encode_gaen(bytes(15), bytes(4))
        with pytest.raises(ValueError):
            encode_gaen(bytes(16), bytes(5))

    def test_gaen_uuid_with_wrong_data_length_is_unknown(self):
        # service data says 0xFD6F but carries 19 bytes instead of 20
        payload = bytes.fromhex("02011a") + bytes([0x16, 0x16]) + b"\x6f\xfd" + bytes(19)
        assert isinstance(decode(payload, MAC).kind, Unknown)


class TestSentinels:
    @pytest.mark.parametrize("name,kind_cls", [
        ("sentinel_ibeacon", IBeacon),
        ("sentinel_altbeacon", AltBeacon),
        ("sentinel_eddystone_url", EddystoneUrl),
        ("sentinel_gaen", Gaen),
    ])
    def test_sentinel_decodes_to_kind(self, name, kind_cls):
        g = golden(name)
        frame = decode(bytes.fromhex(g["payload_hex"]), g["mac"])
        assert isinstance(frame.kind, kind_cls)
        assert frame.mac == g["mac"]

    def test_sentinel_macs(self):
        macs = {golden(n)["mac"] for n in (
            "sentinel_ibeacon", "sentinel_altbeacon", "sentinel_eddystone_url", "sentinel_gaen")}
        assert macs == {
            "AB:B1:E6:6E:1B:BA", "AB:B1:E7:7E:1B:BA",
            "AB:B1:E8:8E:1B:BA", "AB:B1:E9:9E:1B:BA",
        }

    def test_ibeacon_testbed_identifiers(self):
        g = golden("sentinel_ibeacon")
        kind = decode(bytes.fromhex(g["payload_hex"]), g["mac"]).kind
        assert kind.uuid == "01022022-fa0f-0100-00ac-dd1c6502da1c"
        assert kind.major == 53479
        assert kind.minor == 42571

    def test_all_golden_frames_lossless(self):
        for g in GOLDEN["frames"]:
            raw = bytes.fromhex(g["payload_hex"])
            frame = decode(raw, g["mac"])
            assert frame.payload == raw

    def test_golden_frames_match_encoders(self):
        g = golden("sentinel_ibeacon")
        assert encode_decoy(IBeacon(g["uuid"], g["major"], g["minor"], g["tx"])).hex() == g["payload_hex"]
        g = golden("sentinel_altbeacon")
        assert encode_decoy(
            AltBeacon(bytes.fromhex(g["beacon_id_hex"]), g["ref_rssi"], g["mfg_id"], g["mfg_reserved"])
        ).hex() == g["payload_hex"]
        g = golden("sentinel_eddystone_url")
        assert encode_decoy(EddystoneUrl(g["url"], g["tx"])).hex() == g["payload_hex"]
        g = golden("sentinel_gaen")
        assert encode_gaen(bytes.fromhex(g["rpi_hex"]), bytes.fromhex(g["aem_hex"])).hex() == g["payload_hex"]


class TestDecoys:
    @pytest.mark.parametrize("kind", [
        IBeacon(uuid="e2c56db5-dffb-48d2-b060-d0f5a71096e0", major=1, minor=65535, tx=-59),
        AltBeacon(beacon_id=bytes(range(20)), ref_rssi=-70),
        AltBeacon(beacon_id=bytes(20), ref_rssi=0, mfg_id=0xFFFF, mfg_reserved=7),
        EddystoneUrl(url="https://example.com", tx=-20),
        EddystoneUrl(url="http://www.a.org/x", tx=0),
        EddystoneUrl(url="https://abc.gov", tx=-100),
    ])
    def test_decoy_round_trip(self, kind):
        frame = decode(encode_decoy(kind), MAC)
        assert type(frame.kind) is type(kind) and frame.kind == kind

    def test_url_too_long(self):
        with pytest.raises(ValueError):
            encode_decoy(EddystoneUrl(url="https://" + "a" * 100, tx=0))

    def test_bad_altbeacon_id_length(self):
        with pytest.raises(ValueError):
            encode_decoy(AltBeacon(beacon_id=bytes(19), ref_rssi=0))

    def test_gaen_is_not_a_decoy(self):
        with pytest.raises(ValueError):
            encode_decoy(Gaen(rpi=bytes(16), aem=bytes(4)))


class TestTotality:
    def test_empty_payload(self):
        kind = decode(b"", MAC).kind
        assert type(kind) is Unknown and kind == Unknown(b"")

    def test_over_length_rejected(self):
        with pytest.raises(ValueError):
            decode(bytes(32), MAC)

    def test_truncated_ad_structure(self):
        # claims 10 value bytes, provides 2
        frame = decode(bytes([0x0B, 0x16, 0x6F, 0xFD]), MAC)
        assert isinstance(frame.kind, Unknown)

    def test_random_payloads_never_fail(self):
        rng = random.Random(1234)
        for _ in range(5000):
            raw = rng.randbytes(rng.randrange(32))
            frame = decode(raw, MAC)
            assert frame.payload == raw  # raw bytes preserved whatever happens


@given(st.binary(min_size=0, max_size=31))
def test_decode_total_and_lossless(raw):
    frame = decode(raw, MAC)
    assert isinstance(frame, BeaconFrame)
    assert frame.payload == raw
