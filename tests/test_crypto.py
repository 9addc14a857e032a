"""Key-schedule and metadata-cipher tests.

Expected hex values marked "frozen" were computed with the independent
reference pipeline in reference_gaen.py before the production module was
written, and are pinned here.
"""

import random

import pytest
from hypothesis import given, strategies as st

import reference_gaen as ref
from ensim import crypto
from ensim.crypto import (
    Metadata,
    TemporaryExposureKey,
    decrypt_aem,
    derive_aemk,
    derive_rpik,
    encrypt_aem,
    generate_rpi,
    generate_test_vectors,
    interval_number,
    new_tek,
    regenerate_day,
)

ZERO_TEK = TemporaryExposureKey(bytes(16), 0)

# frozen: reference_gaen.py outputs for the all-zero tek
ZERO_RPIK_HEX = "57e4c5f2ceeb86a849542209e846a4d9"
ZERO_AEMK_HEX = "e8ccd234e1115b41c823f73e42f30375"
ZERO_RPI0_HEX = "f252a8a76c6012a86337d54f914b53b5"
ZERO_AEM_HEX = "ed12161b"
# frozen: AES(zero key, padded block for interval 0) and zero-key/zero-counter keystream
RPI_ZEROKEY_I0_HEX = "2450a6642f1e48f44bf04902c500d743"
ZEROKEY_KEYSTREAM4_HEX = "66e94bd4"
# frozen: full pipeline for tek 000102..0f at interval 2881, tx_power -12
SAMPLE_TEK = bytes(range(16))
SAMPLE_RPIK_HEX = "4c3615250075e094e42e1b72e538ded2"
SAMPLE_AEMK_HEX = "3454dd8d8c8c835029754c15df6d44d7"
SAMPLE_RPI_HEX = "c1dc2f51b7827440b95638e6b5b92b18"
SAMPLE_AEM_HEX = "9d41d28a"


def test_reference_self_check():
    # FIPS-197 C.1 and NIST SP 800-38A F.5.1: anchors the oracle itself.
    got = ref.aes128_encrypt_block(
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        bytes.fromhex("00112233445566778899aabbccddeeff"),
    )
    assert got.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    ct = ref.ref_aem(
        bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
        bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"),
        bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"),
    )
    assert ct.hex() == "874d6191b620e3261bef6864990db6ce"


class TestTek:
    def test_new_tek_deterministic_under_seed(self):
        k1 = new_tek(random.Random(0), 0)
        k2 = new_tek(random.Random(0), 0)
        assert k1 == k2
        assert len(k1.key) == 16

    def test_new_tek_seed_changes_key(self):
        assert new_tek(random.Random(0), 0).key != new_tek(random.Random(1), 0).key

    def test_misaligned_day_start_rejected(self):
        with pytest.raises(ValueError):
            new_tek(random.Random(0), 1)
        with pytest.raises(ValueError):
            TemporaryExposureKey(bytes(16), 143)

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            TemporaryExposureKey(bytes(15), 0)


class TestDerivation:
    def test_zero_tek_rpik_frozen(self):
        assert derive_rpik(ZERO_TEK).hex() == ZERO_RPIK_HEX

    def test_zero_tek_aemk_frozen(self):
        assert derive_aemk(ZERO_TEK).hex() == ZERO_AEMK_HEX

    def test_derivations_deterministic(self):
        assert derive_rpik(ZERO_TEK) == derive_rpik(ZERO_TEK)
        assert derive_aemk(ZERO_TEK) == derive_aemk(ZERO_TEK)

    def test_key_separation_and_distinctness(self):
        rng = random.Random(42)
        rpiks, aemks = set(), set()
        for _ in range(1000):
            tek = new_tek(rng, 0)
            rpik, aemk = derive_rpik(tek), derive_aemk(tek)
            assert rpik != aemk
            rpiks.add(rpik)
            aemks.add(aemk)
        assert len(rpiks) == 1000
        assert len(aemks) == 1000


class TestRpi:
    def test_rpi_zerokey_interval0_frozen(self):
        assert generate_rpi(bytes(16), 0).rpi.hex() == RPI_ZEROKEY_I0_HEX

    def test_zero_tek_rpi_frozen(self):
        assert generate_rpi(derive_rpik(ZERO_TEK), 0).rpi.hex() == ZERO_RPI0_HEX

    def test_adjacent_intervals_distinct(self):
        rpik = derive_rpik(ZERO_TEK)
        assert generate_rpi(rpik, 0).rpi != generate_rpi(rpik, 1).rpi

    def test_regeneration_stable(self):
        rpik = derive_rpik(ZERO_TEK)
        assert generate_rpi(rpik, 7) == generate_rpi(rpik, 7)

    def test_regenerate_day_matches_pointwise(self):
        tek = new_tek(random.Random(3), 144)
        day = regenerate_day(tek)
        assert len(day) == 144
        rpik = derive_rpik(tek)
        for i in range(144):
            assert day[i] == generate_rpi(rpik, tek.rolling_start + i)

    def test_regenerate_day_past_the_last_interval_raises(self):
        # the day's intervals 4294967184..4294967327 reach past 2**32 - 1
        tek = TemporaryExposureKey(bytes(16), (2**32 // 144) * 144)
        with pytest.raises(ValueError, match=r"^interval out of range: 4294967296$"):
            regenerate_day(tek)

    def test_day_rpis_pairwise_distinct(self):
        rng = random.Random(9)
        for _ in range(100):
            day = regenerate_day(new_tek(rng, 0))
            assert len({r.rpi for r in day}) == 144


class TestAem:
    def test_round_trip(self):
        aemk = derive_aemk(ZERO_TEK)
        rpi = generate_rpi(derive_rpik(ZERO_TEK), 0).rpi
        meta = Metadata(tx_power=-12)
        assert decrypt_aem(aemk, rpi, encrypt_aem(aemk, rpi, meta)) == meta

    def test_zero_pipeline_aem_frozen(self):
        aemk = derive_aemk(ZERO_TEK)
        rpi = generate_rpi(derive_rpik(ZERO_TEK), 0).rpi
        assert encrypt_aem(aemk, rpi, Metadata()).hex() == ZERO_AEM_HEX

    def test_zerokey_keystream_frozen(self):
        # encrypting all-zero metadata exposes the raw keystream
        aem = encrypt_aem(bytes(16), bytes(16), Metadata(version=0, tx_power=0))
        assert aem.hex() == ZEROKEY_KEYSTREAM4_HEX

    def test_distinct_rpis_distinct_keystream(self):
        rng = random.Random(4)
        aemk = rng.randbytes(16)
        seen = set()
        for _ in range(1000):
            rpi = rng.randbytes(16)
            seen.add(encrypt_aem(aemk, rpi, Metadata()))
        assert len(seen) == 1000

    def test_wrong_rpi_garbles(self):
        aemk = derive_aemk(ZERO_TEK)
        rpik = derive_rpik(ZERO_TEK)
        meta = Metadata(tx_power=5)
        aem = encrypt_aem(aemk, generate_rpi(rpik, 0).rpi, meta)
        rng = random.Random(11)
        hits = sum(
            decrypt_aem(aemk, rng.randbytes(16), aem) == meta for _ in range(200)
        )
        assert hits == 0

    def test_decrypt_never_rejects(self):
        aemk = derive_aemk(ZERO_TEK)
        rpi = generate_rpi(derive_rpik(ZERO_TEK), 3).rpi
        rng = random.Random(5)
        for _ in range(500):
            decrypt_aem(aemk, rpi, rng.randbytes(4))  # must not raise

    def test_sample_pipeline_frozen(self):
        tek = TemporaryExposureKey(SAMPLE_TEK, 2880)
        rpik, aemk = derive_rpik(tek), derive_aemk(tek)
        assert rpik.hex() == SAMPLE_RPIK_HEX
        assert aemk.hex() == SAMPLE_AEMK_HEX
        rpi = generate_rpi(rpik, 2881)
        assert rpi.rpi.hex() == SAMPLE_RPI_HEX
        assert encrypt_aem(aemk, rpi.rpi, Metadata(tx_power=-12)).hex() == SAMPLE_AEM_HEX


@given(
    aemk=st.binary(min_size=16, max_size=16),
    rpi=st.binary(min_size=16, max_size=16),
    tx=st.integers(min_value=-127, max_value=127),
    mask=st.binary(min_size=4, max_size=4),
)
def test_malleability_law(aemk, rpi, tx, mask):
    """decrypt(encrypt(m) XOR mask) == m XOR mask, for every mask."""
    meta = Metadata(tx_power=tx)
    aem = encrypt_aem(aemk, rpi, meta)
    forged = bytes(a ^ b for a, b in zip(aem, mask))
    got = decrypt_aem(aemk, rpi, forged).to_bytes()
    want = bytes(a ^ b for a, b in zip(meta.to_bytes(), mask))
    assert got == want


@given(st.binary(min_size=16, max_size=16), st.integers(min_value=0, max_value=2**32 - 1))
def test_rpi_matches_reference(rpik, interval):
    assert generate_rpi(rpik, interval).rpi == ref.ref_rpi(rpik, interval)


def test_interval_number():
    assert interval_number(0) == 0
    assert interval_number(599) == 0
    assert interval_number(600) == 1
    assert interval_number(86400) == 144


def test_vectors_shape_and_determinism():
    v1 = generate_test_vectors(10, seed=7)
    v2 = generate_test_vectors(10, seed=7)
    assert v1 == v2
    assert len(v1) == 10
    assert list(v1[0]) == ["tek_hex", "interval", "rpik_hex", "rpi_hex", "aemk_hex", "meta_hex", "aem_hex"]
    assert generate_test_vectors(10, seed=8) != v1
    with pytest.raises(ValueError):
        generate_test_vectors(0, seed=1)
