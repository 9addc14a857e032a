"""Beacon cryptography: daily keys, rolling identifiers, metadata stream cipher.

Key schedule (published GAEN v1.2 layout, all keys 16 bytes):

    tek                               daily secret, one per device per day
    rpik = HKDF-SHA256(tek, "EN-RPIK")
    aemk = HKDF-SHA256(tek, "EN-AEMK")
    rpi_i = AES-128(rpik, "EN-RPI" || 0^6 || uint32le(i))     i = 10-min interval
    aem   = metadata XOR AES-128-CTR keystream(aemk, counter=rpi)

The metadata cipher is an unauthenticated stream mode: flipping ciphertext
bit k flips plaintext bit k, and decryption accepts any 4-byte input. That
malleability is deliberate here; it is the deployed weakness the relay
harness exercises.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from random import Random
from typing import NamedTuple

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

INTERVAL_SECONDS = 600
INTERVALS_PER_DAY = 144

_RPIK_INFO = b"EN-RPIK"
_AEMK_INFO = b"EN-AEMK"
_RPI_PAD_PREFIX = b"EN-RPI" + bytes(6)


def interval_number(unix_seconds: float) -> int:
    """10-minute interval index for a timestamp."""
    return int(unix_seconds // INTERVAL_SECONDS)


def day_start_interval(interval: int) -> int:
    return (interval // INTERVALS_PER_DAY) * INTERVALS_PER_DAY


@dataclass(frozen=True)
class TemporaryExposureKey:
    """Daily 16-byte secret, valid for the 144 intervals starting at rolling_start."""

    key: bytes
    rolling_start: int

    def __post_init__(self):
        if len(self.key) != 16:
            raise ValueError(f"tek key must be 16 bytes, got {len(self.key)}")
        if self.rolling_start < 0 or self.rolling_start % INTERVALS_PER_DAY != 0:
            raise ValueError(
                f"rolling_start must be a non-negative multiple of {INTERVALS_PER_DAY}, "
                f"got {self.rolling_start}"
            )


class RollingProximityIdentifier(NamedTuple):
    rpi: bytes
    interval: int


@dataclass(frozen=True)
class Metadata:
    """Plaintext beacon metadata: version byte, claimed tx power, 2 reserved bytes."""

    version: int = 0x40
    tx_power: int = 0
    reserved: bytes = b"\x00\x00"

    def __post_init__(self):
        # full signed-byte range: decrypting arbitrary bytes may yield 0x80,
        # and decryption must accept anything (no integrity check to fail)
        if not -128 <= self.tx_power <= 127:
            raise ValueError(f"tx_power out of range: {self.tx_power}")
        if len(self.reserved) != 2:
            raise ValueError("reserved must be 2 bytes")

    def to_bytes(self) -> bytes:
        return bytes([self.version & 0xFF]) + struct.pack("b", self.tx_power) + self.reserved

    @classmethod
    def from_bytes(cls, data: bytes) -> "Metadata":
        if len(data) != 4:
            raise ValueError("metadata is exactly 4 bytes")
        return cls(version=data[0], tx_power=struct.unpack("b", data[1:2])[0], reserved=data[2:4])


def new_tek(rng: Random, day_start: int) -> TemporaryExposureKey:
    """Fresh daily key from a seeded generator; day_start must be interval-aligned."""
    if day_start % INTERVALS_PER_DAY != 0:
        raise ValueError(f"day_start {day_start} not aligned to {INTERVALS_PER_DAY}-interval days")
    return TemporaryExposureKey(key=rng.randbytes(16), rolling_start=day_start)


def _hkdf16(ikm: bytes, info: bytes) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=16, salt=None, info=info).derive(ikm)


def derive_rpik(tek: TemporaryExposureKey) -> bytes:
    return _hkdf16(tek.key, _RPIK_INFO)


def derive_aemk(tek: TemporaryExposureKey) -> bytes:
    return _hkdf16(tek.key, _AEMK_INFO)


def _aes_block(key: bytes, block: bytes) -> bytes:
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
    return enc.update(block) + enc.finalize()


def generate_rpi(rpik: bytes, interval: int) -> RollingProximityIdentifier:
    """Identifier broadcast during one 10-minute interval; AES of the padded interval."""
    if interval < 0 or interval >= 1 << 32:
        raise ValueError(f"interval out of range: {interval}")
    padded = _RPI_PAD_PREFIX + struct.pack("<I", interval)
    return RollingProximityIdentifier(rpi=_aes_block(rpik, padded), interval=interval)


def regenerate_day(tek: TemporaryExposureKey) -> list[RollingProximityIdentifier]:
    """All 144 identifiers of one key's day, in interval order.

    This is the step available to anyone holding a published key: the same
    regeneration an honest device performs for matching also hands an
    attacker the full day of pseudonyms to join against harvested beacons.
    """
    intervals = range(tek.rolling_start, tek.rolling_start + INTERVALS_PER_DAY)
    if intervals[-1] >= 1 << 32:
        raise ValueError(f"interval out of range: {max(intervals[0], 1 << 32)}")
    # ECB encrypts each padded block on its own: one call yields the day's 144 rpis
    padded = b"".join(_RPI_PAD_PREFIX + struct.pack("<I", i) for i in intervals)
    rpis = _aes_block(derive_rpik(tek), padded)
    return [RollingProximityIdentifier(rpi=rpis[16 * k:16 * k + 16], interval=i)
            for k, i in enumerate(intervals)]


def identifier_index(teks) -> dict[bytes, list[tuple[int, int]]]:
    """rpi -> [(position in teks, interval)] over every key's day of identifiers.

    The one join between published keys and sighted identifiers, shared by
    exposure matching and re-identification. Each listed key is regenerated
    once; a key listed twice appears under both positions.
    """
    index: dict[bytes, list[tuple[int, int]]] = {}
    for pos, tek in enumerate(teks):
        for r in regenerate_day(tek):
            index.setdefault(r.rpi, []).append((pos, r.interval))
    return index


def _keystream4(aemk: bytes, rpi: bytes) -> bytes:
    if len(rpi) != 16:
        raise ValueError("counter block (rpi) must be 16 bytes")
    enc = Cipher(algorithms.AES(aemk), modes.CTR(rpi)).encryptor()
    return enc.update(bytes(4)) + enc.finalize()


def encrypt_aem(aemk: bytes, rpi: bytes, meta: Metadata) -> bytes:
    """4-byte ciphertext, keystream keyed by aemk with the rpi as counter. No tag."""
    ks = _keystream4(aemk, rpi)
    return bytes(a ^ b for a, b in zip(meta.to_bytes(), ks))


def decrypt_aem(aemk: bytes, rpi: bytes, aem: bytes) -> Metadata:
    """Inverse of encrypt_aem. Never rejects: the mode cannot detect tampering."""
    if len(aem) != 4:
        raise ValueError("aem is exactly 4 bytes")
    ks = _keystream4(aemk, rpi)
    return Metadata.from_bytes(bytes(a ^ b for a, b in zip(aem, ks)))


def generate_test_vectors(count: int, seed: int) -> list[dict]:
    """Deterministic pipeline vectors for cross-checking against a reference.

    One dict per vector with hex fields in stable order:
    tek_hex, interval, rpik_hex, rpi_hex, aemk_hex, meta_hex, aem_hex.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    rng = Random(seed)
    vectors = []
    for _ in range(count):
        tek = TemporaryExposureKey(
            key=rng.randbytes(16),
            rolling_start=rng.randrange(0, 3650) * INTERVALS_PER_DAY,
        )
        interval = tek.rolling_start + rng.randrange(INTERVALS_PER_DAY)
        rpik = derive_rpik(tek)
        aemk = derive_aemk(tek)
        rpi = generate_rpi(rpik, interval)
        meta = Metadata(tx_power=rng.randrange(-40, 13))
        aem = encrypt_aem(aemk, rpi.rpi, meta)
        vectors.append({
            "tek_hex": tek.key.hex(),
            "interval": interval,
            "rpik_hex": rpik.hex(),
            "rpi_hex": rpi.rpi.hex(),
            "aemk_hex": aemk.hex(),
            "meta_hex": meta.to_bytes().hex(),
            "aem_hex": aem.hex(),
        })
    return vectors
