"""Codec for BLE legacy advertising payloads (31 bytes max).

A payload is a sequence of AD structures: [length][type][length-1 value
bytes]; a zero length byte ends the significant part. Layouts emitted by
the encoders, offsets from payload start:

  exposure-notification frame (31 bytes):
    02 01 1A                          flags
    03 03 6F FD                       complete 16-bit service UUID list [0xFD6F]
    17 16 6F FD  rpi[16] aem[4]       service data: UUID + 20 data bytes

  iBeacon (30 bytes):
    02 01 1A
    1A FF  4C 00  02 15  uuid[16]  major[2 BE]  minor[2 BE]  tx[1 signed]

  AltBeacon (31 bytes):
    02 01 1A
    1B FF  mfg[2 LE]  BE AC  id[20]  ref_rssi[1 signed]  mfg_reserved[1]

  Eddystone-URL (<= 31 bytes):
    02 01 1A
    03 03 AA FE
    [5+n] 16  AA FE  10  tx[1 signed]  scheme[1]  encoded-url[n<=17]

Decoding is total: anything malformed or unrecognized classifies as Unknown
and the raw payload bytes are always preserved on the frame, so a decoded
frame's `payload` gives back the input bytes exactly, whatever they are.
"""

from __future__ import annotations

import struct
import uuid as uuidlib
from typing import NamedTuple, Union

MAX_PAYLOAD = 31
GAEN_SERVICE_UUID = 0xFD6F
EDDYSTONE_SERVICE_UUID = 0xFEAA
APPLE_COMPANY_ID = 0x004C
ALTBEACON_CODE = b"\xbe\xac"
ALTBEACON_DEFAULT_MFG = 0x0118

_FLAGS = bytes([0x02, 0x01, 0x1A])
_AD_SERVICE_DATA_16 = 0x16
_AD_MANUFACTURER = 0xFF

_EDDY_SCHEMES = ["http://www.", "https://www.", "http://", "https://"]
_EDDY_EXPANSIONS = [
    ".com/", ".org/", ".edu/", ".net/", ".info/", ".biz/", ".gov/",
    ".com", ".org", ".edu", ".net", ".info", ".biz", ".gov",
]


class Gaen(NamedTuple):
    rpi: bytes
    aem: bytes


class IBeacon(NamedTuple):
    uuid: str
    major: int
    minor: int
    tx: int


class AltBeacon(NamedTuple):
    beacon_id: bytes
    ref_rssi: int
    mfg_id: int = ALTBEACON_DEFAULT_MFG
    mfg_reserved: int = 0


class EddystoneUrl(NamedTuple):
    url: str
    tx: int


class Unknown(NamedTuple):
    data: bytes


Kind = Union[Gaen, IBeacon, AltBeacon, EddystoneUrl, Unknown]


class BeaconFrame(NamedTuple):
    mac: str
    payload: bytes
    kind: Kind


def encode_gaen(rpi: bytes, aem: bytes) -> bytes:
    if len(rpi) != 16:
        raise ValueError(f"rpi must be 16 bytes, got {len(rpi)}")
    if len(aem) != 4:
        raise ValueError(f"aem must be 4 bytes, got {len(aem)}")
    uuid_le = struct.pack("<H", GAEN_SERVICE_UUID)
    return (
        _FLAGS
        + bytes([0x03, 0x03]) + uuid_le
        + bytes([0x17, _AD_SERVICE_DATA_16]) + uuid_le + rpi + aem
    )


def encode_decoy(kind: Kind) -> bytes:
    """Payload bytes for one of the non-GAEN beacon formats."""
    if isinstance(kind, IBeacon):
        u = uuidlib.UUID(kind.uuid)
        body = (
            struct.pack("<H", APPLE_COMPANY_ID)
            + b"\x02\x15"
            + u.bytes
            + struct.pack(">HH", kind.major, kind.minor)
            + struct.pack("b", kind.tx)
        )
        return _FLAGS + bytes([len(body) + 1, _AD_MANUFACTURER]) + body
    if isinstance(kind, AltBeacon):
        if len(kind.beacon_id) != 20:
            raise ValueError(f"altbeacon id must be 20 bytes, got {len(kind.beacon_id)}")
        body = (
            struct.pack("<H", kind.mfg_id)
            + ALTBEACON_CODE
            + kind.beacon_id
            + struct.pack("b", kind.ref_rssi)
            + bytes([kind.mfg_reserved])
        )
        return _FLAGS + bytes([len(body) + 1, _AD_MANUFACTURER]) + body
    if isinstance(kind, EddystoneUrl):
        encoded = _encode_eddystone_url(kind.url)
        if len(encoded) > 18:  # scheme byte + 17 encoded bytes
            raise ValueError(f"url encodes to {len(encoded)} bytes, limit 18")
        uuid_le = struct.pack("<H", EDDYSTONE_SERVICE_UUID)
        body = uuid_le + bytes([0x10]) + struct.pack("b", kind.tx) + encoded
        return (
            _FLAGS
            + bytes([0x03, 0x03]) + uuid_le
            + bytes([len(body) + 1, _AD_SERVICE_DATA_16]) + body
        )
    raise ValueError(f"not a decoy kind: {type(kind).__name__}")


def decode(payload: bytes, mac: str) -> BeaconFrame:
    """Classify a payload; never fails on input up to 31 bytes."""
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload exceeds legacy advertising limit: {len(payload)}")
    return BeaconFrame(mac=mac, payload=bytes(payload), kind=_classify(bytes(payload)))


def _iter_ads(payload: bytes):
    i = 0
    while i < len(payload):
        length = payload[i]
        if length == 0:
            return  # zero length ends the significant part
        if i + 1 + length > len(payload):
            raise ValueError("AD structure runs past payload end")
        yield payload[i + 1], payload[i + 2:i + 1 + length]
        i += 1 + length


def _classify(payload: bytes) -> Kind:
    try:
        ads = list(_iter_ads(payload))
    except ValueError:
        return Unknown(payload)
    for ad_type, value in ads:
        if ad_type == _AD_SERVICE_DATA_16 and len(value) >= 2:
            svc = struct.unpack("<H", value[:2])[0]
            if svc == GAEN_SERVICE_UUID:
                if len(value) - 2 != 20:
                    return Unknown(payload)
                return Gaen(rpi=value[2:18], aem=value[18:22])
            if svc == EDDYSTONE_SERVICE_UUID:
                parsed = _parse_eddystone(value[2:])
                return parsed if parsed is not None else Unknown(payload)
        elif ad_type == _AD_MANUFACTURER:
            if (
                len(value) == 25
                and struct.unpack("<H", value[:2])[0] == APPLE_COMPANY_ID
                and value[2:4] == b"\x02\x15"
            ):
                return IBeacon(
                    uuid=str(uuidlib.UUID(bytes=value[4:20])),
                    major=struct.unpack(">H", value[20:22])[0],
                    minor=struct.unpack(">H", value[22:24])[0],
                    tx=struct.unpack("b", value[24:25])[0],
                )
            if len(value) == 26 and value[2:4] == ALTBEACON_CODE:
                return AltBeacon(
                    beacon_id=value[4:24],
                    ref_rssi=struct.unpack("b", value[24:25])[0],
                    mfg_id=struct.unpack("<H", value[:2])[0],
                    mfg_reserved=value[25],
                )
    return Unknown(payload)


def _encode_eddystone_url(url: str) -> bytes:
    for idx, prefix in sorted(enumerate(_EDDY_SCHEMES), key=lambda p: -len(p[1])):
        if url.startswith(prefix):
            scheme, rest = idx, url[len(prefix):]
            break
    else:
        raise ValueError(f"url must start with one of {_EDDY_SCHEMES}")
    out = bytearray([scheme])
    while rest:
        for code, exp in sorted(enumerate(_EDDY_EXPANSIONS), key=lambda p: -len(p[1])):
            if rest.startswith(exp):
                out.append(code)
                rest = rest[len(exp):]
                break
        else:
            ch = rest[0]
            if not 0x21 <= ord(ch) <= 0x7E:
                raise ValueError(f"character {ch!r} not encodable in an Eddystone URL")
            out.append(ord(ch))
            rest = rest[1:]
    return bytes(out)


def _parse_eddystone(data: bytes):
    # frame type, tx power, scheme, encoded url
    if len(data) < 3 or data[0] != 0x10:
        return None
    tx = struct.unpack("b", data[1:2])[0]
    if data[2] >= len(_EDDY_SCHEMES):
        return None
    url = _EDDY_SCHEMES[data[2]]
    for b in data[3:]:
        if b < len(_EDDY_EXPANSIONS):
            url += _EDDY_EXPANSIONS[b]
        elif 0x21 <= b <= 0x7E:
            url += chr(b)
        else:
            return None
    return EddystoneUrl(url=url, tx=tx)
