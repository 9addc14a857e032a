"""Central registry of published daily keys.

Publication models a positive diagnosis: once a key is here it is readable
by every party, honest matcher and attacker alike. In-process registry;
reads hand out immutable snapshots, publishes go through the single owner.
"""

from __future__ import annotations

from typing import NamedTuple

from .crypto import TemporaryExposureKey


class PublishedTek(NamedTuple):
    tek: TemporaryExposureKey
    publication_time: int


class DiagnosisServer:
    def __init__(self):
        self._entries: list[PublishedTek] = []

    def publish(self, teks, t: int) -> None:
        for tek in teks:
            self._entries.append(PublishedTek(tek=tek, publication_time=t))

    def snapshot(self, t: int) -> tuple[PublishedTek, ...]:
        """Everything published at or before t; append-only, so snapshots only grow."""
        return tuple(e for e in self._entries if e.publication_time <= t)
