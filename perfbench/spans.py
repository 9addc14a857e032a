"""Tracing from outside the program: wrappers on the public functions of each
`ensim` module, spans kept in memory, per-layer metrics computed at the end.

Each wrapper is installed on the attribute its caller looks up at call time
(`ensim.device.broadcast_current`, `ensim.engine.write_event_log`,
`World.step` on the class, ...), so the program itself is unchanged. A span
records name, start, end and the span that was open when it began; a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

from ensim import attacker, beacon, coverage, crypto, device, diagnosis, engine, radio


def _dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._frames: set = set()
        self._payloads: set = set()
        self._world = None
        self._scanners: frozenset = frozenset()

    # -- recording ----------------------------------------------------------

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, span_name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` adds counts."""
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters at the layer boundaries ----------------------------------

    def _after_step(self, args, events):
        world, _, emissions = args
        if world is not self._world:  # worlds are stepped one at a time
            self._world = world
            self._scanners = frozenset(n.id for n in world.config.nodes if n.app or n.deputy)
        scanners = self._scanners
        self._count("radio.events", len(events))
        self._count("radio.pairs", sum(len(scanners) - (e.node_id in scanners) for e in emissions))

    def _after_encrypt(self, args, _):
        self._frames.add((args[0], args[1]))

    def _after_decode(self, args, _):
        self._payloads.add(args[0])

    def _after_match(self, args, _):
        state, published, _params = args
        own = {tek.key for tek in state.tek_history}
        if state.current_tek is not None:
            own.add(state.current_tek.key)
        foreign = sum(1 for tek in published if tek.key not in own)
        self._count("device.match.sighting_key_pairs", len(state.sightings) * foreign)

    def _after_deputy_scan(self, _, record):
        self._count("attacker.harvest_records", record is not None)

    def _after_select(self, _, orders):
        self._count("attacker.relay_orders", len(orders))

    def _after_reidentify(self, args, _):
        server, published = args
        self._count("attacker.reidentify.join_pairs", len(server.db) * len(published))

    def _after_publish(self, args, _):
        self._count("diagnosis.published_keys", len(args[1]))

    def _after_write_outputs(self, args, _):
        self._count("engine.write_outputs.bytes", _dir_bytes(args[1]))

    def _after_simulate(self, args, _):
        self._count("coverage.contacts", args[0].n_contacts)

    def _targets(self):
        """(owner, attribute, span name, after-hook) for every wrapped boundary."""
        return [
            (engine, "run_scenario", "engine.run_scenario", None),
            (engine, "write_outputs", "engine.write_outputs", self._after_write_outputs),
            (engine, "write_event_log", "radio.write_event_log", None),
            (radio.World, "step", "radio.step", self._after_step),
            (radio.World, "inject", "radio.inject", None),
            (device, "broadcast_current", "device.broadcast_current", None),
            (device, "on_scan", "device.on_scan", None),
            (device, "match_exposures", "device.match_exposures", self._after_match),
            (device, "diagnose_and_upload", "device.diagnose_and_upload", None),
            (crypto, "encrypt_aem", "crypto.encrypt_aem", self._after_encrypt),
            (crypto, "decrypt_aem", "crypto.decrypt_aem", None),
            (crypto, "regenerate_day", "crypto.regenerate_day", None),
            (crypto, "derive_rpik", "crypto.derive_rpik", None),
            (crypto, "derive_aemk", "crypto.derive_aemk", None),
            (crypto, "new_tek", "crypto.new_tek", None),
            (beacon, "decode", "beacon.decode", self._after_decode),
            (beacon, "encode_gaen", "beacon.encode_gaen", None),
            (attacker.AttackerServer, "deputy_on_scan", "attacker.deputy_on_scan",
             self._after_deputy_scan),
            (attacker.AttackerServer, "select_relays", "attacker.select_relays", self._after_select),
            (attacker.AttackerServer, "rebroadcast", "attacker.rebroadcast", None),
            (attacker.AttackerServer, "reidentify", "attacker.reidentify", self._after_reidentify),
            (diagnosis.DiagnosisServer, "publish", "diagnosis.publish", self._after_publish),
            (diagnosis.DiagnosisServer, "snapshot", "diagnosis.snapshot", None),
            (coverage, "sweep", "coverage.sweep", None),
            (coverage, "simulate_coverage", "coverage.simulate_coverage", self._after_simulate),
            (coverage, "write_sweep_csv", "coverage.write_sweep_csv", None),
            (engine.ScenarioConfig, "from_dict", "engine.from_dict", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, span_name, after in self._targets():
                raw = vars(owner).get(attr, getattr(owner, attr))
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(span_name, raw.__func__, after)))
                else:
                    setattr(owner, attr, self.wrap(span_name, raw, after))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def layer_metrics(self) -> dict[str, float]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_time = np.bincount(name, weights=dur - child, minlength=k)

        def pick(span_name):
            i = self._ids.get(span_name)
            return (0, 0.0, 0.0) if i is None else (int(calls[i]), float(total[i]), float(self_time[i]))

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        step, enc, dec, regen = (pick(n) for n in (
            "radio.step", "crypto.encrypt_aem", "crypto.decrypt_aem", "crypto.regenerate_day"))
        decode, bcast, match = (pick(n) for n in (
            "beacon.decode", "device.broadcast_current", "device.match_exposures"))
        dep, select, reid = (pick(n) for n in (
            "attacker.deputy_on_scan", "attacker.select_relays", "attacker.reidentify"))
        from_dict, run, write, sim = (pick(n) for n in (
            "engine.from_dict", "engine.run_scenario", "engine.write_outputs",
            "coverage.simulate_coverage"))
        match_id = self._ids.get("device.match_exposures", -1)
        dec_id = self._ids.get("crypto.decrypt_aem", -1)
        dec_in_match = int(np.count_nonzero(
            (name == dec_id) & nested & (name[np.maximum(parent, 0)] == match_id)))
        pairs = c.get("device.match.sighting_key_pairs", 0)
        return {
            "radio.step.calls": step[0],
            "radio.step.self_s": step[2],
            "radio.events": c.get("radio.events", 0),
            "radio.pairs": c.get("radio.pairs", 0),
            "radio.in_range_ratio": ratio(c.get("radio.events", 0), c.get("radio.pairs", 0)),
            "radio.write_event_log.s": pick("radio.write_event_log")[1],
            "crypto.encrypt_aem.calls": enc[0],
            "crypto.encrypt_aem.self_s": enc[2],
            "crypto.encrypt_aem.distinct_ratio": ratio(len(self._frames), enc[0]),
            "crypto.decrypt_aem.calls": dec[0],
            "crypto.decrypt_aem.self_s": dec[2],
            "crypto.regenerate_day.calls": regen[0],
            "crypto.regenerate_day.self_s": regen[2],
            "crypto.derive.calls": pick("crypto.derive_rpik")[0] + pick("crypto.derive_aemk")[0],
            "beacon.decode.calls": decode[0],
            "beacon.decode.self_s": decode[2],
            "beacon.decode.distinct_ratio": ratio(len(self._payloads), decode[0]),
            "beacon.encode_gaen.calls": pick("beacon.encode_gaen")[0],
            "device.broadcast_current.calls": bcast[0],
            "device.broadcast_current.self_s": bcast[2],
            "device.on_scan.calls": pick("device.on_scan")[0],
            "device.match_exposures.self_s": match[2],
            "device.match.sighting_key_pairs": pairs,
            "device.match.hit_ratio": ratio(dec_in_match, pairs),
            "attacker.deputy_on_scan.calls": dep[0],
            "attacker.deputy_on_scan.self_s": dep[2],
            "attacker.harvest_records": c.get("attacker.harvest_records", 0),
            "attacker.select_relays.self_s": select[2],
            "attacker.relay_orders": c.get("attacker.relay_orders", 0),
            "attacker.reidentify.self_s": reid[2],
            "attacker.reidentify.join_pairs": c.get("attacker.reidentify.join_pairs", 0),
            "diagnosis.published_keys": c.get("diagnosis.published_keys", 0),
            "engine.from_dict.s": from_dict[1],
            "engine.run_scenario.s": run[1],
            "engine.run_scenario.self_s": run[2],
            "engine.write_outputs.s": write[1],
            "engine.write_outputs.mb_per_s": ratio(
                c.get("engine.write_outputs.bytes", 0) / 1e6, write[1]),
            "coverage.simulate_coverage.calls": sim[0],
            "coverage.simulate_coverage.self_s": sim[2],
            "coverage.contacts_per_s": ratio(c.get("coverage.contacts", 0), sim[1]),
        }
