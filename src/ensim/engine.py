"""Scenario orchestration: config schema, end-to-end run loop, artifact output.

Each tick the loop runs goes in fixed order: scheduled diagnoses publish
keys; honest app devices broadcast; the attacker plans and deputies
re-emit; the world delivers into its scan log and takes the tick's
injections; the attacker takes in the deputy links first heard this tick,
which is all a relay plan needs, and fixes each new relay candidate's
window then. Then its repeats: every later tick before the next change
sends the same emissions over the same links, and only `t` and the noise
differ, so the world delivers them in one step and the loop repeats the
tick's relay plan rows over them (`RowLog.repeat`, as the world repeats
its scan rows: each is one span, whose entries or links are stored once,
and no entry is made or copied). One rule ends a
span: the next change is the earliest of the next identifier
rotation (every `crypto.INTERVAL_SECONDS`), waypoint, diagnosis, injection,
the end of the run and the next time at which the relay plan could differ
(`AttackerServer.next_plan_change`, which counts the candidates heard on
the tick itself). The world holds only the app and deputy nodes: scenery
neither sends nor hears, so its waypoints end no span.

No event is routed one by one. When the run ends, the published-key
snapshot's identifier index is built once and shared by every device's
matching and the attacker's re-identification, which make one join
(`device.published_kind`) over the frames the log decodes once per
distinct payload (`ScanLog.kind`). Only the devices' rows of links that
pass it are split by receiver (`RowLog.rows_of`, then `RowLog.group`,
the one grouping of the log's rows), and each device matches its share.
A device's `sightings`, every row it heard, is found in the log only if
something reads it.

Ground truth for false-positive accounting is tracked outside the
protocol: each notification carries how long its receiver heard the key
straight from its owner (`ExposureNotification.direct_duration`, the close
matched ticks whose link is neither relayed nor injected). A notification
is a genuine contact only if that direct exposure alone reaches the
duration threshold. It counts only hearings of the matched key, so contact
with the owner on another day does not make a notification genuine.

Configs are checked against one field table per object (`SCENARIO_FIELDS`
and the tables it nests, `SWEEP_FIELDS`), which maps every key the object
may hold to its type-and-range check, and by `ScenarioConfig.from_dict`'s
cross-field checks; the value types they build do not check themselves. An
absent key takes the default of the value type or function that owns it;
anything invalid raises ScenarioError naming the field before the run starts.

`events.jsonl` and `attack_plan.jsonl` are both `radio.RowLog`s, written by
one batch loop (`radio.write_lines`), the one layout of their lines: a scan
row's key is its link and its value its rssi; a plan row's key is its entry
and the value written its `age_s`. Each writer hands it the log's keys as
dicts of fields, in line order, each key's first row, and the value's name
and place. `dossiers.json` is one guarded
`orjson` call per dossier, which hands a dossier it cannot vouch for to
`json.dumps(indent=2)`.

Everything is keyed off the config's seed; identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import NamedTuple, Optional

import numpy as np
import orjson

from . import beacon
from . import coverage as coverage_mod
from . import crypto
from . import device as device_mod
from .attacker import AttackPolicy, AttackerServer, Zone
from .device import DeviceState, MatchingParams
from .diagnosis import DiagnosisServer
from .radio import (
    NO_ROWS,
    NodeSpec,
    PathLoss,
    Sighting,
    World,
    WorldConfig,
    orjson_writes_as_json,
    write_event_log,
    write_lines,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Config rejected before the run starts; message names the field."""


def _fail(where: str, expected: str, value):
    raise ScenarioError(f"field '{where}' must be {expected}, got {json.dumps(value, default=repr)}")


def _check(ok, expected: str, inner=None):
    """A check: (value, path) -> the value to use, or ScenarioError naming the path.
    `inner`, when given, checks and converts the value before `ok` tests it."""
    def check(value, where):
        checked = inner(value, where) if inner else value
        if not ok(checked):
            _fail(where, expected, value)
        return checked
    return check


def _ranged(kind: str, is_type):
    def make(lo=None, hi=None, above=None):
        limits = [f"{op} {b}" for op, b in ((">=", lo), ("<=", hi), (">", above)) if b is not None]
        return _check(lambda v: is_type(v) and (lo is None or v >= lo) and (hi is None or v <= hi)
                      and (above is None or v > above), " ".join([kind, " and ".join(limits)]).strip())
    return make


integer = _ranged("an integer", lambda v: type(v) is int)
# abs() also rules out nan, infinities and ints too large to become a float
number = _ranged("a number", lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
# node ids are hashed, and names printed and made directories, as UTF-8, which
# encodes every string but one holding a lone surrogate (JSON's "\ud800")
TEXT = _check(lambda v: isinstance(v, str) and not re.search("[\ud800-\udfff]", v),
              "a string UTF-8 can encode")
# the default output directory is out/<name>, so a name is one plain path component
NAME = _check(lambda v: v not in ("", ".", "..") and not any(c in v for c in "/\\\0"),
              "a plain file name (not empty, '.' or '..', no '/', '\\' or NUL)", TEXT)
BOOL = _check(lambda v: isinstance(v, bool), "true or false")


def const(c):
    return _check(lambda v: type(v) is type(c) and v == c, repr(c))


def hex_string(lo: int, hi: int):
    def ok(v):
        try:
            return lo <= len(bytes.fromhex(v)) <= hi
        except (TypeError, ValueError):
            return False
    return _check(ok, f"a hex string of {lo} bytes" if lo == hi else f"a hex string of {lo} to {hi} bytes")


def optional(check):
    return lambda value, where: None if value is None else check(value, where)


def list_of(item, size=None):
    """A list checked item by item, returned as a tuple; exactly `size` long when set."""
    def check(value, where):
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
            _fail(where, f"a list of {size}" if size else "a list", value)
        return tuple(item(v, f"{where}[{i}]") for i, v in enumerate(value))
    return check


class required(functools.partial):
    """Wraps a table row's check: the key must be present. Calls go to the check."""


def parse(table: dict, raw, where: str = "") -> dict:
    """The checked values of the keys present in `raw`, an object whose keys `table`
    maps to their checks. An absent key is left out, so its owner's default applies."""
    if not isinstance(raw, dict):
        _fail(where or "config", "a JSON object", raw)
    path = (lambda key: f"{where}.{key}") if where else str
    for key in raw:
        if key not in table:
            raise ScenarioError(f"unknown field '{path(key)}'")
    for key, check in table.items():
        if isinstance(check, required) and key not in raw:
            raise ScenarioError(f"missing required field '{path(key)}'")
    return {key: table[key](value, path(key)) for key, value in raw.items()}


def obj(table: dict, build=dict):
    return lambda value, where: build(**parse(table, value, where))


def _attack(value, where):
    fields = parse(ATTACK_FIELDS, value, where)
    mask = fields.pop("tamper_mask_hex", None)
    return AttackPolicy(tamper_mask=mask and bytes.fromhex(mask), **fields)


class InjectionSpec(NamedTuple):
    t: int
    receiver: str
    payload_hex: str
    mac: str
    rssi: float = -12.0


# exponent and sigma are bounded so that no rssi can overflow to infinity; with them
# bounded, no finite ref_rssi_at_1m can make it overflow either
PATH_LOSS_FIELDS = {
    "ref_rssi_at_1m": number(),
    "exponent": number(hi=10, above=0),
    "noise_sigma": number(0, 100),
}
WORLD_FIELDS = {
    "tick": integer(1),
    # every tick before it has a 32-bit GAEN interval number
    "duration": required(integer(1, crypto.INTERVAL_SECONDS * 2**32)),
    "radio_range_max": number(above=0),
    "path_loss": obj(PATH_LOSS_FIELDS, PathLoss),
}
MATCHING_FIELDS = {
    "tolerance": integer(0),
    "attenuation_threshold": number(),
    # at least one matched tick, so every notification has a minimum attenuation
    "duration_threshold": integer(1),
}
NODE_FIELDS = {
    "id": required(TEXT),
    "trajectory": required(_check(
        lambda wps: wps and [wp[0] for wp in wps] == sorted(wp[0] for wp in wps),
        "a non-empty list of [t, x, y] sorted by t", list_of(list_of(number(), size=3)))),
    "app": BOOL,
    "deputy": BOOL,
    "tx_power": integer(-128, 127),  # one signed byte in the broadcast metadata
    "infected_at": optional(integer(0)),
    "diagnosed_at": optional(integer(0)),
}
ZONE = _check(lambda z: z.x_min <= z.x_max and z.y_min <= z.y_max,
              "[x_min, y_min, x_max, y_max] with min <= max",
              lambda value, where: Zone(*list_of(number(), size=4)(value, where)))
ATTACK_FIELDS = {
    "harvest_zones": list_of(ZONE),
    "target_zones": list_of(ZONE),
    "tamper_mask_hex": optional(hex_string(4, 4)),
    "relay_latency": integer(0),
    "collect_all": BOOL,
    "relay_window": optional(_check(lambda w: w[0] <= w[1], "[start, end] with start <= end",
                                    list_of(integer(0), size=2))),
    "replay_horizon": integer(0),
    "max_relays_per_deputy": optional(integer(0)),
    "relay_mac": TEXT,
}
INJECTION_FIELDS = {
    "t": required(integer(0)),
    "receiver": required(TEXT),
    "payload_hex": required(hex_string(0, beacon.MAX_PAYLOAD)),
    "mac": required(TEXT),
    "rssi": number(),
}
SCENARIO_FIELDS = {
    "schema_version": const(SCHEMA_VERSION),
    "kind": const("scenario"),
    "name": required(NAME),
    "seed": required(integer()),
    "world": required(obj(WORLD_FIELDS)),
    "matching": obj(MATCHING_FIELDS),
    "nodes": required(list_of(obj(NODE_FIELDS, NodeSpec))),
    "attack": optional(_attack),
    "injections": list_of(obj(INJECTION_FIELDS, InjectionSpec)),
}
# a sweep with an empty axis has no grid point; with more than AXIS_MAX
# alphas_cd two of its cells would share a seed (both axes take the one cap)
ALPHAS = _check(lambda v: 0 < len(v) <= coverage_mod.AXIS_MAX,
                f"a list of 1 to {coverage_mod.AXIS_MAX} numbers in [0, 1]", list_of(number(0, 1)))
SWEEP_FIELDS = {  # all but schema_version, kind and name are arguments of coverage.sweep
    "schema_version": const(SCHEMA_VERSION),
    "kind": required(const("sweep")),
    "name": required(NAME),
    "seed": required(integer(0)),
    "alphas_sc": required(ALPHAS),
    "alphas_cd": required(ALPHAS),
    # bounded so the population and the contact list fit in memory once per CPU
    # (coverage.sweep runs a cell per CPU), and the endpoints in int32 (2n < 2**31)
    "n": integer(2, 10**7),
    "n_contacts": integer(1, 10**7),
    "one_sided_quality": number(0, 1),
}


def _on_schedule(world: WorldConfig, t: int, where: str) -> None:
    if t % world.tick or t >= world.duration:
        raise ScenarioError(f"field '{where}' must fall on a tick (multiple of {world.tick}) "
                            f"before world.duration {world.duration}, got {t}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    world: WorldConfig  # the seed, the radio model and the nodes
    matching: MatchingParams
    attack: Optional[AttackPolicy]
    injections: tuple
    doc: dict = field(compare=False, repr=False)  # the validated document

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        doc = parse(SCENARIO_FIELDS, raw)
        ids = [node.id for node in doc["nodes"]]
        if len(set(ids)) < len(ids):
            duplicate = next(nid for nid in ids if ids.count(nid) > 1)
            raise ScenarioError(f"field 'nodes' has duplicate node id {duplicate!r}")
        world = WorldConfig(nodes=doc["nodes"], seed=doc["seed"], **doc["world"])
        if world.duration % world.tick:
            raise ScenarioError(f"field 'world.duration' must be a multiple of world.tick "
                                f"{world.tick}, got {world.duration}")
        for i, node in enumerate(world.nodes):
            if node.diagnosed_at is not None:
                if not node.app:
                    raise ScenarioError(f"field 'nodes[{i}].diagnosed_at' is set without the app")
                _on_schedule(world, node.diagnosed_at, f"nodes[{i}].diagnosed_at")
        injections = doc.get("injections", ())
        nodes = {node.id: node for node in world.nodes}
        for i, inj in enumerate(injections):
            _on_schedule(world, inj.t, f"injections[{i}].t")
            if inj.receiver not in nodes:
                raise ScenarioError(f"field 'injections[{i}].receiver' is no node: {inj.receiver!r}")
            if not (nodes[inj.receiver].app or nodes[inj.receiver].deputy):
                # scenery hears nothing: the sighting would be logged but never received
                raise ScenarioError(f"field 'injections[{i}].receiver' must be an app or deputy "
                                    f"node, got {inj.receiver!r}")
        return cls(name=doc["name"], world=world, attack=doc.get("attack"), injections=injections,
                   matching=MatchingParams(tick=world.tick, **doc.get("matching", {})),
                   doc=copy.deepcopy(raw))

    def to_dict(self) -> dict:
        return copy.deepcopy(self.doc)


class SweepConfig(NamedTuple):
    """A coverage sweep; `params` are the keyword arguments of `coverage.sweep`."""

    name: str
    params: dict


def load_config(raw, seed: Optional[int] = None):
    """A ScenarioConfig or, for `kind: "sweep"`, a SweepConfig; `seed` overrides the seed."""
    if isinstance(raw, dict) and seed is not None:
        raw = dict(raw, seed=seed)
    if not (isinstance(raw, dict) and raw.get("kind") == "sweep"):
        return ScenarioConfig.from_dict(raw)
    params = parse(SWEEP_FIELDS, raw)
    for key in ("schema_version", "kind", "name"):
        params.pop(key, None)
    return SweepConfig(name=raw["name"], params=params)


def _node_rng(seed: int, node_id: str) -> Random:
    digest = hashlib.sha256(f"{seed}:{node_id}".encode()).digest()
    return Random(int.from_bytes(digest[:8], "big"))


@dataclass
class RunResult:
    config: ScenarioConfig
    world: World
    devices: dict
    deputies: list
    attacker: Optional[AttackerServer]
    published: tuple
    notification_rows: list
    dossiers: list

    @property
    def tek_owner(self) -> dict:  # tek key bytes -> node id
        return {tek.key: nid for nid, dev in self.devices.items()
                for tek in device_mod.retained_keys(dev)}

    @property
    def harvested_owners(self) -> set:
        return harvested_owners(self.attacker) if self.attacker is not None else set()

    @property
    def infected_ids(self):
        return {n.id for n in self.config.world.nodes if n.infected_at is not None}

    def visibility(self) -> coverage_mod.VisibilityReport:
        owner = self.tek_owner
        return coverage_mod.visibility_from_run(
            infected_ids=self.infected_ids,
            deputy_ids=set(self.deputies),
            published_owner_ids={owner[e.tek.key] for e in self.published if e.tek.key in owner},
            harvested_owner_ids=self.harvested_owners,
        )


def harvested_owners(server: AttackerServer) -> set:
    """The nodes a deputy harvested a frame of straight from their own broadcast."""
    links = [server.log.keys[link_id] for link_id in server.harvest_links]
    return {link.emitter for link in links if link.direct}


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    world = World(cfg.world._replace(nodes=tuple(n for n in cfg.world.nodes if n.app or n.deputy)))
    devices = {
        n.id: DeviceState(id=n.id, rng=_node_rng(cfg.world.seed, n.id), tx_power=n.tx_power,
                          log=world.events)
        for n in cfg.world.nodes if n.app
    }
    deputies = sorted(n.id for n in cfg.world.nodes if n.deputy)
    server = (AttackerServer(cfg.attack, log=world.events, deputies=deputies)
              if cfg.attack is not None else None)
    diag = DiagnosisServer()

    diagnoses: dict[int, list] = {}
    for nid in sorted(devices):
        if world.nodes[nid].diagnosed_at is not None:
            diagnoses.setdefault(world.nodes[nid].diagnosed_at, []).append(nid)
    injections: dict[int, list] = {}
    for inj in cfg.injections:
        injections.setdefault(inj.t, []).append(inj)
    scheduled = sorted({*diagnoses, *injections})
    tick, duration = cfg.world.tick, cfg.world.duration

    t = 0
    while t < duration:
        for nid in diagnoses.get(t, ()):
            device_mod.diagnose_and_upload(devices[nid], diag, t)

        emissions = [device_mod.broadcast_current(devices[nid], t) for nid in sorted(devices)]
        if server is not None:
            positions = {d: world.position(d, t) for d in deputies}
            first = len(server.plan)  # this tick's plan rows, repeated over its span
            emissions += map(server.rebroadcast, server.select_relays(t, positions))

        world.step(t, emissions)
        for inj in injections.get(t, ()):
            world.inject(inj.receiver, Sighting(
                payload=bytes.fromhex(inj.payload_hex), mac=inj.mac, rssi=inj.rssi,
                time=t, rx_location=world.position(inj.receiver, t),
            ))
        if server is not None:
            server.catch_up()

        # every tick before the next change repeats this one but for t and the noise
        i = bisect_right(scheduled, t)
        change = min(duration, (t // crypto.INTERVAL_SECONDS + 1) * crypto.INTERVAL_SECONDS,
                     world.next_waypoint_change(t),
                     scheduled[i] if i < len(scheduled) else duration,
                     server.next_plan_change(t) if server is not None else duration)
        end = int(-(-change // tick) * tick)  # the first tick at or after the change
        if end > t + tick:
            world.step(t + tick, emissions, ticks=(end - t) // tick - 1)
            if server is not None:
                plan = server.plan
                entries = plan.decode(np.arange(first, len(plan)))[1]  # this tick's
                plan.repeat(range(t + tick, end, tick), entries)
        t = end

    return _result(cfg, world, devices, deputies, server, diag)


def _result(cfg: ScenarioConfig, world: World, devices: dict, deputies: list,
            server: Optional[AttackerServer], diag: DiagnosisServer) -> RunResult:
    """Match, account and re-identify once the run's ticks are done."""
    log = world.events
    published = diag.snapshot(cfg.world.duration)
    published_teks = [e.tek for e in published]
    index = crypto.identifier_index(published_teks)

    # only the devices' rows of links that carry a published identifier can match
    receiver = [link.receiver for link in log.keys]
    published_frame = device_mod.published_kind(log, index)
    matchable = log.group(receiver.__getitem__, log.rows_of(
        link_id for link_id, nid in enumerate(receiver) if nid in devices and published_frame(link_id)))

    rows = []
    for nid in sorted(devices):
        notes = device_mod.match_exposures(devices[nid], published_teks, cfg.matching, index=index,
                                           rows=matchable.get(nid, NO_ROWS))
        for note in notes:
            rows.append({
                "device_id": nid,
                "tek_hex": note.matched_tek.key.hex(),
                "day": note.day,
                "duration_s": note.cumulative_duration,
                "min_attenuation_db": note.min_attenuation,
                "direct_duration_s": note.direct_duration,  # not written to notifications.csv
                "ground_truth_contact": note.direct_duration >= cfg.matching.duration_threshold,
            })

    dossiers = server.reidentify(published, index=index) if server is not None else []
    return RunResult(
        config=cfg,
        world=world,
        devices=devices,
        deputies=deputies,
        attacker=server,
        published=published,
        notification_rows=rows,
        dossiers=dossiers,
    )


def write_outputs(result: RunResult, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    write_event_log(result.world.events, out / "events.jsonl")

    with open(out / "notifications.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["device_id", "tek_hex", "day", "duration_s",
                    "min_attenuation_db", "ground_truth_contact"])
        for r in result.notification_rows:
            w.writerow([
                r["device_id"], r["tek_hex"], r["day"], r["duration_s"],
                f"{r['min_attenuation_db']:.2f}",
                "true" if r["ground_truth_contact"] else "false",
            ])

    with open(out / "published_teks.jsonl", "w") as fh:
        for e in result.published:
            fh.write(json.dumps({
                "tek_hex": e.tek.key.hex(),
                "rolling_start": e.tek.rolling_start,
                "publication_time": e.publication_time,
            }) + "\n")

    write_attack_plan(result.attacker, out / "attack_plan.jsonl")

    with open(out / "dossiers.json", "wb") as fh:
        fh.write(_dossiers_json(result.dossiers) + b"\n")


def write_attack_plan(server: Optional[AttackerServer], path) -> None:
    """Write the relay plan's rows to `path` as JSON lines through
    `write_lines`: a row's key is its entry, given as its fields, and its value
    is `age_s`, the row's time less the entry's `harvest_t`, written before the
    entry's last field. With no attacker the file is empty."""
    if server is None:
        Path(path).write_text("")
        return
    plan = server.plan
    harvest_t = np.array([fields["harvest_t"] for fields in plan.keys], dtype=np.int64)
    write_lines(path, plan, lambda rows, t, entry: t - harvest_t[entry], plan.keys, "age_s", 1)


def _dossiers_json(dossiers: list) -> bytes:
    """`json.dumps(dossiers, indent=2)`, written one dossier at a time."""
    if not dossiers:
        return b"[]"
    return b"[\n" + b",\n".join(map(_dossier_item, dossiers)) + b"\n]"


def _dossier_item(dossier: dict) -> bytes:
    """`dossier` as an item of `json.dumps(dossiers, indent=2)`: the text of
    `[dossier]` less its brackets, from one `orjson.dumps` call when that
    gives the same bytes, and from `json.dumps` otherwise. Besides `x`, `y`
    and `rssi`, a sighting holds an int `t` and strings. orjson writes those
    numbers as `json.dumps` does only inside `radio.orjson_writes_as_json`'s
    window, which is tested on the values. It writes every character but DEL
    and the non-ASCII ones as `json.dumps` does, which escapes those, so the
    text must be ASCII with no DEL. What orjson or the float conversion
    refuses (a lone surrogate, an int too large for a float) goes to
    `json.dumps` too."""
    numbers = [v for s in dossier["sightings"] for v in (s["x"], s["y"], s["rssi"])]
    try:
        if orjson_writes_as_json(np.array(numbers, dtype=np.float64)).all():
            text = orjson.dumps([dossier], option=orjson.OPT_INDENT_2)
            if text.isascii() and b"\x7f" not in text:
                return text[2:-2]
    except (TypeError, ValueError, OverflowError):
        pass
    return json.dumps([dossier], indent=2).encode()[2:-2]
