"""Scenario orchestration: config schema, end-to-end run loop, artifact output.

Per tick, in fixed order: scheduled diagnoses publish keys; honest app
devices broadcast; the attacker plans and deputies re-emit; the world
delivers; receivers store (honest) or upload (deputies). Matching runs
once at the end of the run against the published-key snapshot; the
snapshot's identifier index is built once and shared by every device's
matching and the attacker's re-identification.

Ground truth for false-positive accounting is tracked outside the
protocol: per (receiver, emitter) pair, the ticks with a direct
(non-relayed) reception whose true attenuation is within the matching
threshold. A notification is a genuine contact only if that direct
exposure alone reaches the duration threshold.

Everything is keyed off config.seed; identical configs produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Optional

from . import attacker as attacker_mod
from . import coverage as coverage_mod
from . import crypto
from . import device as device_mod
from .attacker import AttackPolicy, AttackerServer, Zone
from .device import DeviceState, MatchingParams
from .diagnosis import DiagnosisServer
from .radio import (
    Emission,
    NodeSpec,
    PathLoss,
    Sighting,
    World,
    WorldConfig,
    attenuation,
    write_event_log,
)

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Config rejected before the run starts; message names the field."""


@dataclass(frozen=True)
class NodeConfig:
    id: str
    trajectory: tuple
    app: bool = False
    deputy: bool = False
    tx_power: int = 0
    infected_at: Optional[int] = None
    diagnosed_at: Optional[int] = None


@dataclass(frozen=True)
class InjectionSpec:
    t: int
    receiver: str
    payload_hex: str
    mac: str
    rssi: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    tick: int
    duration: int
    radio_range_max: float
    path_loss: PathLoss
    nodes: tuple
    matching: MatchingParams
    attack: Optional[AttackPolicy] = None
    injections: tuple = ()

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        def need(obj, key, where="config"):
            if key not in obj:
                raise ScenarioError(f"missing required field '{key}' in {where}")
            return obj[key]

        if raw.get("kind", "scenario") != "scenario":
            raise ScenarioError(f"field 'kind' is {raw.get('kind')!r}, expected 'scenario'")
        if raw.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ScenarioError(f"unsupported schema_version {raw.get('schema_version')!r}")
        name = need(raw, "name")
        seed = need(raw, "seed")
        if not isinstance(seed, int):
            raise ScenarioError("field 'seed' must be an integer")
        world = need(raw, "world")
        pl_raw = world.get("path_loss", {})
        try:
            path_loss = PathLoss(
                ref_rssi_at_1m=pl_raw.get("ref_rssi_at_1m", -41.0),
                exponent=pl_raw.get("exponent", 2.0),
                noise_sigma=pl_raw.get("noise_sigma", 0.0),
            )
        except ValueError as e:
            raise ScenarioError(f"world.path_loss: {e}") from e

        nodes = []
        ids = set()
        for i, nd in enumerate(need(raw, "nodes")):
            where = f"nodes[{i}]"
            nid = need(nd, "id", where)
            if nid in ids:
                raise ScenarioError(f"duplicate node id {nid!r}")
            ids.add(nid)
            traj = tuple(tuple(wp) for wp in need(nd, "trajectory", where))
            node = NodeConfig(
                id=nid,
                trajectory=traj,
                app=nd.get("app", False),
                deputy=nd.get("deputy", False),
                tx_power=nd.get("tx_power", 0),
                infected_at=nd.get("infected_at"),
                diagnosed_at=nd.get("diagnosed_at"),
            )
            if node.diagnosed_at is not None and not node.app:
                raise ScenarioError(f"{where}: diagnosed_at set on a node without the app")
            nodes.append(node)

        m_raw = raw.get("matching", {})
        matching = MatchingParams(
            tolerance=m_raw.get("tolerance", 7200),
            attenuation_threshold=m_raw.get("attenuation_threshold", 55.0),
            duration_threshold=m_raw.get("duration_threshold", 900),
            tick=world.get("tick", 1),
        )

        attack = None
        if raw.get("attack") is not None:
            a = raw["attack"]
            mask_hex = a.get("tamper_mask_hex")
            window = a.get("relay_window")
            try:
                attack = AttackPolicy(
                    harvest_zones=tuple(Zone(*z) for z in a.get("harvest_zones", [])),
                    target_zones=tuple(Zone(*z) for z in a.get("target_zones", [])),
                    tamper_mask=bytes.fromhex(mask_hex) if mask_hex else None,
                    relay_latency=a.get("relay_latency", 5),
                    collect_all=a.get("collect_all", False),
                    relay_window=tuple(window) if window else None,
                    replay_horizon=a.get("replay_horizon", 7200),
                    max_relays_per_deputy=a.get("max_relays_per_deputy", 1),
                    relay_mac=a.get("relay_mac", attacker_mod.DEFAULT_RELAY_MAC),
                )
            except (ValueError, TypeError) as e:
                raise ScenarioError(f"attack: {e}") from e

        injections = []
        for i, inj in enumerate(raw.get("injections", [])):
            where = f"injections[{i}]"
            spec = InjectionSpec(
                t=need(inj, "t", where),
                receiver=need(inj, "receiver", where),
                payload_hex=need(inj, "payload_hex", where),
                mac=need(inj, "mac", where),
                rssi=inj.get("rssi", -12.0),
            )
            if spec.receiver not in ids:
                raise ScenarioError(f"{where}: unknown receiver {spec.receiver!r}")
            injections.append(spec)

        try:
            cfg = cls(
                name=name,
                seed=seed,
                tick=world.get("tick", 1),
                duration=need(world, "duration", "world"),
                radio_range_max=world.get("radio_range_max", 50.0),
                path_loss=path_loss,
                nodes=tuple(nodes),
                matching=matching,
                attack=attack,
                injections=tuple(injections),
            )
        except ValueError as e:
            raise ScenarioError(str(e)) from e
        # surface world-level validation errors (tick/duration alignment etc.) now
        try:
            cfg.world_config()
        except ValueError as e:
            raise ScenarioError(f"world: {e}") from e
        return cfg

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "kind": "scenario",
            "name": self.name,
            "seed": self.seed,
            "world": {
                "tick": self.tick,
                "duration": self.duration,
                "radio_range_max": self.radio_range_max,
                "path_loss": {
                    "ref_rssi_at_1m": self.path_loss.ref_rssi_at_1m,
                    "exponent": self.path_loss.exponent,
                    "noise_sigma": self.path_loss.noise_sigma,
                },
            },
            "matching": {
                "tolerance": self.matching.tolerance,
                "attenuation_threshold": self.matching.attenuation_threshold,
                "duration_threshold": self.matching.duration_threshold,
            },
            "nodes": [
                {k: v for k, v in {
                    "id": n.id,
                    "app": n.app,
                    "deputy": n.deputy,
                    "tx_power": n.tx_power,
                    "trajectory": [list(wp) for wp in n.trajectory],
                    "infected_at": n.infected_at,
                    "diagnosed_at": n.diagnosed_at,
                }.items() if v is not None}
                for n in self.nodes
            ],
            "attack": None,
            "injections": [
                {"t": i.t, "receiver": i.receiver, "payload_hex": i.payload_hex,
                 "mac": i.mac, "rssi": i.rssi}
                for i in self.injections
            ],
        }
        if self.attack is not None:
            a = self.attack
            d["attack"] = {
                "harvest_zones": [[z.x_min, z.y_min, z.x_max, z.y_max] for z in a.harvest_zones],
                "target_zones": [[z.x_min, z.y_min, z.x_max, z.y_max] for z in a.target_zones],
                "tamper_mask_hex": a.tamper_mask.hex() if a.tamper_mask else None,
                "relay_latency": a.relay_latency,
                "collect_all": a.collect_all,
                "relay_window": list(a.relay_window) if a.relay_window else None,
                "replay_horizon": a.replay_horizon,
                "max_relays_per_deputy": a.max_relays_per_deputy,
                "relay_mac": a.relay_mac,
            }
        return d

    def world_config(self) -> WorldConfig:
        specs = tuple(
            NodeSpec(id=n.id, trajectory=n.trajectory, app=n.app, deputy=n.deputy,
                     tx_power=n.tx_power)
            for n in self.nodes
        )
        return WorldConfig(
            nodes=specs,
            path_loss=self.path_loss,
            radio_range_max=self.radio_range_max,
            tick=self.tick,
            duration=self.duration,
            seed=self.seed,
        )


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
    direct_close_ticks: dict  # (receiver_id, emitter_id) -> set of ticks
    harvested_owners: set
    tek_owner: dict  # tek key bytes -> node id

    @property
    def infected_ids(self):
        return {n.id for n in self.config.nodes if n.infected_at is not None}

    def visibility(self) -> coverage_mod.VisibilityReport:
        return coverage_mod.visibility_from_run(
            infected_ids=self.infected_ids,
            deputy_ids=set(self.deputies),
            published_owner_ids={self.tek_owner[e.tek.key] for e in self.published
                                 if e.tek.key in self.tek_owner},
            harvested_owner_ids=self.harvested_owners,
        )


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    world = World(cfg.world_config())
    node_by_id = {n.id: n for n in cfg.nodes}
    devices = {
        n.id: DeviceState(id=n.id, rng=_node_rng(cfg.seed, n.id), tx_power=n.tx_power)
        for n in cfg.nodes if n.app
    }
    deputies = sorted(n.id for n in cfg.nodes if n.deputy)
    server = AttackerServer(cfg.attack) if cfg.attack is not None else None
    diag = DiagnosisServer()

    injections: dict[int, list] = {}
    for inj in cfg.injections:
        injections.setdefault(inj.t, []).append(inj)

    direct_close: dict[tuple, set] = {}
    harvested_owners: set = set()

    for t in range(0, cfg.duration, cfg.tick):
        for nid in sorted(devices):
            node = node_by_id[nid]
            if node.diagnosed_at == t:
                device_mod.diagnose_and_upload(devices[nid], diag, t)

        emissions = []
        for nid in sorted(devices):
            frame = device_mod.broadcast_current(devices[nid], t)
            if frame is not None:
                emissions.append(Emission(
                    node_id=nid, payload=frame.payload, mac=frame.mac,
                    tx_power=devices[nid].tx_power, relay=False,
                ))
        if server is not None:
            positions = {d: world.position(d, t) for d in deputies}
            for order in server.select_relays(t, positions):
                emissions.append(server.rebroadcast(
                    order, t, tx_power=node_by_id[order.deputy_id].tx_power))

        events = world.step(t, emissions)
        for inj in injections.get(t, ()):
            sighting = Sighting(
                payload=bytes.fromhex(inj.payload_hex), mac=inj.mac, rssi=inj.rssi,
                time=t, rx_location=world.position(inj.receiver, t),
            )
            events.append(world.inject(t, inj.receiver, sighting))

        for ev in events:
            rid = ev.receiver_id
            if rid in devices:
                device_mod.on_scan(devices[rid], ev.sighting)
            if rid in deputies and server is not None:
                record = server.deputy_on_scan(rid, ev.sighting)
                if record is not None and ev.emitter_id is not None and not ev.relay:
                    harvested_owners.add(ev.emitter_id)
            if ev.emitter_id is not None and not ev.relay:
                true_att = attenuation(node_by_id[ev.emitter_id].tx_power, ev.sighting.rssi)
                if true_att <= cfg.matching.attenuation_threshold:
                    direct_close.setdefault((rid, ev.emitter_id), set()).add(t)

    published = diag.snapshot(cfg.duration)
    tek_owner = {}
    for nid, dev in devices.items():
        for tek in dev.tek_history:
            tek_owner[tek.key] = nid
        if dev.current_tek is not None:
            tek_owner[dev.current_tek.key] = nid

    rows = []
    published_teks = [e.tek for e in published]
    index = crypto.identifier_index(published_teks)
    for nid in sorted(devices):
        notes = device_mod.match_exposures(devices[nid], published_teks, cfg.matching, index=index)
        for note in notes:
            owner = tek_owner.get(note.matched_tek.key)
            direct = direct_close.get((nid, owner), set()) if owner else set()
            genuine = len(direct) * cfg.tick >= cfg.matching.duration_threshold
            rows.append({
                "device_id": nid,
                "tek_hex": note.matched_tek.key.hex(),
                "day": note.day,
                "duration_s": note.cumulative_duration,
                "min_attenuation_db": note.min_attenuation,
                "ground_truth_contact": genuine,
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
        direct_close_ticks=direct_close,
        harvested_owners=harvested_owners,
        tek_owner=tek_owner,
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

    plan = result.attacker.plan_log if result.attacker is not None else []
    with open(out / "attack_plan.jsonl", "w") as fh:
        for line in attacker_mod.plan_log_lines(plan):
            fh.write(line + "\n")

    (out / "dossiers.json").write_text(attacker_mod.dossier_json(result.dossiers) + "\n")
