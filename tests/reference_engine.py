"""Reference run loop: every tick of a scenario run on its own.

`run_scenario` is the engine's loop before runs of identical ticks were
stepped at once. On every tick, in fixed order: scheduled diagnoses
publish keys, honest app devices broadcast, the attacker plans and
deputies re-emit, the world delivers one tick and takes the tick's
injections, and the attacker takes in the deputy links first heard. It
ends with `engine._result`, as `engine.run_scenario` does, so the two
differ only in how they step; test_engine_oracle.py checks that they
write the same artifacts, byte for byte.
"""

from ensim import device as device_mod
from ensim import engine
from ensim.attacker import AttackerServer
from ensim.device import DeviceState
from ensim.diagnosis import DiagnosisServer
from ensim.radio import Sighting, World


def run_scenario(cfg):
    world = World(cfg.world)
    node_by_id = world.nodes
    devices = {
        n.id: DeviceState(id=n.id, rng=engine._node_rng(cfg.world.seed, n.id), tx_power=n.tx_power,
                          log=world.events)
        for n in cfg.world.nodes if n.app
    }
    deputies = sorted(n.id for n in cfg.world.nodes if n.deputy)
    server = (AttackerServer(cfg.attack, log=world.events, deputies=deputies)
              if cfg.attack is not None else None)
    diag = DiagnosisServer()

    injections = {}
    for inj in cfg.injections:
        injections.setdefault(inj.t, []).append(inj)

    for t in range(0, cfg.world.duration, cfg.world.tick):
        for nid in sorted(devices):
            node = node_by_id[nid]
            if node.diagnosed_at == t:
                device_mod.diagnose_and_upload(devices[nid], diag, t)

        emissions = [device_mod.broadcast_current(devices[nid], t) for nid in sorted(devices)]
        if server is not None:
            positions = {d: world.position(d, t) for d in deputies}
            for order in server.select_relays(t, positions):
                emissions.append(server.rebroadcast(order))

        world.step(t, emissions)
        for inj in injections.get(t, ()):
            world.inject(inj.receiver, Sighting(
                payload=bytes.fromhex(inj.payload_hex), mac=inj.mac, rssi=inj.rssi,
                time=t, rx_location=world.position(inj.receiver, t),
            ))
        if server is not None:
            server.catch_up()

    return engine._result(cfg, world, devices, deputies, server, diag)
