"""`radio.RowLog` stores spans of rows, not rows: differential tests against
a plain list of rows, and guards on what a row costs.

The reference log keeps every row as a (t, key id, value) tuple and interns
keys as `RowLog.intern` does. Both are driven through the same operations:
`repeat` over ranges of ticks with steps of 1 and more, with empty key
blocks and empty ranges, repeats that go on from the last one (which the
log stores as one span), at its step or, after a single tick, at another, and (on a `ScanLog`) single-row `append`s before,
at, just after or long after the last row's time. Every reader is checked against the
reference: `len`, `keys`, `first`, `columns()`, `at`, `decode`, `rows_of`
and `group`.
"""

import tracemalloc
from array import array
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensim.radio import NOISE_CHUNK_PAIRS, Emission, Link, NodeSpec, PathLoss, RowLog, ScanLog, \
    Sighting, World, WorldConfig
from ensim import radio
from ensim.device import DeviceState
from test_artifact_writers import harvest, plan_span, server_with

MACS = ("aa:aa:aa:aa:aa:aa", "bb:bb:bb:bb:bb:bb")
# links from outside the radio (as `ScanLog.append` makes them) and radio links
LINKS = [Link(receiver, emitter, False, mac, b"p", (x, 0.0))
         for receiver in ("a", "b") for emitter in (None, "e") for mac in MACS for x in (0.0, 1.5)]

TIMES = st.builds(lambda t, step, k: range(t, t + step * k, step),
                  st.integers(0, 10**6), st.sampled_from([1, 1, 2, 7, 600]),
                  st.one_of(st.just(1), st.integers(0, 6)))  # often one tick
BLOCK = st.lists(st.tuples(st.integers(0, len(LINKS) - 1), st.floats(width=64)), max_size=6)
REPEAT = st.tuples(st.just("repeat"), TIMES, BLOCK)
# the last repeat's block again over k more of its ticks, or over ticks that skip one,
# at its step or at another (which a repeat of one tick goes on with)
AGAIN = st.tuples(st.just("again"), st.integers(0, 4), st.booleans(),
                  st.sampled_from([None, 1, 7]))
# a hearing at the last row's time plus a step, one link of LINKS, its rssi
APPEND = st.tuples(st.just("append"), st.sampled_from([-600, -1, 0, 0, 1, 1, 7200]),
                   st.integers(0, len(LINKS) - 1), st.floats(width=64))


class Reference:
    """A row log as a list of rows, each (t, key id, value or None)."""

    def __init__(self):
        self.rows, self.keys, self.first, self.ids = [], [], [], {}

    def intern(self, ident, key, row):
        if ident not in self.ids:
            self.ids[ident] = len(self.keys)
            self.keys.append(key)
            self.first.append(row)
        return self.ids[ident]


def drive(log, ref, ops, valued):
    """Apply `ops` to `log` and `ref` alike: a repeat interns its block's links
    on the rows of its first tick, as `World.step` does; an append logs one
    hearing from outside the radio at any time."""
    last = None
    for op in ops:
        if op[0] == "again":
            if last is None:
                continue
            _, k, skip, step = op
            times, block = last
            step = step or times.step
            start = times[-1] + (1 + skip) * step
            op = ("repeat", range(start, start + k * step, step), block)
        if op[0] == "repeat":
            _, times, block = op
            last = (times, block) if len(times) else last
            row = len(log)
            ids = array("i", [log.intern(LINKS[i].ident, LINKS[i], row + j)
                              for j, (i, _) in enumerate(block)])
            assert ids.tolist() == [ref.intern(LINKS[i].ident, LINKS[i], row + j)
                                    for j, (i, _) in enumerate(block)]
            values = array("d", [value for _, value in block])
            log.repeat(times, ids, values if valued else None)
            for t in times:
                for key_id, value in zip(ids, values):
                    ref.rows.append((t, key_id, value if valued else None))
        else:
            _, step, i, value = op
            t = max(0, (ref.rows[-1][0] if ref.rows else 0) + step)
            link = LINKS[i]._replace(emitter=None)
            sighting = Sighting(link.payload, link.mac, value, t, link.rx)
            row = log.append(link.receiver, sighting)
            assert row == len(ref.rows)
            ref.rows.append((t, ref.intern(link.ident, link, row), value))


def check(log, ref, data):
    n = len(ref.rows)
    assert len(log) == n
    assert log.keys == ref.keys and list(log.first) == ref.first
    t, key, value = log.columns()
    assert (t.dtype, key.dtype, value.dtype) == (np.int64, np.int32, np.float64)
    assert t.tolist() == [row[0] for row in ref.rows]
    assert key.tolist() == [row[1] for row in ref.rows]
    valued = [row[2] for row in ref.rows if row[2] is not None]
    assert value.tobytes() == array("d", valued).tobytes()
    for row in range(n):
        assert log.at(row) == ref.rows[row][:2]
        assert all(type(x) is int for x in log.at(row))
    rows = sorted(data.draw(st.lists(st.integers(0, n - 1), max_size=40))) if n else []
    start = data.draw(st.integers(0, n))
    for chosen in (rows, range(start, data.draw(st.integers(start, n)))):
        got_t, got_key = log.decode(chosen)
        assert got_t.dtype == np.int64 and got_key.dtype == np.int32
        assert list(zip(got_t.tolist(), got_key.tolist())) == [ref.rows[r][:2] for r in chosen]
    try:  # rows out of log order: right within a span, refused across spans
        got_t, got_key = log.decode(rows[::-1])
        assert list(zip(got_t.tolist(), got_key.tolist())) == [ref.rows[r][:2] for r in rows[::-1]]
    except IndexError:  # so they hold two rows at least, of two spans
        assert len(set(rows)) > 1
    for outside in ([-1], [n]):
        with pytest.raises(IndexError):
            log.decode(outside)
    chosen = data.draw(st.sets(st.integers(0, max(len(ref.keys) - 1, 0)))) if ref.keys else set()
    assert log.rows_of(chosen).tolist() == [r for r, row in enumerate(ref.rows) if row[1] in chosen]
    split = data.draw(st.sampled_from([lambda k: k % 3 or None, lambda k: ref.keys[k].receiver,
                                       lambda k: ref.keys[k].mac if k % 2 else None]))
    # parts in the order of their keys' smallest key id among the rows
    want = {split(k): [] for k in sorted({ref.rows[r][1] for r in rows})}
    want.pop(None, None)
    for r in rows:
        part = split(ref.rows[r][1])
        if part is not None:
            want[part].append(r)
    got = log.group(split, rows)
    assert list(got) == list(want) and {k: v.tolist() for k, v in got.items()} == want
    got = log.group(split, rows, log.decode(rows)[1])  # key ids the caller decoded
    assert list(got) == list(want) and {k: v.tolist() for k, v in got.items()} == want


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(REPEAT, AGAIN), max_size=8), data=st.data())
def test_row_log_without_values_is_its_rows(ops, data):
    log, ref = RowLog(), Reference()
    drive(log, ref, ops, valued=False)
    assert len(log.value) == 0
    check(log, ref, data)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(REPEAT, AGAIN, APPEND), max_size=10), data=st.data())
def test_scan_log_is_its_rows(ops, data):
    log, ref = ScanLog(), Reference()
    drive(log, ref, ops, valued=True)
    check(log, ref, data)


def test_repeat_allocates_nothing_per_row():
    """A million ticks of three rows in a log without values cost one span:
    no column of times or key ids, nor a temporary one, is built."""
    log = RowLog()
    ids = array("i", [log.intern(k, k, k) for k in range(4)][1:])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        log.repeat(range(10**6), ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1024
    assert len(log) == 3 * 10**6 and log.at(3 * 10**6 - 1) == (10**6 - 1, 3)


def test_a_step_is_one_span_whatever_its_noise_chunks(monkeypatch):
    """A step whose ticks are wider than a noise chunk draws its noise one tick
    at a time but appends one span: its key ids are stored once, and its rows
    are those of a step drawn in one chunk."""
    nodes = tuple(NodeSpec(id=f"n{i}", trajectory=((0, float(i), 0.0),), app=True)
                  for i in range(4))
    ems = [Emission(f"n{i}", bytes([i]) * 31, MACS[0]) for i in range(4)]

    def run():
        world = World(WorldConfig(nodes=nodes, path_loss=PathLoss(noise_sigma=4.0), duration=60))
        repeats = []
        monkeypatch.setattr(RowLog, "repeat", lambda log, *a: repeats.append(a) or repeat(log, *a))
        world.step(0, ems, ticks=50)
        monkeypatch.setattr(RowLog, "repeat", repeat)
        return world.events, repeats

    repeat = RowLog.repeat
    whole, whole_repeats = run()
    monkeypatch.setattr(radio, "NOISE_CHUNK_PAIRS", 4)  # 12 rows a tick: a chunk per tick
    chunked, chunked_repeats = run()
    assert NOISE_CHUNK_PAIRS > 12 * 50
    assert len(whole_repeats) == len(chunked_repeats) == 1
    assert len(chunked) == 12 * 50 and len(chunked._pool) == 12
    for a, b in zip(whole.columns(), chunked.columns()):
        assert a.tobytes() == b.tobytes()
    assert np.frombuffer(chunked.value).std() > 0


def test_appends_keep_their_own_times():
    """Rows appended one by one at falling, equal and rising times, between
    repeated spans, read back with their own times."""
    log, rng = ScanLog(), Random(0)
    times = []
    for t in (500, 3, 3, 700, 0):
        log.append("a", Sighting(b"p", MACS[0], -50.0, t, (0.0, 0.0)))
        times.append(t)
        start = rng.randrange(1000)
        log.repeat(range(start, start + 4), array("i", [0]), array("d", [-60.0]))
        times += range(start, start + 4)
    assert log.columns()[0].tolist() == times


def test_a_tick_and_its_repeats_are_one_span():
    """The run loop steps a tick, then the ticks that repeat it: the second
    call goes on with the first one's span. A hearing from outside the radio
    in between ends it."""
    nodes = tuple(NodeSpec(id=f"n{i}", trajectory=((0, float(i), 0.0),), app=True)
                  for i in range(3))
    ems = [Emission(f"n{i}", bytes([i]) * 31, MACS[0]) for i in range(3)]
    world = World(WorldConfig(nodes=nodes, path_loss=PathLoss(noise_sigma=4.0), duration=60))
    world.step(0, ems)
    world.step(1, ems, ticks=9)
    assert len(world.events._row) == 1 and len(world.events) == 60
    world.inject("n0", Sighting(b"x", MACS[1], -50.0, 9, (0.0, 0.0)))
    world.step(10, ems, ticks=5)
    assert len(world.events._row) == 3
    assert world.events.columns()[0].tolist() == [t for t in range(10) for _ in range(6)] + [9] + \
        [t for t in range(10, 15) for _ in range(6)]


def test_a_plan_tick_and_its_repeats_are_one_span_at_any_tick():
    """At a tick of 7 s too, a world step and the steps that repeat it are one
    span, and so are a relay plan tick (a one-tick range of step 1, as
    `AttackerServer.select_relays` writes it) and the ticks of 7 s that the
    run loop repeats it at; either read back tick by tick."""
    nodes = tuple(NodeSpec(id=f"n{i}", trajectory=((0, float(i), 0.0),), app=True)
                  for i in range(3))
    ems = [Emission(f"n{i}", bytes([i]) * 31, MACS[0]) for i in range(3)]
    world = World(WorldConfig(nodes=nodes, path_loss=PathLoss(noise_sigma=4.0), duration=70,
                              tick=7))
    world.step(0, ems)
    world.step(7, ems, ticks=9)
    assert len(world.events._row) == 1
    assert world.events.columns()[0].tolist() == [t for t in range(0, 70, 7) for _ in range(6)]

    deputies = {"fac1": (1000.0, 0.0), "fac2": (1001.0, 1.0)}
    server = server_with(max_relays_per_deputy=2)
    for seed, t in ((4, 0), (5, 3)):
        harvest(server, DeviceState(id=f"d{seed}", rng=Random(seed)), t)
    plan_span(server, 14, deputies, range(21, 70, 7))
    plan_span(server, 70, deputies, range(77, 78, 7))  # a repeat of a single tick
    plan = server.plan
    assert len(plan) == 4 * 10 and len(plan._row) == 2 and len(plan._pool) == 8
    assert plan.columns()[0].tolist() == [t for t in (*range(14, 70, 7), 70, 77) for _ in range(4)]


def test_a_time_outside_int64_leaves_the_log_as_it_was():
    log = ScanLog()
    log.append("a", Sighting(b"p", MACS[0], -50.0, 5, (0.0, 0.0)))
    for time in (2**63, -2**63 - 1):
        with pytest.raises(OverflowError):
            log.append("b", Sighting(b"q", MACS[1], -50.0, time, (0.0, 0.0)))
    assert len(log) == 1 and len(log.keys) == 1 and list(log.first) == [0]
    assert log.columns()[0].tolist() == [5]
