"""Differential test of the attacker's two artifacts on hand-made plans and
dossiers: `engine.write_outputs` writes attack_plan.jsonl through the event
log's batch writer (`radio.write_lines`), each plan entry's text rendered
once, and dossiers.json with one `orjson.dumps` call when a guard on the
dossiers' numbers and text allows it, else one per dossier the guard allows
and `json.dumps` for the rest. It must write the bytes that
reference_artifacts.py writes with one stdlib json call per decision and one
`json.dump(indent=2)`. The cases are the values whose text a hand-rolled
renderer could get wrong: NaN, infinities, -0.0, numbers at the ends of
orjson's window, int coordinates, quoted, non-ASCII and DEL text, ticks of
7 s, plans whose lines cross batches, and empty dossiers. The line rule
both row logs share, `radio.write_lines`, is also checked on its own, on
drawn keys and field counts, ticks of several rows whose `t` may fall or
reach either end of int64, and values drawn from a small pool per key (0.0
and -0.0, NaN, int64), so that batches of rows holding their key's first
value and batches that do not both come up, against one `json.dumps` per
line.
"""

import json
import math
import random
from collections import Counter
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_artifacts
from ensim import crypto, engine, radio
from ensim.attacker import AttackPolicy, AttackerServer, Zone
from ensim.device import DeviceState, broadcast_current
from ensim.diagnosis import PublishedTek
from ensim.radio import WRITE_BATCH_ROWS, ScanLog, Sighting
from test_radio_oracle import NUMBER_EDGES

HOSPITAL = Zone(-10, -10, 10, 10)
FACTORY = Zone(990, -10, 1010, 10)


def server_with(**policy):
    return AttackerServer(AttackPolicy(harvest_zones=(HOSPITAL,), target_zones=(FACTORY,), **policy))


def harvest(server, dev, t, deputy="hosp", loc=(0.0, 0.0), rssi=-40.0, mac=None):
    frame = broadcast_current(dev, t)
    server.deputy_on_scan(deputy, Sighting(frame.payload, mac or frame.mac, rssi, t, loc))


def plan_span(server, t, deputies, times=()):
    """Plan tick t and repeat its rows at each of `times`, as `engine.run_scenario`
    does: the plan rows from the plan's length before `select_relays` on."""
    first = len(server.plan)
    orders = server.select_relays(t, deputies)
    server.plan.repeat(times, server.plan.key[first:])
    return orders


def plan(server, deputies):
    """Plan a tick repeated over three more and a tick on its own: the writer
    puts each row's `t` and `age_s` into its entry's text, so a repeated row is
    written the same way as a planned one."""
    plan_span(server, 600, deputies, range(601, 604))
    plan_span(server, 700, deputies)
    assert list(dict.fromkeys(server.plan.t)) == [600, 601, 602, 603, 700]


def written(server, dossiers, tmp_path):
    """{name: (bytes write_outputs writes, bytes the reference writes)}."""
    result = SimpleNamespace(world=SimpleNamespace(events=ScanLog()), notification_rows=[],
                             published=(), attacker=server, dossiers=dossiers)
    engine.write_outputs(result, tmp_path / "got")
    reference_artifacts.write(server, dossiers, tmp_path / "want")
    return {name: ((tmp_path / "got" / name).read_bytes(), (tmp_path / "want" / name).read_bytes())
            for name in reference_artifacts.NAMES}


def assert_same(server, dossiers, tmp_path) -> dict:
    files = written(server, dossiers, tmp_path)
    for name, (got, want) in files.items():
        assert got == want, name
    return {name: got.decode() for name, (got, _want) in files.items()}


def test_nan_rssi_reaches_a_dossier(tmp_path):
    server = server_with()
    dev = DeviceState(id="victim", rng=random.Random(1))
    harvest(server, dev, 10, rssi=math.nan)
    harvest(server, dev, 20, deputy="hosp2", rssi=-math.inf)
    plan(server, {"fac": (1000.0, 0.0)})
    dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
    assert math.isnan(dossiers[0]["sightings"][0]["rssi"])
    text = assert_same(server, dossiers, tmp_path)
    assert '"rssi": NaN,' in text["dossiers.json"] and '"rssi": -Infinity,' in text["dossiers.json"]


def test_negative_zero_and_int_coordinates(tmp_path):
    server = server_with()
    dev = DeviceState(id="victim", rng=random.Random(2))
    harvest(server, dev, 0, loc=(-0.0, 3))
    plan(server, {"fac": (1000.0, 0.0)})
    dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
    text = assert_same(server, dossiers, tmp_path)
    assert '"harvest_x": -0.0, "harvest_y": 3,' in text["attack_plan.jsonl"]
    assert '"x": -0.0,\n        "y": 3,' in text["dossiers.json"]


def test_quoted_and_non_ascii_ids_and_macs(tmp_path):
    server = server_with(relay_mac='r\u00e9"lay\\')
    dev = DeviceState(id="victim", rng=random.Random(3))
    harvest(server, dev, 0, deputy='h\u00f6sp "1"\\', mac='\u00e4"\\:01\n')
    plan(server, {'f\u00e4b\t"2"': (1000.0, 0.0), "\u2603": (1001.0, 0.0)})
    dossiers = server.reidentify([PublishedTek(dev.current_tek, 2000)])
    text = assert_same(server, dossiers, tmp_path)
    assert '"deputy": "f\\u00e4b\\t\\"2\\""' in text["attack_plan.jsonl"]
    assert '"mac": "\\u00e4\\"\\\\:01\\n"' in text["dossiers.json"]


def test_tick_7_span_writes_each_tick_as_planned_on_its_own(tmp_path):
    """A tick's rows repeated over ticks of 7 s are the rows, and write the
    lines, that planning every tick makes: two candidates relayed by two
    deputies, four rows a tick, tick by tick."""
    deputies = {"fac1": (1000.0, 0.0), "fac2": (1001.0, 1.0)}
    spanned, ticked = (server_with(max_relays_per_deputy=2) for _ in range(2))
    for server in (spanned, ticked):
        for seed, t in ((4, 0), (5, 3)):
            harvest(server, DeviceState(id=f"d{seed}", rng=random.Random(seed)), t)
    spanned.select_relays(14, deputies)
    entries = spanned.plan.keys
    before = [dict(entry) for entry in entries]
    spanned.plan.repeat(range(21, 70, 7), spanned.plan.key[0:])
    ticks = range(14, 70, 7)
    for t in ticks:
        ticked.select_relays(t, deputies)

    assert spanned.plan.keys is entries and entries == before  # no entry made or changed
    assert len(entries) == 4 and ticked.plan.keys == entries
    assert list(spanned.plan.t) == list(ticked.plan.t) == [t for t in ticks for _ in range(4)]
    assert list(spanned.plan.key) == list(ticked.plan.key) == [0, 1, 2, 3] * len(ticks)
    assert list(spanned.plan.first) == list(ticked.plan.first) == [0, 1, 2, 3]
    text = assert_same(spanned, [], tmp_path)
    assert text == assert_same(ticked, [], tmp_path / "ticked")
    lines = text["attack_plan.jsonl"].splitlines()
    assert len(lines) == 4 * len(ticks) and lines[-1].startswith('{"t": 63, ')


def test_no_dossiers_and_no_plan(tmp_path):
    text = assert_same(server_with(), [], tmp_path)
    assert text == {"attack_plan.jsonl": "", "dossiers.json": "[]\n"}
    assert assert_same(None, [], tmp_path / "no_attack") == text


def test_dossier_with_no_sightings(tmp_path):
    server = server_with()
    dev = DeviceState(id="victim", rng=random.Random(6))
    harvest(server, dev, 10)
    stranger = crypto.new_tek(random.Random(77), 0)
    published = [PublishedTek(stranger, 0), PublishedTek(dev.current_tek, 2000)]
    dossiers = server.reidentify(published)
    assert sorted(len(d["sightings"]) for d in dossiers) == [0, 1]
    text = assert_same(server, dossiers, tmp_path)
    assert '"sightings": []\n  }' in text["dossiers.json"]


# -- the dossier writer's guard: orjson's bytes only where they are json.dumps' ---

ORDINARY = {"t": 10, "x": 1.5, "y": -2.25, "rssi": -61.123456789, "mac": "aa:bb:cc:dd:ee:ff"}
# outside orjson's window or not finite, and an int orjson cannot hold
ODD_NUMBERS = (math.nan, math.inf, -math.inf, 1e-05, -1e16, 2 ** 64, 2 ** 70)
# DEL, a line separator, a non-BMP character, a lone surrogate (orjson raises), and
# non-ASCII, quote, backslash and control characters together
ODD_MACS = ("aa:\x7f", "aa:\u2028", "aa:\U0001f600", "aa:\ud800", "\u00e4\"\\:01\n\x1f")


def dossiers_with(*sightings):
    return [{"tek_hex": "ff" * 16, "sightings": []},
            {"tek_hex": "00" * 16, "sightings": [ORDINARY, *sightings, ORDINARY]}]


@pytest.mark.parametrize("value", NUMBER_EDGES + ODD_NUMBERS, ids=repr)
@pytest.mark.parametrize("name", ("x", "y", "rssi"))
def test_dossier_number_at_the_window_edges(name, value, tmp_path):
    """Each number at either end of the window, of both signs, and each that
    orjson writes otherwise than json.dumps or not at all, in each field."""
    assert_same(None, dossiers_with({**ORDINARY, name: value}), tmp_path)


@pytest.mark.parametrize("mac", ODD_MACS, ids=ascii)
def test_dossier_mac_json_escapes(mac, tmp_path):
    text = assert_same(None, dossiers_with({**ORDINARY, "mac": mac}), tmp_path)["dossiers.json"]
    assert text.isascii()


def test_dossiers_in_the_window_are_written_by_orjson(tmp_path, monkeypatch):
    """Dossiers inside the guard never reach the stdlib encoder."""
    dossiers = dossiers_with(*({**ORDINARY, "x": v, "y": -v, "rssi": v}
                               for v in (0, -0.0, 1e-4, 3, 2.0 ** 50 + 0.25, math.nextafter(1e16, 0))))
    want = written(None, dossiers, tmp_path)["dossiers.json"][1]
    monkeypatch.setattr(engine, "json", SimpleNamespace(dumps=None))
    engine.write_outputs(SimpleNamespace(world=SimpleNamespace(events=ScanLog()), notification_rows=[],
                                         published=(), attacker=None, dossiers=dossiers), tmp_path / "orjson")
    assert (tmp_path / "orjson" / "dossiers.json").read_bytes() == want


def clean_dossiers():
    return [{"tek_hex": f"{i:02x}" * 16,
             "sightings": [{**ORDINARY, "t": t, "x": 0.5 * t + i} for t in range(3 + i)]}
            for i in range(4)]


def with_odd(*odd):
    """Clean dossiers but for the (dossier, field, value) of `odd`, each in a
    sighting of its own dossier."""
    dossiers = clean_dossiers()
    for at, name, value in odd:
        dossiers[at]["sightings"][1][name] = value
    return dossiers


@pytest.mark.parametrize("dossiers, stdlib_calls", [
    (with_odd((1, "rssi", math.nan)), 1),
    (with_odd((3, "rssi", -math.inf)), 1),
    (with_odd((0, "x", 1e-5)), 1),
    (with_odd((0, "rssi", math.nan), (2, "rssi", -math.inf), (3, "y", 1e-5)), 3),
    ([], 0),
    (clean_dossiers(), 0),
], ids=["nan_rssi", "minus_inf_rssi", "place_1e-5", "each_in_one_dossier", "none", "clean"])
def test_dossiers_fall_back_one_at_a_time(dossiers, stdlib_calls, monkeypatch):
    """A number orjson cannot vouch for sends only its own dossier to
    json.dumps; the others keep orjson's bytes, and the list is
    json.dumps(indent=2)'s."""
    want = json.dumps(dossiers, indent=2).encode()
    calls = []

    def dumps(value, **kw):
        calls.append(value)
        return json.dumps(value, **kw)

    monkeypatch.setattr(engine, "json", SimpleNamespace(dumps=dumps))
    assert engine._dossiers_json(dossiers) == want
    assert len(calls) == stdlib_calls
    assert all(len(value) == 1 and value[0] in dossiers for value in calls)


# mostly finite floats, so that many draws hold no number the guard must refuse, and
# many below 1e-4: down to 1e-5 orjson writes them without an exponent (`0.000032`)
POOL_NUMBERS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e-4, 1e-4),
                         st.sampled_from(NUMBER_EDGES + ODD_NUMBERS), st.floats(),
                         st.integers(-2 ** 70, 2 ** 70))
POOL_SIGHTINGS = st.fixed_dictionaries({
    "t": st.integers(0, 2 ** 40), "x": POOL_NUMBERS, "y": POOL_NUMBERS, "rssi": POOL_NUMBERS,
    "mac": st.one_of(st.sampled_from(ODD_MACS + (ORDINARY["mac"],)), st.text(max_size=6))})
POOL_DOSSIERS = st.lists(st.fixed_dictionaries({
    "tek_hex": st.binary(min_size=16, max_size=16).map(bytes.hex),
    "sightings": st.lists(POOL_SIGHTINGS, max_size=3)}), max_size=3)


@settings(max_examples=300, deadline=None)
@given(POOL_DOSSIERS)
def test_drawn_dossiers_match_reference(dossiers):
    with tempfile.TemporaryDirectory() as tmp:
        assert_same(None, dossiers, Path(tmp))


# -- the plan through the event log's line renderer -----------------------------

def rendered_batches(monkeypatch) -> list:
    """The number of lines of each batch `radio.render_lines` renders from now on."""
    batches, render_lines = [], radio.render_lines

    def spy(t, key, *args):
        batches.append(len(key))
        return render_lines(t, key, *args)

    monkeypatch.setattr(radio, "render_lines", spy)
    return batches


def test_one_tick_groups_between_widened_groups_cross_batches(tmp_path, monkeypatch):
    """Runs of ticks planned one by one between ticks repeated over more lines
    than a batch, on ticks of 7 s: a batch ends inside a repeated span as often
    as between spans, and no batch holds more lines than WRITE_BATCH_ROWS."""
    deputies = {"fac1": (1000.0, 0.0), "fac2": (1001.0, 1.0)}
    server = server_with(max_relays_per_deputy=2)
    for seed, t in ((7, 0), (8, 3)):
        harvest(server, DeviceState(id=f"d{seed}", rng=random.Random(seed)), t)
    t, sizes = 14, []  # the rows of each span
    for run in (1, 300, 40, 1, 2, 560, 5):
        rows = len(server.plan)
        plan_span(server, t, deputies, range(t + 7, t + 7 * run, 7))
        sizes.append(len(server.plan) - rows)
        t += 7 * run
        for one in range(t, t + 7 * 20, 7):  # ticks planned one by one
            rows = len(server.plan)
            server.select_relays(one, deputies)
            sizes.append(len(server.plan) - rows)
        t += 7 * 20
    assert max(sizes) > 2 * WRITE_BATCH_ROWS and sizes.count(4) > 100
    assert sum(sizes) == len(server.plan) > 4 * WRITE_BATCH_ROWS
    batches = rendered_batches(monkeypatch)
    assert_same(server, [], tmp_path)
    assert sum(batches) == sum(sizes) and max(batches) <= WRITE_BATCH_ROWS  # memory: one batch


def test_group_wider_than_a_batch(tmp_path, monkeypatch):
    """A tick with more decisions than a batch holds lines is cut across
    batches, and its entries, made on the first tick, serve every later one."""
    deputies = {f"fac{i:02d}": (1000.0 + i / 10, 0.0) for i in range(40)}
    server = server_with(max_relays_per_deputy=None)
    for seed in range(30):
        harvest(server, DeviceState(id=f"d{seed}", rng=random.Random(100 + seed)), seed)
    plan_span(server, 100, deputies, range(101, 103))
    plan_span(server, 200, deputies)
    assert len(server.plan.keys) == 1200
    assert list(server.plan.key) == list(range(1200)) * 4
    assert Counter(server.plan.t) == {100: 1200, 101: 1200, 102: 1200, 200: 1200}
    batches = rendered_batches(monkeypatch)
    assert_same(server, [], tmp_path)
    assert batches == [WRITE_BATCH_ROWS] * 4 + [4 * 1200 - 4 * WRITE_BATCH_ROWS]


def test_entry_text_with_format_characters(tmp_path):
    """Deputy ids holding `%`, braces, quotes, `, "age_s": ` and non-ASCII text."""
    server = server_with(max_relays_per_deputy=None)
    for i, deputy in enumerate(('100% {0}', '{"t": 1, "age_s": 2}', '\u00fc\u2028"%s"\\', "\U0001f600")):
        harvest(server, DeviceState(id=f"d{i}", rng=random.Random(200 + i)), i, deputy=deputy)
    plan_span(server, 600, {'{%d} "f\u00e4b"': (1000.0, 0.0), ', "age_s": 5, ': (1001.0, 0.0)},
              range(601, 610))
    plan_span(server, 700, {"%%": (1000.0, 0.0)})
    text = assert_same(server, [], tmp_path)["attack_plan.jsonl"]
    assert '"deputy": ", \\"age_s\\": 5, "' in text


def test_harvest_coordinates_at_the_window_edges(tmp_path):
    """Harvest places at each end of orjson's number window, of both signs,
    and past it: harvest_x and harvest_y stay json.dumps' text."""
    server = AttackerServer(AttackPolicy(target_zones=(FACTORY,), max_relays_per_deputy=None))
    for i, v in enumerate(NUMBER_EDGES + (1e-05, 2 ** 64)):
        harvest(server, DeviceState(id=f"d{i}", rng=random.Random(300 + i)), i, loc=(v, -v))
    plan(server, {"fac": (1000.0, 0.0)})
    text = assert_same(server, [], tmp_path)["attack_plan.jsonl"]
    assert '"harvest_x": 1e-05, "harvest_y": -1e-05,' in text


def test_repeat_after_a_tick_that_planned_nothing_adds_no_row():
    """A span after a tick with no deputy in a target zone, and one after a tick
    with targets but no live candidate, add no row: neither repeats the rows
    of the last tick that planned."""
    server = server_with()
    harvest(server, DeviceState(id="victim", rng=random.Random(9)), 0)
    factory = {"fac": (1000.0, 0.0)}
    plan_span(server, 600, factory, range(601, 603))
    rows = list(zip(server.plan.t, server.plan.key))
    assert rows == [(600, 0), (601, 0), (602, 0)]

    # no deputy in a target zone
    assert plan_span(server, 700, {"fac": (0.0, 0.0)}, range(701, 710)) == []
    last = server.plan.keys[0]["deadline_t"]
    # targets, but no live candidate
    assert plan_span(server, last + 1, factory, range(last + 2, last + 9)) == []
    assert list(zip(server.plan.t, server.plan.key)) == rows


def test_pair_planned_in_two_spans_is_one_entry_rendered_once(tmp_path, monkeypatch):
    """Each (deputy, identifier) pair planned in two separate spans has one
    entry, and its text is rendered once, with one `json.dumps` call (its
    line with its first row's `age_s` in place), however many lines it is
    written on."""
    server = server_with()
    harvest(server, DeviceState(id="victim", rng=random.Random(10)), 0)
    plan(server, {"fac1": (1000.0, 0.0), "fac2": (1001.0, 0.0)})
    assert len(server.plan.keys) == 2 and list(server.plan.key) == [0, 1] * 5
    calls, dumps = [], json.dumps
    monkeypatch.setattr(json, "dumps", lambda *args, **kw: calls.append(args) or dumps(*args, **kw))
    engine.write_attack_plan(server, tmp_path / "attack_plan.jsonl")
    assert [args[0]["deputy"] for args in calls] == ["fac1", "fac2"]
    monkeypatch.undo()
    want = "".join(json.dumps(d) + "\n" for d in reference_artifacts.decisions(server))
    assert (tmp_path / "attack_plan.jsonl").read_text() == want


# -- the one line rule of both row logs: radio.write_lines ---------------------

# quote, backslash, control characters, a line separator, DEL, non-ASCII and
# non-BMP characters, and lone surrogates of both halves
ODD_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "\x7f", "\u00e4",
                             "\U0001f600", "\ud800", "\udfff"])
FIELD_TEXT = st.text(st.one_of(st.characters(), ODD_CHARS), max_size=6)
FIELD_VALUES = st.one_of(FIELD_TEXT, st.booleans(), st.none(), st.integers(-2 ** 70, 2 ** 70),
                         st.sampled_from(NUMBER_EDGES))
PLAIN_KEY = st.from_regex(r"[a-z_]{1,8}", fullmatch=True).filter(lambda k: k != "t")


# the ends of int64 and their neighbours, for `t`
INT64_ENDS = (-2 ** 63, -2 ** 63 + 1, 2 ** 63 - 2, 2 ** 63 - 1)


@st.composite
def row_logs(draw):
    """(batch, t, key, value, first, fields, name, tail) for `radio.write_lines`
    with WRITE_BATCH_ROWS set to `batch`: one dict of 2-9 fields per key,
    more rows than a batch holds, in ticks of 1-5 rows whose `t` mostly rises
    but may fall or jump to either end of int64, and a value column of int64
    or float64. Each key's values come from a pool of 1-3 numbers (or of 0.0
    and -0.0, or of NaN and a number), so rows that hold their key's first
    value, bit for bit, and rows that do not share batches. Key ids run in
    the order of first use, and `first` holds each key's first row, as in a
    `RowLog`."""
    name = draw(PLAIN_KEY)
    names = draw(st.lists(FIELD_TEXT.filter(lambda k: k not in ("t", name)),
                          min_size=2, max_size=9, unique=True))
    fields = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(names, FIELD_VALUES)),
                           min_size=1, max_size=4))
    tail = draw(st.integers(1, len(names) - 1))
    batch = draw(st.sampled_from([1, 3, 16]))
    if draw(st.booleans()):
        numbers, dtype, odd = st.integers(-2 ** 63, 2 ** 63 - 1), np.int64, st.nothing()
    else:
        numbers = st.one_of(st.floats(), st.sampled_from(NUMBER_EDGES + (math.nan, math.inf, -math.inf)))
        dtype, odd = np.float64, st.sampled_from([[0.0, -0.0], [math.nan, -61.5]])
    pools = [draw(st.one_of(st.lists(numbers, min_size=1, max_size=3), odd)) for _ in fields]
    sizes = draw(st.lists(st.integers(1, 5), min_size=batch + 1, max_size=batch + 12))
    steps = draw(st.lists(st.one_of(st.sampled_from([1, 1, 7, -7]), st.integers(-2 ** 64, 2 ** 64)),
                          min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    times = [draw(st.one_of(st.sampled_from(INT64_ENDS), st.integers(-2 ** 63, 2 ** 63 - 1)))]
    for step in steps:
        times.append(min(max(times[-1] + step, INT64_ENDS[0]), INT64_ENDS[-1]))
    t = np.repeat(np.array(times, dtype=np.int64), sizes)
    drawn = draw(st.lists(st.integers(0, len(fields) - 1), min_size=len(t), max_size=len(t)))
    value = np.array([draw(st.sampled_from(pools[k])) for k in drawn], dtype=dtype)
    used = list(dict.fromkeys(drawn))  # keys in the order of first use
    key = np.array([used.index(k) for k in drawn], dtype=np.int32)
    first = [drawn.index(k) for k in used]
    return batch, t, key, value, first, [fields[k] for k in used], name, tail


@settings(max_examples=100, deadline=None)
@given(row_logs())
def test_write_lines_is_one_json_dumps_per_line(log):
    """Every line is `json.dumps({"t": t, **head, name: value, **end})`, where
    `end` is the key's last `tail` fields and `head` the others."""
    batch, t, key, value, first, fields, name, tail = log
    want = []
    for i in range(len(key)):
        items = list(fields[key[i]].items())
        line = {"t": t[i].item(), **dict(items[:-tail]), name: value[i].item(), **dict(items[-tail:])}
        want.append(json.dumps(line) + "\n")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(radio, "WRITE_BATCH_ROWS", batch):
        radio.write_lines(Path(tmp) / "log.jsonl", t, key, value, first, fields, name, tail)
        assert (Path(tmp) / "log.jsonl").read_text() == "".join(want)
