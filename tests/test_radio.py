import math
from array import array
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensim.beacon import encode_gaen
from ensim.radio import (
    MIN_DISTANCE_M,
    NOISE_CHUNK_PAIRS,
    TWOPI,
    Emission,
    Link,
    NoiseAhead,
    NodeSpec,
    PathLoss,
    RowLog,
    ScanLog,
    Sighting,
    World,
    WorldConfig,
    attenuation,
    math_log,
    propagate,
    write_event_log,
)

PL = PathLoss(ref_rssi_at_1m=-41.0, exponent=2.0, noise_sigma=0.0)


def make_world(nodes, duration=60, seed=0, radio_range_max=50.0, noise_sigma=0.0):
    cfg = WorldConfig(
        nodes=tuple(nodes),
        path_loss=PathLoss(noise_sigma=noise_sigma),
        radio_range_max=radio_range_max,
        tick=1,
        duration=duration,
        seed=seed,
    )
    return World(cfg)


def heard(log, rows):
    """(receiver, emitter, t, rssi) of each of `rows`, read from the columns and links."""
    t_col, link_col, rssi_col = log.columns()
    return [(log.keys[link_id].receiver, log.keys[link_id].emitter, t, rssi) for link_id, t, rssi
            in zip(link_col[rows].tolist(), t_col[rows].tolist(), rssi_col[rows].tolist())]


def contents(log):
    """Each column's bytes and the links: everything a log holds."""
    return [column.tobytes() for column in log.columns()], log.keys


def still(nid, x, y, **kw):
    return NodeSpec(id=nid, trajectory=((0, x, y),), **kw)


class TestPropagate:
    def test_reference_distance(self):
        assert propagate(0, 1.0, PL, 50.0) == -41.0

    def test_ten_meters(self):
        assert propagate(0, 10.0, PL, 50.0) == pytest.approx(-61.0)

    def test_out_of_range(self):
        assert propagate(0, 50.1, PL, 50.0) is None

    def test_zero_and_negative_distance_clamped(self):
        # co-located nodes count as MIN_DISTANCE_M apart: 40 dB above the 1 m reference
        at_min = propagate(0, MIN_DISTANCE_M, PL, 50.0)
        assert at_min == pytest.approx(-1.0)
        assert propagate(0, 0.0, PL, 50.0) == at_min
        assert propagate(0, -1.0, PL, 50.0) == at_min

    def test_monotone_loss_without_noise(self):
        rssis = [propagate(0, d, PL, 1000.0) for d in (1, 2, 5, 10, 100, 999)]
        assert rssis == sorted(rssis, reverse=True)

    def test_never_amplifies(self):
        for d in (0.01, 0.5, 1.0, 3.0, 49.0):
            assert propagate(0, d, PL, 50.0) <= 0


class TestAttenuation:
    def test_subtraction(self):
        assert attenuation(0, -61.0) == 61.0

    def test_injected_beacon_rssi(self):
        # harvested-in-the-wild beacons arrive at rssi -12; a claimed -12 nets 0 dB
        assert attenuation(-12, -12.0) == 0.0

    def test_lowering_claimed_power_shrinks_attenuation(self):
        # lying 8 dB down about emission power makes the emitter look 8 dB nearer
        assert attenuation(-8, -61.0) == attenuation(0, -61.0) - 8


class TestTrajectory:
    def test_piecewise_constant(self):
        n = NodeSpec(id="a", trajectory=((0, 0.0, 0.0), (10, 5.0, 5.0)))
        assert n.position(0) == (0.0, 0.0)
        assert n.position(9) == (0.0, 0.0)
        assert n.position(10) == (5.0, 5.0)
        assert n.position(99) == (5.0, 5.0)

    @pytest.mark.parametrize("trajectory", [
        ((0, 0.0, 0.0),),
        ((3, 0.0, 0.0), (10, 5.0, 5.0)),
        ((0, 0.0, 0.0), (5, 1.0, 1.0), (5, 2.0, 2.0), (5, 3.0, 3.0), (10, 4.0, 4.0)),
        ((2, 0.0, 0.0), (2, 1.0, 1.0), (7.5, 2.0, 2.0)),
    ])
    def test_waypoint_is_the_linear_rule(self, trajectory):
        def linear(t):  # the last waypoint at or before t, else the first
            current = trajectory[0]
            for wp in trajectory:
                if wp[0] > t:
                    break
                current = wp
            return current

        n = NodeSpec(id="a", trajectory=trajectory)
        times = {wp[0] + d for wp in trajectory for d in (-1, -0.5, 0, 0.5, 1)} | {-10, 99}
        for t in sorted(times):  # before the first time, on each time, between and after the last
            assert n.waypoint(t) is linear(t), t


class TestStep:
    def payload(self):
        return encode_gaen(bytes(16), bytes(4))

    def test_mutual_reception_at_one_meter(self):
        w = make_world([still("a", 0, 0, app=True), still("b", 1, 0, app=True)])
        ems = [
            Emission("a", self.payload(), "aa:aa:aa:aa:aa:aa"),
            Emission("b", self.payload(), "bb:bb:bb:bb:bb:bb"),
        ]
        for t in range(5):
            events = heard(w.events, w.step(t, ems))
            assert {event[:2] for event in events} == {("a", "b"), ("b", "a")}
            for *_, rssi in events:
                assert rssi == -41.0

    def test_beyond_range_silent(self):
        w = make_world([still("a", 0, 0, app=True), still("b", 100, 0, app=True)])
        assert len(w.step(0, [Emission("a", self.payload(), "aa:aa:aa:aa:aa:aa")])) == 0

    def test_non_scanners_hear_nothing(self):
        w = make_world([still("a", 0, 0, app=True), still("c", 1, 0)])
        events = w.step(0, [Emission("a", self.payload(), "aa:aa:aa:aa:aa:aa")])
        assert len(events) == 0

    def test_identical_seeds_identical_logs(self):
        def run(seed):
            w = make_world(
                [still("a", 0, 0, app=True), still("b", 3, 0, app=True)],
                seed=seed, noise_sigma=4.0,
            )
            for t in range(30):
                w.step(t, [Emission("a", self.payload(), "aa:aa:aa:aa:aa:aa")])
            return contents(w.events)

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_single_tick_presence_yields_sighting(self):
        # within range for exactly one tick: still heard at least once
        trajectory = ((0, 1000.0, 0.0), (5, 1.0, 0.0), (6, 1000.0, 0.0))
        n = NodeSpec(id="m", trajectory=trajectory, app=True)
        w = make_world([n, still("d", 0, 0, deputy=True)], duration=20)
        rows = []
        for t in range(20):
            rows += w.step(t, [Emission("m", self.payload(), "cc:cc:cc:cc:cc:cc")])
        assert len(rows) == 1
        (receiver, _, t, _), = heard(w.events, rows)
        assert receiver == "d"
        assert t == 5

    def test_step_outside_schedule_rejected(self):
        w = make_world([still("a", 0, 0, app=True)], duration=10)
        with pytest.raises(ValueError):
            w.step(10, [])
        with pytest.raises(ValueError):
            w.step(-1, [])

    def test_span_outside_schedule_rejected(self):
        ems = [Emission("a", self.payload(), "aa:aa:aa:aa:aa:aa")]
        w = make_world([still("a", 0, 0, app=True), still("b", 1, 0, app=True)], duration=10)
        with pytest.raises(ValueError):
            w.step(6, ems, ticks=5)  # the last tick would be at duration
        with pytest.raises(ValueError):
            w.step(5, ems, ticks=0)
        with pytest.raises(TypeError):
            w.step(5, ems, 2)  # ticks is keyword-only
        assert len(w.events) == 0
        assert len(w.step(5, ems, ticks=5)) == 5  # b hears a on ticks 5 to 9, the last

    def test_span_across_a_waypoint_change_rejected(self):
        moving = NodeSpec(id="m", trajectory=((0, 0.0, 0.0), (4.5, 2.0, 0.0)), app=True)
        w = make_world([moving, still("b", 1, 0, app=True)], duration=10)
        ems = [Emission("m", self.payload(), "cc:cc:cc:cc:cc:cc")]
        assert w.next_waypoint_change(0) == w.next_waypoint_change(4) == 4.5
        assert w.next_waypoint_change(4.5) == math.inf
        with pytest.raises(ValueError):
            w.step(0, ems, ticks=6)  # ticks 0-5 cross the move at 4.5
        assert len(w.step(0, ems, ticks=5)) == 5  # ticks 0-4 stop before it
        assert len(w.step(5, ems, ticks=5)) == 5
        assert w.events.columns()[0].tolist() == list(range(10))

    def test_links_keyed_by_written_position(self, tmp_path):
        # one 10-minute interval: the receiver is back at (0, 0) after a geometry
        # rebuild, and (0.0, 0.0) and (-0.0, 0) compare equal to it but are written
        # differently
        r = NodeSpec(id="r", app=True,
                     trajectory=((0, 0, 0), (1, 0.0, 0.0), (2, 0, 0), (3, -0.0, 0)))
        w = make_world([r, still("e", 1, 0)], duration=4)
        em = Emission("e", self.payload(), "ee:ee:ee:ee:ee:ee")
        for t in range(4):
            w.step(t, [em])
        assert len(w.events.keys) == 3
        assert w.events.columns()[1].tolist() == [0, 1, 0, 2]
        write_event_log(w.events, tmp_path / "events.jsonl")
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert [line[line.index('"rx_x"'):line.index(', "payload_hex"')] for line in lines] == [
            '"rx_x": 0, "rx_y": 0', '"rx_x": 0.0, "rx_y": 0.0', '"rx_x": 0, "rx_y": 0',
            '"rx_x": -0.0, "rx_y": 0']


class TestNoiseAhead:
    # odd sizes, so takes split gaussian pairs; sizes that end exactly at, cross
    # and exceed a refill of 2 * NOISE_CHUNK_PAIRS values
    SIZES = (1, 3, 2 * NOISE_CHUNK_PAIRS - 4, 5, 1, 2 * NOISE_CHUNK_PAIRS + 7, 9,
             6 * NOISE_CHUNK_PAIRS + 1)

    @pytest.mark.parametrize("seed", [0, 1, -5, 2**64 + 3])
    @pytest.mark.parametrize("sigma", [4.0, 0.3])
    def test_matches_random_gauss_value_for_value(self, seed, sigma):
        rng, reference = Random(seed), Random(seed)
        noise = NoiseAhead(rng, sigma)
        for n in self.SIZES:
            got = noise.take(n)
            want = np.array([reference.gauss(0.0, sigma) for _ in range(n)])
            assert len(got) == n
            # bit for bit: 0.0 and -0.0 compare equal
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        ahead = noise.ahead()
        assert len(ahead) % 2 == 1  # the reference holds a cached second gaussian
        drained = np.array([reference.gauss(0.0, sigma) for _ in range(len(ahead))])
        assert ahead.view(np.int64).tolist() == drained.view(np.int64).tolist()
        assert rng.getstate() == reference.getstate()


def test_numpy_cos_and_sin_are_math_cos_and_sin():
    """`NoiseAhead._draw` takes numpy's float64 cos and sin where `Random.gauss`
    takes `math`'s; the two must agree bit for bit on every angle it makes."""
    k = np.random.default_rng(0).integers(0, 1 << 53, size=1 << 20, dtype=np.int64)
    edges = [0, 1, (1 << 53) - 1] + [(q << 51) + d for q in (1, 2, 3) for d in (-2, -1, 0, 1, 2)]
    angles = np.concatenate((k, edges)) * 2.0 ** -53 * TWOPI  # u * TWOPI, as _draw makes it
    listed = angles.tolist()
    for ufunc, reference in ((np.cos, math.cos), (np.sin, math.sin)):
        got = ufunc(angles).view(np.int64)
        want = np.fromiter(map(reference, listed), float, len(listed)).view(np.int64)
        off = np.flatnonzero(got != want)
        assert len(off) == 0, (
            f"np.{ufunc.__name__} differs from math.{reference.__name__} on {len(off)} angles "
            f"(first {listed[off[0]]!r}): the noisy bits move, so TestNoiseAhead, "
            "tests/test_radio_oracle.py, tests/data/golden_digests_noisy.json, "
            "perfbench/digests.json and the low-repeat digests "
            "(tests/test_low_repeat_probe.py) no longer hold")


def test_math_log_is_math_log():
    """`NoiseAhead._draw` takes the log of 1 - u with `math_log` where
    `Random.gauss` takes `math.log`; the two must agree bit for bit on every
    value it makes, at every length, a lone value included."""
    k = np.random.default_rng(1).integers(0, 1 << 53, size=1 << 20, dtype=np.int64)
    u = np.concatenate((k, [0, 1, (1 << 53) - 1])) * 2.0 ** -53
    values = 1.0 - u  # as _draw makes them

    def math_log_bits(x):
        return np.fromiter(map(math.log, x.tolist()), float, len(x)).view(np.int64)

    # first the values on which numpy's own float64 log kernel differs from
    # math.log, if any, then the draw's
    hard = np.concatenate((values[np.log(values).view(np.int64) != math_log_bits(values)], values))
    for x in [values] + [hard[:n] for n in range(1, 18)]:
        off = np.flatnonzero(math_log(x).view(np.int64) != math_log_bits(x))
        assert len(off) == 0, (
            f"math_log differs from math.log on {len(off)} of {len(x)} values "
            f"(first {x[off[0]]!r}): the noisy bits move, so TestNoiseAhead, "
            "tests/test_radio_oracle.py, tests/data/golden_digests_noisy.json, "
            "perfbench/digests.json and the low-repeat digests "
            "(tests/test_low_repeat_probe.py) no longer hold")


def logged(*rows):
    """A log of (receiver, payload) rows at t = 0, 1, ...; a link per distinct pair."""
    log = ScanLog()
    rx = (0.0, 0.0)
    for t, (receiver, payload) in enumerate(rows):
        log.append(receiver, Sighting(payload, "00:00:00:00:00:01", -50.0, t, rx))
    return log


def parts(groups):
    return {k: rows.tolist() for k, rows in groups.items()}


def every(log):
    """Every row of `log`, in log order."""
    return np.arange(len(log))


class TestGroup:
    def receiver(self, log):
        return lambda link_id: log.keys[link_id].receiver

    def test_parts_in_log_order(self):
        log = logged(("a", b"1"), ("b", b"1"), ("a", b"1"), ("b", b"1"), ("b", b"1"), ("a", b"1"))
        assert parts(log.group(self.receiver(log), every(log))) == {"a": [0, 2, 5], "b": [1, 3, 4]}

    def test_none_keys_dropped(self):
        log = logged(("a", b"1"), ("b", b"1"), ("c", b"1"), ("a", b"1"))
        groups = log.group(lambda link_id: None if log.keys[link_id].receiver == "b" else
                           log.keys[link_id].receiver, every(log))
        assert parts(groups) == {"a": [0, 3], "c": [2]}
        assert log.group(lambda link_id: None, every(log)) == {}

    def test_shared_key_merges_links_in_log_order(self):
        # links 0 and 2 are a's, with different payloads; keys come in order of first link id
        log = logged(("a", b"1"), ("b", b"1"), ("a", b"2"), ("a", b"1"), ("b", b"1"), ("a", b"2"))
        groups = log.group(self.receiver(log), every(log))
        assert list(groups) == ["a", "b"]
        assert parts(groups) == {"a": [0, 2, 3, 5], "b": [1, 4]}
        by_payload = log.group(lambda link_id: log.keys[link_id].payload, every(log))
        assert parts(by_payload) == {b"1": [0, 1, 3, 4], b"2": [2, 5]}

    def test_rows_subset(self):
        log = logged(("a", b"1"), ("b", b"1"), ("c", b"1"), ("a", b"1"), ("b", b"1"), ("a", b"2"))
        calls = []

        def key(link_id):
            calls.append(link_id)
            return log.keys[link_id].receiver

        groups = log.group(key, np.array([1, 3, 4, 5]))
        assert parts(groups) == {"b": [1, 4], "a": [3, 5]}
        assert sorted(calls) == [0, 1, 3]  # once per link the rows hold
        assert log.group(key, np.array([], dtype=np.int64)) == {}

    def test_empty_log(self):
        assert ScanLog().group(lambda link_id: link_id, every(ScanLog())) == {}
        assert ScanLog().group(lambda link_id: link_id, np.array([], dtype=np.int64)) == {}

    @pytest.mark.parametrize("n_keys, dtype", [
        (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)])
    def test_code_width(self, n_keys, dtype, monkeypatch):
        # one link and row per key, then a row whose key is None
        log = logged(*[(f"r{i}", b"") for i in range(n_keys)], ("none", b""))
        sorted_dtypes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_dtypes.append(a.dtype)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        groups = log.group(lambda link_id: None if link_id == n_keys else link_id, every(log))
        assert sorted_dtypes == [dtype]
        assert len(groups) == n_keys
        assert all(rows.tolist() == [k] for k, rows in groups.items())


# links that compare equal in pairs but are written differently: rx 0.0 and
# -0.0, int and float
LINKS = [Link(receiver, "e", relay, "ee:ee:ee:ee:ee:ee", b"p", rx)
         for receiver in ("a", "b") for relay in (False, True)
         for rx in ((0.0, 0.0), (-0.0, 0.0), (0, 0.0), (0.0, -0.0))]


class TestRowLog:
    @settings(max_examples=100, deadline=None)
    @given(template=st.lists(st.tuples(st.integers(0, len(LINKS) - 1), st.floats(width=64)),
                             max_size=50),
           t=st.integers(0, 10**6), k=st.integers(0, 20), valued=st.booleans())
    def test_repeat_is_appending_tick_by_tick(self, template, t, k, valued):
        """One tick's rows, interned as `World.step` interns them, repeated at
        each of `times` in one call, are the rows that listing each row of each
        tick on its own gives; key ids run in order of first use, `first`
        holds each key's first row, and a log given no values keeps none."""
        times = range(t, t + 7 * k, 7)
        repeated = RowLog()
        ids = array("i", [repeated.intern(LINKS[i].ident, LINKS[i], row)
                          for row, (i, _) in enumerate(template)])
        values = array("d", [value for _, value in template])
        repeated.repeat(times, ids, values if valued else None)
        # each row on its own, as plain lists
        want_t = [time for time in times for _ in template]
        want_key = [key_id for _ in times for key_id in ids.tolist()]
        want_value = [value for _ in times for _, value in template] if valued else []

        assert len(repeated) == len(template) * k
        got_t, got_key, got_value = repeated.columns()
        assert (got_t.dtype, got_key.dtype, got_value.dtype) == (np.int64, np.int32, np.float64)
        assert got_t.tolist() == want_t and got_key.tolist() == want_key
        assert got_value.tobytes() == array("d", want_value).tobytes()
        first_use = {}  # ident -> (link, first row of the template)
        for row, (i, _) in enumerate(template):
            first_use.setdefault(LINKS[i].ident, (LINKS[i], row))
        assert list(map(repr, repeated.keys)) == [repr(link) for link, _ in first_use.values()]
        assert list(repeated.first) == [row for _, row in first_use.values()]
        assert ids.tolist() == [list(first_use).index(LINKS[i].ident) for i, _ in template]
        if not valued:
            assert len(repeated.value) == 0 and len(repeated.columns()[2]) == 0

    def test_signed_zero_rx_links_are_separate_keys(self):
        log = RowLog()
        zero, negative = LINKS[0], LINKS[1]
        assert zero == negative and zero.ident != negative.ident
        ids = [log.intern(link.ident, link, row) for row, link in enumerate((zero, negative, zero))]
        assert ids == [0, 1, 0]
        assert log.keys[1].rx == (-0.0, 0.0) and list(log.first) == [0, 1]


class TestInject:
    def test_injected_sighting_present_once(self):
        w = make_world([still("a", 0, 0, app=True)])
        s = Sighting(encode_gaen(bytes(16), bytes(4)), "AB:B1:E9:9E:1B:BA", -12.0, 3, (0.0, 0.0))
        w.inject("a", s)
        links = [w.events.keys[link_id] for link_id in w.events.columns()[1].tolist()]
        hits = [link for link in links if link.receiver == "a"]
        assert len(hits) == 1
        assert hits[0].mac == "AB:B1:E9:9E:1B:BA"
        assert hits[0].emitter is None

    def test_unknown_receiver(self):
        w = make_world([still("a", 0, 0, app=True)])
        with pytest.raises(KeyError):
            w.inject("ghost", Sighting(b"", "00:00:00:00:00:00", -12.0, 0, (0.0, 0.0)))
