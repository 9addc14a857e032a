"""Deterministic radio world: positioned nodes, log-distance path loss, one scan log.

Geometry is 2-D with piecewise-constant trajectories; distance is the only
geometric quantity the attacks depend on. One broadcast per tick per
emitter, delivered once per scanning node in range. Path loss is computed
once per geometry: the world keeps each emission's deliveries (link ids
and noiseless rssi) and resets them at each waypoint time of any node. A
step delivers a span of ticks that send the same emissions between two
waypoint times at once: it appends one tick's link ids once, as one span
of the log over all its ticks, and fills in the rows' rssi in one loop over
as many whole ticks as fit in one `NoiseAhead` refill, adding their noise.
Identical (config, injections) always produce identical event logs. Noise
comes from the world's own seeded generator: the values `Random.gauss`
would give one delivery at a time, in row order, are drawn ahead in bulk
(`NoiseAhead`): log, cos and sin as numpy arrays, through float64 loops
that call the same C library functions as `math` (`math_log` keeps numpy's
log on such a loop). So the noisy bits depend on the C library's log, cos
and sin.

Every delivery, radio-made or injected, is one row of the world's
`ScanLog`, a `RowLog` (the one row log; the relay plan is another): its
time, a link id and its rssi, the one float that is matched, harvested and
written, however the rssi was given. The log stores the times and link ids
once per span of rows (a `World.step` call, or one hearing from outside
the radio) and only the rssi per row, 8 bytes. A link is what all hearings
of one frame by one receiver at one place share (receiver, emitter, relay
flag, MAC, payload, rx position), stored once. Only `World.step` writes
rows whose link has an emitter; `ScanLog.append` logs every hearing from
outside the radio, so only the radio makes a hearing direct. Devices, the
attacker and the event-log writer read the rows they need from this one
log, by row number, and decode the times and link ids of those rows alone
(`RowLog.at`, `RowLog.decode`); nothing else is kept per event. The log
decodes each distinct payload once (`ScanLog.kind`), for the harvest and
matching alike. Every reader that splits rows by receiver, frame or
published key does so with `RowLog.group`, handed only the rows it may use
(`RowLog.rows_of`). `write_lines` is the one layout of a line of the event
log or the relay plan, decoded one batch of rows at a time. It renders
each key's line but `t` (a link's or a plan entry's fields, with the value
of the key's first row) with one `json.dumps` call, once, and cuts it
around the value. A batch of rows that all hold their key's first value,
bit for bit, as every row of a link does at noise 0, is written from those
lines, each behind its `t`, rendered once per run of rows of one tick. Any
other batch is written from the text around each row's value and the
batch's values, rendered with one `orjson` call, byte for byte as
`json.dumps` would; the few numbers orjson lays out otherwise
(`orjson_writes_as_json`) go to `json.dumps`.

The world is advanced by a single owner; parallelism belongs across
independent runs, not within one.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from operator import itemgetter
from random import Random
from typing import NamedTuple, Optional

import numpy as np
import orjson

from . import beacon

# emitters closer than this are treated as at this distance; keeps the
# path-loss model in its rssi <= tx_power regime for co-located nodes
MIN_DISTANCE_M = 0.01
# rows rendered and written at once by write_lines, for the event log and the
# relay plan; 4096 raised the peak memory of writing a dense log by 2-3 MB
WRITE_BATCH_ROWS = 1 << 10
# batches write_lines decodes from the spans at once: decoding each batch on
# its own cost about 9% of relay's run and write in a fresh process, and 16
# batches of rows' times and key ids are about 200 KB
WRITE_DECODE_BATCHES = 16
# gaussian pairs NoiseAhead draws per refill: drawing only what a tick needs
# leaves numpy's per-call cost dominant when ticks deliver a few dozen events
NOISE_CHUNK_PAIRS = 1 << 12
TWOPI = 2.0 * math.pi
NO_ROWS = np.empty(0, dtype=np.int64)


class PathLoss(NamedTuple):
    """Built through `engine.PATH_LOSS_FIELDS`: exponent in (0, 10], noise_sigma in [0, 100]."""

    ref_rssi_at_1m: float = -41.0
    exponent: float = 2.0
    noise_sigma: float = 0.0


class NodeSpec(NamedTuple):
    """A positioned participant; built through `engine.NODE_FIELDS`: trajectory non-empty, sorted by t.

    The world reads its trajectory, roles and power. It also carries the
    engine's schedule for it, which the world does not read: `infected_at`
    (ground truth) and `diagnosed_at` (when its app publishes its keys).
    """

    id: str
    trajectory: tuple
    app: bool = False
    deputy: bool = False
    tx_power: int = 0
    infected_at: Optional[int] = None
    diagnosed_at: Optional[int] = None

    def waypoint(self, t: float):
        """The waypoint in effect at t: the last one at or before t, else the first."""
        return self.trajectory[max(bisect_right(self.trajectory, t, key=itemgetter(0)) - 1, 0)]

    def position(self, t: float) -> tuple[float, float]:
        _, x, y = self.waypoint(t)
        return (x, y)


class WorldConfig(NamedTuple):
    """Built by `engine.ScenarioConfig.from_dict`: duration a multiple of tick, node ids unique."""

    nodes: tuple
    path_loss: PathLoss = PathLoss()
    radio_range_max: float = 50.0
    tick: int = 1
    duration: int = 3600
    seed: int = 0


class Sighting(NamedTuple):
    """One received beacon, as stored by honest devices and deputies alike."""

    payload: bytes
    mac: str
    rssi: float
    time: int
    rx_location: tuple[float, float]


class Emission(NamedTuple):
    """A frame on the air: its payload under its MAC, sent by node `node_id`
    at that node's true power (`NodeSpec.tx_power`), relayed or its own."""

    node_id: str
    payload: bytes
    mac: str
    relay: bool = False


class Link(NamedTuple):
    """What every hearing of one frame by one receiver at one place shares.

    A log tells links apart by `rx`'s text (`repr`), not its value: 0, 0.0
    and -0.0 compare equal but are written differently, and a place reached
    again is the same link however its position tuple was built.
    """

    receiver: str
    emitter: Optional[str]  # ground-truth annotation; None for a hearing from outside the radio
    relay: bool
    mac: str
    payload: bytes
    rx: tuple

    @property
    def ident(self) -> tuple:
        """What a log tells it apart by: its fields with `repr(rx)` in place of `rx`."""
        return self[:5] + (repr(self.rx),)

    @property
    def direct(self) -> bool:
        """Heard straight from its emitter's broadcast: neither relayed nor injected."""
        return self.emitter is not None and not self.relay


class RowLog:
    """Append-only log of rows, read by row number and stored as spans.

    A span is one tick's key ids (each an index into `keys`) repeated at
    each tick of a `range` of times: what one `repeat` call appends, or
    several that go on from one another. It is stored once, however many
    ticks it covers: its first row number, its range's start and step, its
    width (key ids a tick) and where its key ids lie in one shared
    `array("i")` pool, 40 bytes a span and 4 a key id. A row holds only its
    `value`, a float64 (8 bytes; a log never given values keeps none, so its
    rows cost nothing). Row r of a span of width w that starts at row r0 is
    tick (r - r0) // w of its range and key id (r - r0) % w of its block; a
    span's times are its own, whatever its neighbours hold. Keys are
    interned by an ident on their first row, which `first` holds, so key ids
    run in the order of first use.

    Readers hold row numbers, not rows: `at` and `decode` give the time and
    key id of one row or of an array of rows, `group` splits rows by a key of
    their keys (it is the only grouping of rows) and `rows_of` picks the rows
    of some keys, span by span. `columns()` builds every row's time and key
    id, for tests and tools; nothing in a run or its writers does.
    """

    def __init__(self):
        self.keys: list = []
        self.first = array("q")
        self._ids: dict = {}  # ident -> key id
        # per span: its first row, its first time, its time step, its width and
        # the offset of its key ids in _pool
        self._row, self._t0, self._dt = array("q"), array("q"), array("q")
        self._width, self._at = array("q"), array("q")
        self._pool = array("i")
        self._rows = 0
        self.value = array("d")

    def intern(self, ident, key, row: int) -> int:
        """The id of the key named by `ident`; a new one is `key`, first used on `row`."""
        key_id = self._ids.get(ident)
        if key_id is None:
            key_id = self._ids[ident] = len(self.keys)
            self.keys.append(key)
            self.first.append(row)
        return key_id

    def repeat(self, times: range, keys, values: Optional[array] = None) -> None:
        """Append one tick's rows, key ids `keys` with `values`, at each of
        `times` in turn, as one span (none when it has no rows). When the
        last span has these key ids and its range goes on into `times`, as
        a step's first tick and the ticks that repeat it do, it takes the
        rows instead; a span of one tick takes the step of `times`. A log
        with values takes them here, or (`World.step`) extends `value` with
        them after the call."""
        n = len(keys)
        if not n or not len(times):
            return
        # built first, so a time outside int64 raises before the log changes
        span = array("q", [self._rows, times.start, times.step, n, len(self._pool)])
        ids = np.asarray(keys, dtype=np.int32).tobytes()
        if values is not None:
            self.value.extend(values * len(times))
        last = len(self._row) - 1
        ticks = (self._rows - self._row[last]) // n if last >= 0 else 0  # the last span's
        goes_on = (ticks > 0 and self._width[last] == n
                   and (ticks == 1 or self._dt[last] == times.step)
                   and self._t0[last] + ticks * times.step == times.start
                   and self._pool[self._at[last]:].tobytes() == ids)
        if goes_on:
            self._dt[last] = times.step
        else:
            for column, field in zip((self._row, self._t0, self._dt, self._width, self._at), span):
                column.append(field)
            self._pool.frombytes(ids)
        self._rows += len(times) * n

    def at(self, row: int) -> tuple[int, int]:
        """(t, key id) of row `row`, as Python ints."""
        if not 0 <= row < self._rows:
            raise IndexError(f"row {row} of a log of {self._rows}")
        span = bisect_right(self._row, row) - 1
        tick, col = divmod(row - self._row[span], self._width[span])
        return self._t0[span] + tick * self._dt[span], self._pool[self._at[span] + col]

    def decode(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(t, key id) of each of `rows`, row numbers in log order (repeats
        allowed; any order within one span), as int64 and int32 arrays. One
        `searchsorted` of the spans' first rows among the rows cuts them by
        span; each span that holds some decodes them with its own fields."""
        rows = np.asarray(rows, dtype=np.int64)
        if not len(rows):
            return NO_ROWS, np.empty(0, dtype=np.int32)
        lo, hi = int(rows.min()), int(rows.max())
        if lo < 0 or hi >= self._rows:
            raise IndexError(f"rows {lo}..{hi} outside a log of {self._rows}")
        spans = range(bisect_right(self._row, lo) - 1, bisect_right(self._row, hi))
        if len(spans) == 1:
            cuts = [0, len(rows)]
        elif (rows[1:] < rows[:-1]).any():
            raise IndexError("rows of more than one span must be in log order")
        else:
            cuts = [0, *np.searchsorted(rows, self._row[spans.start + 1:spans.stop]).tolist(),
                    len(rows)]
        pool = np.frombuffer(self._pool, dtype=np.int32)
        ts, keys = [], []
        for span, start, stop in zip(spans, cuts, cuts[1:]):
            if start < stop:
                width, at = self._width[span], self._at[span]
                offset = rows[start:stop] - self._row[span]
                tick = offset // width
                ts.append(self._t0[span] + tick * self._dt[span])
                keys.append(pool[at:at + width][offset - tick * width])
        if len(ts) == 1:
            return ts[0], keys[0]
        return np.concatenate(ts), np.concatenate(keys)

    def columns(self):
        """(t, key, value) of every row: the times and key ids as new int64 and
        int32 arrays, the values as a numpy view, which pins `value`, so none
        may be held across an append."""
        return (*self.decode(np.arange(self._rows)), np.frombuffer(self.value, dtype=np.float64))

    def group(self, key, rows, key_ids=None) -> dict:
        """`rows` (row numbers, in log order) split by `key(key_id)` of each
        row's key: {key: row numbers in the order of `rows`}, in the order in
        which the keys first come up among the rows' key ids. Rows whose key
        is None are left out. `key_ids` are the rows' key ids, as `decode`
        gives them, for a caller that holds them already.

        `key` is called once per key id the rows contain; only the rows handed
        over are decoded, and the split is one stable sort of a per-row code,
        the narrowest unsigned dtype that holds one code per key and a last
        one for None (a stable sort of 8- or 16-bit codes is a radix sort).
        """
        of_row = self.decode(rows)[1] if key_ids is None else key_ids
        heard = np.zeros(len(self.keys), dtype=bool)
        heard[of_row] = True
        present = np.flatnonzero(heard)
        keys = list(map(key, present.tolist()))
        distinct = dict.fromkeys(keys)
        distinct.pop(None, None)
        codes = dict(zip(distinct, range(len(distinct))))
        none = codes[None] = len(distinct)  # the last code
        of_key = np.full(len(self.keys), none, dtype=np.min_scalar_type(none))
        of_key[present] = list(map(codes.__getitem__, keys))
        of_row = of_key[of_row]
        bounds = [0, *np.cumsum(np.bincount(of_row, minlength=none + 1)).tolist()]
        order = np.asarray(rows, dtype=np.int64)[np.argsort(of_row, kind="stable")]
        return {k: order[bounds[i]:bounds[i + 1]] for i, k in enumerate(distinct)}

    def rows_of(self, key_ids) -> np.ndarray:
        """The row numbers, in log order, of the rows whose key is one of
        `key_ids`: a per-key mask over each span's key ids, whose hits repeat
        at each of its ticks, so a reader can hand `group` only the rows it
        may use."""
        keep = np.zeros(len(self.keys), dtype=bool)
        keep[np.fromiter(key_ids, dtype=np.int64)] = True
        kept = keep[np.frombuffer(self._pool, dtype=np.int32)]
        parts = []
        ends = [*self._row[1:], self._rows]
        for row, end, width, at in zip(self._row, ends, self._width, self._at):
            cols = np.flatnonzero(kept[at:at + width])
            if len(cols):
                parts.append((np.arange(row, end, width)[:, None] + cols).ravel())
        return np.concatenate(parts) if parts else NO_ROWS

    def __len__(self) -> int:
        return self._rows


class ScanLog(RowLog):
    """A `RowLog` of hearings: its keys are links, named by `Link.ident`, its values rssi."""

    def __init__(self):
        super().__init__()
        self._kinds: dict = {}  # payload -> the kind of its frame

    def append(self, receiver: str, sighting: Sighting) -> int:
        """Log a hearing from outside the radio, its rssi as a float, as the next
        row and return the row. Its link has no emitter and is no relay: rows
        that have an emitter are written by `World.step` alone."""
        # the rssi and time as the log holds them, so a bad one raises before the log changes
        row, rssi, (time,) = len(self), array("d", [sighting.rssi]), array("q", [sighting.time])
        link = Link(receiver, None, False, sighting.mac, sighting.payload, sighting.rx_location)
        self.repeat(range(time, time + 1), [self.intern(link.ident, link, row)], rssi)
        return row

    def kind(self, link_id: int) -> beacon.Kind:
        """Link `link_id`'s frame kind, decoded (without its MAC) once per distinct payload."""
        payload = self.keys[link_id].payload
        kind = self._kinds.get(payload)
        if kind is None:
            kind = self._kinds[payload] = beacon.decode(payload, "").kind
        return kind


def propagate(tx_power: float, distance: float, path_loss: PathLoss,
              radio_range_max: float) -> Optional[float]:
    """Noiseless received power in dBm, or None beyond radio range. A distance
    below MIN_DISTANCE_M (co-located nodes) counts as MIN_DISTANCE_M."""
    distance = max(distance, MIN_DISTANCE_M)
    if distance > radio_range_max:
        return None
    return (
        tx_power
        + path_loss.ref_rssi_at_1m
        - 10.0 * path_loss.exponent * math.log10(distance)
    )


def attenuation(claimed_tx_power: float, rssi: float) -> float:
    """Distance proxy used for matching: claimed emission power minus rssi.

    Uses the power CLAIMED in the decrypted metadata, not the true one;
    this is exactly the number metadata tampering corrupts.
    """
    return claimed_tx_power - rssi


def math_log(x: np.ndarray) -> np.ndarray:
    """`math.log` of each value of the float64 array `x`, bit for bit, as a new array.

    numpy's float64 log is its own SIMD kernel where the CPU has AVX-512,
    which differs from `math.log` in the last bit on about 0.35% of values.
    numpy takes its scalar loop instead, which calls the C library's `log`
    as `math.log` does, when the output overlaps the input. Here the output
    is the input's buffer one value behind, which numpy computes without a
    copy (each value is read before it is written over). Two one-value views
    would not overlap, so the buffer always holds two values or more.
    """
    n = len(x)
    buf = np.ones(max(n, 2) + 1)  # log(1.0) pads a lone value
    buf[1:n + 1] = x
    np.log(buf[1:], out=buf[:-1])
    return buf[:n]


class NoiseAhead:
    """The values successive `rng.gauss(0.0, sigma)` calls would return, bit for
    bit, drawn ahead in bulk from the same generator.

    A refill takes 128 bits per gaussian pair from `rng.getrandbits`: four of
    the generator's 32-bit outputs, in order, which make two `Random.random()`
    values as CPython does (27 + 26 bits). From those it applies the
    arithmetic of `Random.gauss`, whose `math` calls are the C library's:
    - cos and sin are numpy's float64 ufuncs, which call the C library's
      `cos` and `sin` (numpy's only SIMD sine and cosine is float32), so
      they equal `math.cos` and `math.sin`: none of 10⁷ angles u·2π
      differed (numpy 2.4.6, glibc), and
      `test_numpy_cos_and_sin_are_math_cos_and_sin` fails if that stops
      holding;
    - log is `math_log`, numpy's float64 log kept on its loop that calls
      the C library's `log`, so it equals `math.log`: none of 10⁷ values
      1 - u differed, and `test_math_log_is_math_log` fails if that stops
      holding;
    - products, sums and sqrt are numpy's, correctly rounded like Python's.
    `rng` must have no cached gaussian (`gauss_next`) and no other reader;
    `ahead()` drawn from `rng.gauss` then leaves both generators in the same
    state.
    """

    def __init__(self, rng: Random, sigma: float):
        self.rng = rng
        self.sigma = sigma
        self.values = np.empty(0)
        self.at = 0  # the next value to hand out

    def ahead(self) -> np.ndarray:
        """The values drawn from `rng` and not yet taken."""
        return self.values[self.at:]

    def take(self, n: int) -> np.ndarray:
        """The next `n` values, as a view that the next refill leaves intact."""
        ahead = self.ahead()
        if len(ahead) < n:
            pairs = max(NOISE_CHUNK_PAIRS, (n - len(ahead) + 1) // 2)
            ahead = self.values = np.concatenate((ahead, self._draw(pairs)))
            self.at = 0
        self.at += n
        return ahead[:n]

    def _draw(self, pairs: int) -> np.ndarray:
        words = np.frombuffer(self.rng.getrandbits(128 * pairs).to_bytes(16 * pairs, "little"),
                              dtype="<u4")
        u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0 ** -53
        x2pi = u[0::2] * TWOPI
        g2rad = np.sqrt(-2.0 * math_log(1.0 - u[1::2]))
        z = np.empty(2 * pairs)
        z[0::2] = np.cos(x2pi) * g2rad
        z[1::2] = np.sin(x2pi) * g2rad
        return 0.0 + z * self.sigma


class World:
    def __init__(self, config: WorldConfig):
        self.config = config
        self.nodes = {n.id: n for n in config.nodes}
        self._scanner_ids = sorted(n.id for n in config.nodes if n.app or n.deputy)
        self._rng = Random(config.seed)
        self._noise = NoiseAhead(self._rng, config.path_loss.noise_sigma)
        self.events = ScanLog()
        self._changes = sorted({wp[0] for n in config.nodes for wp in n.trajectory})
        # the geometry tables: the epoch (waypoint times at or before t) they
        # were built for, the positions in it, and per emission the link id of
        # each delivery and its rssi before noise
        self._epoch = -1
        self._positions: dict = {}
        self._deliveries: dict = {}

    def position(self, node_id: str, t: float) -> tuple[float, float]:
        return self.nodes[node_id].position(t)

    def _deliver(self, em: Emission, row: int) -> tuple:
        """One emission's deliveries at the current positions, in scanner order:
        their link ids (a new link first heard on `row` and on), and their
        noiseless rssi at its node's power. `math.dist` makes each coordinate
        a float before it subtracts, so integer coordinates never overflow."""
        pl, range_max, positions = self.config.path_loss, self.config.radio_range_max, self._positions
        emitter = em.node_id
        here, tx_power = positions[emitter], self.nodes[emitter].tx_power
        heard, rssis = [], array("d")
        for sid in self._scanner_ids:
            if sid == emitter:
                continue
            rx = positions[sid]
            rssi = propagate(tx_power, math.dist(rx, here), pl, range_max)
            if rssi is not None:
                heard.append(Link(sid, emitter, em.relay, em.mac, em.payload, rx))
                rssis.append(rssi)
        intern = self.events.intern
        return array("i", [intern(link.ident, link, row + i) for i, link in enumerate(heard)]), rssis

    def next_waypoint_change(self, t: float) -> float:
        """The first waypoint time of any node after t (inf when none is left):
        the tables a step builds hold for every tick before it."""
        i = bisect_right(self._changes, t)
        return self._changes[i] if i < len(self._changes) else math.inf

    def step(self, t: int, emissions: list[Emission], *, ticks: int = 1) -> range:
        """Deliver each emission once to every in-range scanner on each of `ticks`
        ticks from t; returns the row numbers of the new rows of the log.

        Each emission's deliveries, the link ids and noiseless rssi of its
        in-range scanners, are worked out once per epoch (the ticks between
        two waypoint times of any node; trajectories are piecewise constant)
        and kept; the span may not leave t's epoch. One tick's rows are the
        deliveries in emission order, then scanner order, and a new link is
        interned on the row of its first tick. The tick's link ids are
        appended once, as one span over all `ticks` (`RowLog.repeat`); then
        one loop adds the rows' rssi in chunks of whole ticks, at most
        2 * NOISE_CHUNK_PAIRS rows (or one tick), each the noiseless values
        plus its noise, the next values of the world's gaussian sequence in
        row order, in one numpy add: `propagate`'s value plus the noise, so
        results are bit-identical to computing each delivery of each tick
        from scratch.
        """
        tick = self.config.tick
        last = t + (ticks - 1) * tick
        if ticks < 1 or t < 0 or last >= self.config.duration or t % tick != 0:
            raise ValueError(f"t={t}, ticks={ticks} outside simulation schedule")
        epoch = bisect_right(self._changes, t)
        if bisect_right(self._changes, last) != epoch:
            raise ValueError(f"a waypoint changes within ticks {t}..{last}")
        if epoch != self._epoch:
            self._epoch = epoch
            self._positions = {nid: node.position(t) for nid, node in self.nodes.items()}
            self._deliveries = {}
        log = self.events
        start = len(log)
        ids, noiseless = array("i"), array("d")  # one tick's rows
        for em in emissions:
            delivered = self._deliveries.get(em)
            if delivered is None:
                delivered = self._deliveries[em] = self._deliver(em, start + len(ids))
            ids.extend(delivered[0])
            noiseless.extend(delivered[1])
        n = len(ids)
        log.repeat(range(t, t + ticks * tick, tick), ids)  # link ids once; values follow
        per = max(1, 2 * NOISE_CHUNK_PAIRS // n) if n else ticks  # ticks per chunk
        noisy = n > 0 and self.config.path_loss.noise_sigma > 0
        for done in range(0, ticks, per):
            m, at = min(per, ticks - done), len(log.value)
            log.value.extend(noiseless * m)
            if noisy:  # a view pins the column, so none outlives this statement
                np.frombuffer(log.value, dtype=np.float64)[at:] += self._noise.take(m * n)
        return range(start, len(log))

    def inject(self, receiver_id: str, sighting: Sighting) -> None:
        """Insert a spurious sighting into a receiver's stream at `sighting.time`, as
        an instrumented scanner stack would; indistinguishable from a radio-originated one."""
        if receiver_id not in self.nodes:
            raise KeyError(f"unknown receiver {receiver_id!r}")
        self.events.append(receiver_id, sighting)


def write_event_log(log: ScanLog, path) -> None:
    """Write every row of `log` to `path` as JSON lines in stable field order
    through `write_lines`: a row's key is its link, given as its fields, and
    its value is its rssi, written before the link's last three fields."""
    fields = ({"receiver": receiver, "emitter": emitter, "relay": relay, "mac": mac,
               "rx_x": rx[0], "rx_y": rx[1], "payload_hex": payload.hex()}
              for receiver, emitter, relay, mac, payload, rx in log.keys)
    rssi = np.frombuffer(log.value, dtype=np.float64)
    write_lines(path, log, lambda rows, t, link: rssi[rows], fields, "rssi", 3)


def write_lines(path, log: RowLog, value, fields, name: str, tail: int) -> None:
    """Write the rows of `log` to `path`, WRITE_BATCH_ROWS at a time (see
    `render_lines`), decoding the times and key ids of WRITE_DECODE_BATCHES
    batches from the spans at once and no more: row i as
    `json.dumps({"t": t[i], **head, name: v[i], **end})`, where `v`
    is `value(rows, t, key)`, the values of the row numbers `rows` whose
    times and key ids are `t` and `key`, `end` the last `tail` fields of
    `fields[key[i]]` (its line's fields in line order but `t` and the value)
    and `head` the others. `name` is a plain key, written as it is.

    Each key's line but `t` is rendered once, by one `json.dumps` call with
    the value of its first row (`log.first`) in the value's place: that text
    whole is the key's body, and cut around the value it is the key's head
    and tail. The cut is at the first `, "<name>": `, which can only be the
    value's key, as a `"` inside a JSON string is escaped; the value's text
    ends at the next `, `, which no number's text holds."""
    sep = f', "{name}": '
    first = np.array(log.first, dtype=np.int64)
    first_values = value(first, *log.decode(first))
    bodies, heads, tails = [], [], []
    for line, at_first in zip(fields, first_values.tolist()):
        items = list(line.items())
        text = json.dumps(dict(items[:-tail] + [(name, at_first)] + items[-tail:]))
        cut = text.index(sep) + len(sep)
        bodies.append(", " + text[1:] + "\n")
        heads.append(", " + text[1:cut])
        tails.append(text[text.index(", ", cut):] + "\n")
    bits = first_values.view(np.int64)
    texts = [np.array(column, dtype=object) for column in (bodies, heads, tails)]
    decoded = WRITE_DECODE_BATCHES * WRITE_BATCH_ROWS
    with open(path, "w") as fh:
        for at in range(0, len(log), decoded):
            rows = np.arange(at, min(at + decoded, len(log)))
            t, key = log.decode(rows)
            values = value(rows, t, key)
            for start in range(0, len(rows), WRITE_BATCH_ROWS):
                batch = slice(start, start + WRITE_BATCH_ROWS)
                fh.write(render_lines(t[batch], key[batch], values[batch], bits, *texts))


def render_lines(t: np.ndarray, key: np.ndarray, value: np.ndarray, bits: np.ndarray,
                 bodies: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> str:
    """The JSON lines of a non-empty batch of rows, byte for byte as one
    `json.dumps` per line writes them. A line starts with `'{"t": '` and its
    `t`, one text per run of rows of one `t`. When every row of the batch
    holds its key's value in `bits`, bit for bit (0.0 and -0.0 are two
    values), row i's line goes on with `bodies[key[i]]`, the key's line but
    `t`; otherwise with `heads[key[i]]`, `value[i]` and `tails[key[i]]`, the
    key's text before and after the value, the last number but one of its
    line. `bodies`, `heads` and `tails` are object arrays.

    The runs' `t`, and the values of a batch written the second way, are
    each rendered by one `orjson.dumps` call; a value orjson would write
    otherwise (outside `orjson_writes_as_json`) goes to `json.dumps`.
    """
    n = len(key)
    starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    times = np.array(['{"t": ' + text for text in _texts(t[starts])], dtype=object)
    time_text = np.repeat(times, np.diff(np.append(starts, n))).tolist()
    if (value.view(np.int64) == bits[key]).all():
        flat = [None] * (2 * n)
        flat[0::2] = time_text
        flat[1::2] = bodies[key].tolist()
        return "".join(flat)
    value_text = _texts(value)
    for i in np.flatnonzero(~orjson_writes_as_json(value)).tolist():
        value_text[i] = json.dumps(value[i].item())
    flat = [None] * (4 * n)
    flat[0::4] = time_text
    flat[1::4] = heads[key].tolist()
    flat[2::4] = value_text
    flat[3::4] = tails[key].tolist()
    return "".join(flat)


def orjson_writes_as_json(values: np.ndarray) -> np.ndarray:
    """Per number of `values`, whether it lies in the window where orjson
    writes a number as `json.dumps` does.

    orjson writes an int, and a float with 1e-4 <= |x| < 1e16 or a zero of
    either sign, exactly as `json.dumps` does: the shortest digits that
    round-trip, as `repr` picks them. That window is where `repr` writes no
    exponent (the double 1e-4 lies above 10**-4, and no double below 1e16 has
    the shortest digits of 1e16). Outside it orjson lays the number out
    differently (`1e16` and `0.00001` for `1e+16` and `1e-05`) and writes a
    non-finite value (an injected NaN, or an overflow under a `PathLoss`
    built without the config's bounds) as `null`. Its text cannot tell which
    layout it took, so the window is tested on the values.
    """
    size = np.abs(values)
    return ((size >= 1e-4) & (size < 1e16)) | (values == 0)


def _texts(column: np.ndarray) -> list:
    """Each number of a non-empty numpy column as orjson writes it."""
    return orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
