"""Closed forms for the noisy pipeline: how often a hearing is close, how that
count spreads across seeds, and how far a tamper mask carries, checked
against arithmetic instead of pinned bytes.

Model. A radio row's rssi is tx + ref - 10·n·log10(d) + e, with e ~ N(0, σ²)
drawn on its own for every row (`radio.World.step`; `ref` is
`ref_rssi_at_1m`, n the path-loss exponent). Matching decrypts the claimed
power from the frame and calls a row close when att = claimed - rssi <= thr
(`device.match_exposures`). So a row at distance d is close with probability

    p(d) = P(e >= claimed - thr - tx - ref + 10·n·log10 d)
         = 1 - Φ((claimed - tx - ref - thr + 10·n·log10 d) / σ).

Solving for d puts a case at any p: d(p) = 10^((σ·Φ⁻¹(1 - p) - a) / (10·n)),
a = claimed - tx - ref - thr. Every case below runs at the d(p) of each p in
P_GRID (0.02 to 0.98), on 20 seeds, with `noise_sigma` 2 and 4:

- a static pair: "a" (diagnosed, so its key is published) broadcasts to "b"
  at distance d; b's rows of a's frames count, one a tick, claimed = tx;
- `scenarios.tamper_range_extension`: a deputy relays a harvested frame to a
  victim at distance d, one row a tick once the relay starts; honest
  (claimed = tx) and with the scenario's mask, which lowers the claimed
  power by Δ = tx - claimed = 8 dB (the XOR law of criterion 02: the mask's
  byte 0xf8 turns a claimed 0 into -8).

The claimed power of each row is decrypted from its frame under its
published key, so radio noise, relay, tamper, decryption and the
attenuation rule are all on the path being checked. Runs of one seed draw
the same standard normals in the same row order, and d(p) puts the
threshold at the same z at every σ and mask, so the cases of one scene
count the same rows close: gate 3 then holds to rounding unless the mask or
the path loss moves the threshold by other than Δ.

Gates, with k = 20 seeds of m rows each (m is the same on every seed):

1. Close-tick fraction. The close rows of all seeds are Binomial(k·m, p) when
   rows are independent, so the fraction f has standard error
   sqrt(p·(1 - p) / (k·m)). Gate: |f - p| <= 4 standard errors (a normal
   two-sided tail of 6.3e-5 per check).
2. Spread across seeds. Each seed's count X_j is Binomial(m, p), variance
   m·p·(1 - p). With the normal approximation (m·p·(1 - p) >= 35 here), the
   sample variance S² of the k counts satisfies (k - 1)·S² / (m·p·(1 - p))
   ~ χ²(k - 1). Gate: the statistic lies between the χ²(19) quantiles at
   5e-5 and 1 - 5e-5, 3.6314 and 52.8100 (scipy.stats.chi2.ppf), a
   two-sided bound at 1e-4. Noise that is correlated across ticks (one
   draw per link, say) leaves the fraction right but spreads the counts far
   past the upper bound; noise reused across seeds falls below the lower.
3. Range gain. p = 1/2 at the 50% distance d50 = 10^(-a / (10·n)), so a mask
   that lowers the claimed power by Δ multiplies d50 by 10^(Δ / (10·n))
   (2.512 for Δ = 8, n = 2). Each measured fraction f at d gives an estimate
   log10 d50 = log10 d - σ·Φ⁻¹(1 - f) / (10·n), with variance (delta method)
   (σ / (10·n))² · p·(1 - p) / (k·m·φ(Φ⁻¹(1 - p))²); the estimates of a case
   are averaged with inverse-variance weights. Gate: the masked estimate
   less the honest one is within 4 standard errors (their variances added)
   of Δ / (10·n).

Notification rate, reported and not gated. A device is notified of a key
when its close matched rows of that key's identifiers fall on at least
c = ceil(duration_threshold / tick) distinct ticks (`device.match_exposures`
counts distinct ticks times tick). The static pair's b hears one row of a's
one key a tick, all inside the key's windows, so its close ticks are the
close-row count X ~ Binomial(m, p(d)) above, and

    P(notified) = P(X >= c) = sum_{k=c..m} C(m, k) · p^k · (1 - p)^(m - k).

With m = 1800 and c = 900 this tail is about 0 at p <= 1/4, 1 at p >= 3/4,
and 0.509 at p = 1/2, where it moves by about 34 per unit of p. An error in
p as small as gate 1 allows (4 standard errors, 0.011 at p = 1/2) moves it
by 0.36, more than the 0.11 standard error of a fraction over 20 seeds, so
no tolerance is derived. `test_notification_rate_report`
prints each case's notified fraction over the seeds next to this tail
(`pytest tests/test_closed_forms.py -rP` shows it).
"""

import copy
import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np
import pytest

from ensim import crypto, device, scenarios
from ensim.attacker import tamper
from ensim.engine import ScenarioConfig, run_scenario
from ensim.radio import attenuation

SEEDS = range(20)
SIGMAS = (2.0, 4.0)
P_GRID = (0.02, 0.25, 0.5, 0.75, 0.98)
Z_BOUND = 4.0
CHI2_19_LOW, CHI2_19_HIGH = 3.6314, 52.8100  # chi2(19) at 5e-5 and 1 - 5e-5
PHI = NormalDist()
CASES = [("static_pair", sigma, False) for sigma in SIGMAS] + [
    ("tamper_range_extension", sigma, masked) for sigma in SIGMAS for masked in (False, True)]


def static_pair(distance: float) -> dict:
    raw = scenarios.tamper_range_extension()
    raw["name"], raw["attack"] = "static_pair", None
    raw["nodes"] = [
        {"id": "a", "trajectory": [[0, 0.0, 0.0]], "app": True, "infected_at": 0,
         "diagnosed_at": raw["world"]["duration"] - 60},
        {"id": "b", "trajectory": [[0, distance, 0.0]], "app": True},
    ]
    return raw


def scene(name: str, distance: float, masked: bool) -> tuple:
    """The config at `distance` and the id of the receiver whose rows count."""
    if name == "static_pair":
        return static_pair(distance), "b"
    return scenarios.tamper_range_extension(victim_distance=distance, tampered=masked), "victim"


def offset(name: str, masked: bool) -> float:
    """a = claimed - tx - ref - thr of a case, from its config."""
    raw, _ = scene(name, 1.0, masked)
    tx = 0  # every node of both scenes sends at the default power
    assert all(node.get("tx_power", 0) == tx for node in raw["nodes"])
    claimed = tx
    if masked:
        mask = bytes.fromhex(raw["attack"]["tamper_mask_hex"])
        claimed = crypto.Metadata.from_bytes(tamper(crypto.Metadata(tx_power=tx).to_bytes(),
                                                    mask)).tx_power
    ref = raw["world"]["path_loss"]["ref_rssi_at_1m"]
    return claimed - tx - ref - raw["matching"]["attenuation_threshold"]


def exponent() -> float:
    return scenarios.tamper_range_extension()["world"]["path_loss"]["exponent"]


def distance_at(p: float, name: str, sigma: float, masked: bool) -> float:
    return 10 ** ((sigma * PHI.inv_cdf(1 - p) - offset(name, masked)) / (10 * exponent()))


def close_rows(raw: dict, receiver: str) -> tuple:
    """(the receiver's rows, how many of them are close, whether it was
    notified): each row's claimed power is decrypted from its frame under the
    published key of its identifier."""
    cfg = ScenarioConfig.from_dict(raw)
    result = run_scenario(cfg)
    log, published = result.world.events, result.published
    index = crypto.identifier_index([e.tek for e in published])
    rows = log.rows_of(i for i, link in enumerate(log.keys) if link.receiver == receiver)
    rssi, close, matched = log.columns()[2], 0, 0
    for kind, group in log.group(device.published_kind(log, index), rows).items():
        [(pos, _interval)] = index[kind.rpi]
        aemk = crypto.derive_aemk(published[pos].tek)
        claimed = crypto.decrypt_aem(aemk, kind.rpi, kind.aem).tx_power
        att = attenuation(claimed, rssi[group])
        close += int((att <= cfg.matching.attenuation_threshold).sum())
        matched += len(group)
    assert matched == len(rows) > 0  # every row carries a published identifier
    notified = any(row["device_id"] == receiver for row in result.notification_rows)
    return len(rows), close, notified


@lru_cache(maxsize=None)
def measure(name: str, sigma: float, masked: bool) -> dict:
    """{p: (d, rows per seed, per-seed close counts, seeds notified)} over
    P_GRID and SEEDS."""
    out = {}
    for p in P_GRID:
        d = distance_at(p, name, sigma, masked)
        raw, receiver = scene(name, d, masked)
        raw["world"]["path_loss"]["noise_sigma"] = sigma
        sizes, counts, notified = [], [], 0
        for seed in SEEDS:
            run = copy.deepcopy(raw)
            run["seed"] = seed
            m, close, note = close_rows(run, receiver)
            sizes.append(m)
            counts.append(close)
            notified += note
        assert len(set(sizes)) == 1
        out[p] = (d, sizes[0], np.array(counts, dtype=float), notified)
    return out


@pytest.mark.parametrize("name, sigma, masked", CASES)
def test_close_fraction_is_p_of_d(name, sigma, masked):
    for p, (_d, m, counts, _notified) in measure(name, sigma, masked).items():
        n = len(counts) * m
        assert abs(counts.sum() / n - p) <= Z_BOUND * (p * (1 - p) / n) ** 0.5, p


@pytest.mark.parametrize("name, sigma, masked", CASES)
def test_per_seed_counts_spread_as_binomial(name, sigma, masked):
    for p, (_d, m, counts, _notified) in measure(name, sigma, masked).items():
        assert len(counts) == 20  # the quantiles are chi2(19)'s
        statistic = (len(counts) - 1) * counts.var(ddof=1) / (m * p * (1 - p))
        assert CHI2_19_LOW <= statistic <= CHI2_19_HIGH, (p, statistic)


def log_d50(name: str, sigma: float, masked: bool) -> tuple:
    """The inverse-variance mean of the per-distance estimates of log10 d50,
    and its variance."""
    scale = sigma / (10 * exponent())
    estimates, weights = [], []
    for p, (d, m, counts, _notified) in measure(name, sigma, masked).items():
        f = counts.sum() / (len(counts) * m)
        z = PHI.inv_cdf(1 - p)
        estimates.append(np.log10(d) - scale * PHI.inv_cdf(1 - f))
        weights.append((len(counts) * m) * PHI.pdf(z) ** 2 / (scale ** 2 * p * (1 - p)))
    weights = np.array(weights)
    return float(np.dot(weights, estimates) / weights.sum()), float(1 / weights.sum())


@pytest.mark.parametrize("sigma", SIGMAS)
def test_mask_multiplies_the_50_percent_distance(sigma):
    honest, honest_var = log_d50("tamper_range_extension", sigma, False)
    masked, masked_var = log_d50("tamper_range_extension", sigma, True)
    delta = offset("tamper_range_extension", False) - offset("tamper_range_extension", True)
    assert delta == 8
    assert abs(honest - (-offset("tamper_range_extension", False) / (10 * exponent()))) <= (
        Z_BOUND * honest_var ** 0.5)
    assert abs((masked - honest) - delta / (10 * exponent())) <= Z_BOUND * (
        honest_var + masked_var) ** 0.5


def binomial_tail(m: int, p: float, c: int) -> float:
    """P(X >= c) for X ~ Binomial(m, p), 0 < p < 1, summed in log space."""
    def log_pmf(k):
        return (math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                + k * math.log(p) + (m - k) * math.log1p(-p))

    return math.fsum(math.exp(log_pmf(k)) for k in range(c, m + 1))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_notification_rate_report(sigma):
    raw, _ = scene("static_pair", 1.0, False)
    tick, threshold = raw["world"]["tick"], raw["matching"]["duration_threshold"]
    c = -(-threshold // tick)
    print(f"static_pair, sigma {sigma}: notified fraction over {len(SEEDS)} seeds "
          f"vs P(X >= {c}), X ~ Binomial(m, p)")
    for p, (d, m, _counts, notified) in measure("static_pair", sigma, False).items():
        print(f"  p {p:.2f}  d {d:6.3f} m  rows {m}  notified {notified / len(SEEDS):.2f}  "
              f"tail {binomial_tail(m, p, c):.4f}")
