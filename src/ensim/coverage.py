"""Monte Carlo model of asymmetric utility growth.

Population of n individuals; membership in the app group (prevalence
alpha_sc) and the deputy group (prevalence alpha_cd) is drawn
independently, so the groups may intersect. Contacts are uniform random
pairs. A contact is:

  app-detectable       iff BOTH endpoints run the app        -> ~ alpha_sc^2
  attacker-visible     iff AT LEAST ONE endpoint is a deputy -> ~ 1-(1-alpha_cd)^2

One-sided attacker visibility is weaker in practice (only one vantage
point); `one_sided_quality` in [0, 1] weights those contacts and makes the
assumption explicit. At the default weight 1 the closed forms above hold
exactly in expectation.

Each membership is drawn as `rng.random(n) < alpha` would draw it, word for
word, without the doubles: with PCG64, numpy's `random()` is
`(raw >> 11) * 2**-53` on one raw 64-bit word, so the comparison is done on
the raw words (see `_members`), 2**17 at a time. This relies on
`default_rng` being PCG64 and on its 53-bit `random()`; a numpy that changed
either would fail the pinned `coverage.csv` digests and the float-draw
oracle in the tests.

`sweep` runs its cells on a pool of threads, one per usable CPU: numpy
releases the GIL while it draws and gathers, which is most of a cell. Each
cell has its own model and its own generator, seeded from its place in the
grid, so the reports, and `coverage.csv`, do not depend on the pool's size.
"""

from __future__ import annotations

import csv
import math
import os
from typing import NamedTuple

import numpy as np


class PopulationModel(NamedTuple):
    """Built by `sweep` from `engine.SWEEP_FIELDS`: n >= 2, n_contacts >= 1, fractions in [0, 1]."""

    n: int = 10_000
    alpha_sc: float = 0.5
    alpha_cd: float = 0.25
    n_contacts: int = 100_000
    infected_fraction: float = 0.0
    seed: int = 0
    one_sided_quality: float = 1.0


class CoverageReport(NamedTuple):
    alpha_sc: float
    alpha_cd: float
    n_contacts: int
    seed: int
    sc_coverage: float
    attacker_coverage: float


class VisibilityReport(NamedTuple):
    infected_total: int
    authority_known: int
    attacker_known: int

    @property
    def authority_fraction(self) -> float:
        return self.authority_known / self.infected_total if self.infected_total else 0.0

    @property
    def attacker_fraction(self) -> float:
        return self.attacker_known / self.infected_total if self.infected_total else 0.0


# raw words per chunk: 1 MiB, so a membership draw holds n bytes plus one chunk
# (8n up to n = 2**17). `sweep` runs one cell per CPU, each with its own chunk:
# on the bundled sweep (n = 500,000) with two cells in flight, paper_suite's
# peak RSS rose about 5 MB with 2**19-word chunks and 1.4 MB with 2**18, and
# stayed under the one-cell-at-a-time peak with 2**17. Larger chunks are faster
# on one CPU: freeing a block of 2**18 words or more raises glibc's dynamic mmap
# and trim thresholds above a cell's arrays, which then stay on the heap; at
# 2**17 about 350 pages a cell are trimmed and faulted back in (2**15: 490).
_CHUNK = 1 << 17


def _members(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """Exactly `rng.random(n) < alpha`, leaving `rng` in the same state.

    `(raw >> 11) * 2**-53 < alpha` holds iff `raw < ceil(alpha * 2**53) << 11`:
    scaling by 2**53 is exact, and for alpha < 1 the limit is at most
    2**64 - 2**11. Where the answer is known (alpha <= 0, alpha >= 1 or NaN)
    the n words are skipped and a read-only stride-0 view is returned.
    """
    bitgen = rng.bit_generator
    if not 0.0 < alpha < 1.0:
        # PCG64 spends one 64-bit output per double; no buffered uint32 is pending
        bitgen.advance(n)
        return np.broadcast_to(alpha >= 1.0, (n,))
    limit = np.uint64(math.ceil(alpha * 2.0**53) << 11)
    out = np.empty(n, dtype=bool)
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        np.less(bitgen.random_raw(e - s), limit, out=out[s:e])
    return out


def _draw(model: PopulationModel):
    """Membership, infection and contact pairs, in one draw order."""
    rng = np.random.default_rng(model.seed)
    sc = _members(rng, model.n, model.alpha_sc)
    cd = _members(rng, model.n, model.alpha_cd)
    infected = _members(rng, model.n, model.infected_fraction)
    # int32 draws the values int64 would, leaving the same state, for n < 2**31;
    # b reaches 2n - 2, which fits while 2n < 2**31 (SWEEP_FIELDS caps n at 10**7)
    a = rng.integers(0, model.n, model.n_contacts, dtype=np.int32)
    # offset trick keeps endpoints distinct and uniform; 1 <= a + 1 + r <= 2n - 2,
    # so mod n is subtracting n where it reaches n: in unsigned words b - n wraps
    # above b exactly where b < n, so the minimum of the two is b mod n
    b = rng.integers(0, model.n - 1, model.n_contacts, dtype=np.int32)
    b += a
    b += 1
    words = b.view(np.uint32)
    np.minimum(words, words - np.uint32(model.n), out=words)
    return sc, cd, infected, a, b


def simulate_coverage(model: PopulationModel) -> CoverageReport:
    sc, cd, _, a, b = _draw(model)
    sc_hits = sc[a] & sc[b]
    cd_a, cd_b = cd[a], cd[b]
    both_cd = cd_a & cd_b
    one_cd = cd_a ^ cd_b
    m = model.n_contacts
    weighted = float(np.count_nonzero(both_cd)) + model.one_sided_quality * float(np.count_nonzero(one_cd))
    return CoverageReport(
        alpha_sc=model.alpha_sc,
        alpha_cd=model.alpha_cd,
        n_contacts=m,
        seed=model.seed,
        sc_coverage=float(np.count_nonzero(sc_hits)) / m,
        attacker_coverage=weighted / m,
    )


def infected_visibility(model: PopulationModel) -> VisibilityReport:
    """Who knows about each infected individual after diagnoses and key uploads.

    The health authority learns every diagnosis. The attacker knows an
    infected individual if they are a deputy themselves, or if they run
    the app (so their keys get published) and at least one of their
    contacts was a deputy that could have harvested them.
    """
    sc, cd, infected, a, b = _draw(model)
    heard = np.zeros(model.n, dtype=bool)
    heard[a[cd[b]]] = True
    heard[b[cd[a]]] = True
    attacker_known = infected & (cd | (sc & heard))
    return VisibilityReport(
        infected_total=int(np.count_nonzero(infected)),
        authority_known=int(np.count_nonzero(infected)),
        attacker_known=int(np.count_nonzero(attacker_known)),
    )


def visibility_from_run(infected_ids, deputy_ids, published_owner_ids, harvested_owner_ids) -> VisibilityReport:
    """Same statistic computed from an end-to-end scenario run."""
    infected = set(infected_ids)
    attacker_known = (infected & set(deputy_ids)) | (
        infected & set(published_owner_ids) & set(harvested_owner_ids)
    )
    return VisibilityReport(
        infected_total=len(infected),
        authority_known=len(infected),
        attacker_known=len(attacker_known),
    )


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# cell (i, j) of a sweep is seeded seed * 1,000,003 + i * AXIS_MAX + j, so the
# cells of a grid draw apart while each axis has at most AXIS_MAX values
AXIS_MAX = 1009
_DEFAULT = PopulationModel._field_defaults  # a NamedTuple's class attributes are its fields


def sweep(alphas_sc, alphas_cd, n=_DEFAULT["n"], n_contacts=_DEFAULT["n_contacts"],
          seed=_DEFAULT["seed"], one_sided_quality=_DEFAULT["one_sided_quality"]) -> list[CoverageReport]:
    """One coverage report per grid point, in grid order, deterministic per-cell seeding."""
    # imported here: it takes about 2 ms, and every import of ensim would pay it
    from concurrent.futures import ThreadPoolExecutor

    models = [PopulationModel(n=n, alpha_sc=a_sc, alpha_cd=a_cd, n_contacts=n_contacts,
                              seed=seed * 1_000_003 + i * AXIS_MAX + j,
                              one_sided_quality=one_sided_quality)
              for i, a_sc in enumerate(alphas_sc) for j, a_cd in enumerate(alphas_cd)]
    with ThreadPoolExecutor(max(1, min(len(models), _cpus()))) as pool:
        return list(pool.map(simulate_coverage, models))


def write_sweep_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha_sc", "alpha_cd", "sc_coverage", "attacker_coverage", "n_contacts", "seed"])
        for r in reports:
            w.writerow([
                f"{r.alpha_sc:.3f}", f"{r.alpha_cd:.3f}",
                f"{r.sc_coverage:.6f}", f"{r.attacker_coverage:.6f}",
                r.n_contacts, r.seed,
            ])
