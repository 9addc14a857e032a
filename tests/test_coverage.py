import concurrent.futures
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ensim import coverage
from ensim.coverage import (
    CoverageReport,
    PopulationModel,
    VisibilityReport,
    _draw,
    infected_visibility,
    simulate_coverage,
    sweep,
    visibility_from_run,
)


def model(**kw):
    kw.setdefault("n", 20_000)
    kw.setdefault("n_contacts", 100_000)
    kw.setdefault("seed", 42)
    return PopulationModel(**kw)


@pytest.mark.parametrize("n, n_contacts, seed", [(2, 1, 0), (7, 13, 5), (20_001, 999, 42)])
def test_skipping_the_infection_draw_leaves_the_other_draws(n, n_contacts, seed):
    m = model(n=n, n_contacts=n_contacts, seed=seed, alpha_sc=0.5, alpha_cd=0.25)
    sc, cd, infected, a, b = _draw(m._replace(infected_fraction=0.3))
    skipped = _draw(m)
    # at infected_fraction 0 nobody is infected and no array is filled for it
    assert infected.strides == (1,) and skipped[2].strides == (0,) and not skipped[2].any()
    for drawn, kept in zip((sc, cd, a, b), skipped[:2] + skipped[3:]):
        assert np.array_equal(drawn, kept)
    assert ((0 <= b) & (b < n) & (a != b)).all()


class TestSimulateCoverage:
    def test_full_app_no_deputies(self):
        r = simulate_coverage(model(alpha_sc=1.0, alpha_cd=0.0))
        assert r.sc_coverage == 1.0
        assert r.attacker_coverage == 0.0

    def test_closed_forms_within_3_sigma(self):
        # seed frozen; 3-sigma binomial bound at m contacts
        r = simulate_coverage(model(alpha_sc=0.5, alpha_cd=0.25))
        m = r.n_contacts
        for got, p in ((r.sc_coverage, 0.25), (r.attacker_coverage, 1 - 0.75**2)):
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(got - p) <= 3 * sigma, (got, p)

    def test_attacker_beats_app_with_half_the_prevalence(self):
        r = simulate_coverage(model(alpha_sc=0.5, alpha_cd=0.25))
        assert r.attacker_coverage > r.sc_coverage

    def test_equal_prevalence_attacker_dominates(self):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            r = simulate_coverage(model(alpha_sc=alpha, alpha_cd=alpha))
            assert r.attacker_coverage >= r.sc_coverage

    def test_one_sided_quality_discounts(self):
        full = simulate_coverage(model(alpha_cd=0.3, one_sided_quality=1.0))
        half = simulate_coverage(model(alpha_cd=0.3, one_sided_quality=0.5))
        zero = simulate_coverage(model(alpha_cd=0.3, one_sided_quality=0.0))
        assert full.attacker_coverage > half.attacker_coverage > zero.attacker_coverage
        # with zero weight only both-deputy contacts remain: ~ alpha_cd^2
        sigma = math.sqrt(0.09 * 0.91 / zero.n_contacts)
        assert abs(zero.attacker_coverage - 0.09) <= 4 * sigma

    def test_determinism(self):
        assert simulate_coverage(model()) == simulate_coverage(model())


class TestSweep:
    GRID = [i / 10 for i in range(11)]

    def test_grid_size(self):
        reports = sweep(self.GRID, self.GRID, n=2_000, n_contacts=5_000, seed=1)
        assert len(reports) == 121

    def test_origin_cell_zero(self):
        reports = sweep([0.0], [0.0], n=2_000, n_contacts=5_000, seed=1)
        assert reports[0].sc_coverage == 0.0
        assert reports[0].attacker_coverage == 0.0

    def test_sc_coverage_tracks_alpha_squared_along_column(self):
        reports = sweep(self.GRID, [0.5], n=20_000, n_contacts=100_000, seed=3)
        for r in reports:
            assert abs(r.sc_coverage - r.alpha_sc**2) <= 0.01
        covs = [r.sc_coverage for r in reports]
        assert covs == sorted(covs)

    def test_dominance_frontier(self):
        # attacker wins exactly where alpha_cd*(2-alpha_cd) >= alpha_sc^2;
        # checked empirically wherever the closed forms separate beyond noise
        reports = sweep(self.GRID, self.GRID, n=20_000, n_contacts=50_000, seed=5)
        for r in reports:
            gap = (1 - (1 - r.alpha_cd) ** 2) - r.alpha_sc**2
            if gap >= 0.02:
                assert r.attacker_coverage > r.sc_coverage, (r.alpha_sc, r.alpha_cd)
            elif gap <= -0.02:
                assert r.sc_coverage > r.attacker_coverage, (r.alpha_sc, r.alpha_cd)

    def test_csv_output(self, tmp_path):
        from ensim.coverage import write_sweep_csv
        reports = sweep([0.0, 1.0], [0.0, 1.0], n=2_000, n_contacts=5_000, seed=1)
        out = tmp_path / "coverage.csv"
        write_sweep_csv(reports, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha_sc,alpha_cd,sc_coverage,attacker_coverage,n_contacts,seed"
        assert len(lines) == 5


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), st.one_of(st.integers(1, 10**7), st.just(2**31 - 1)),
       st.integers(0, 3000))
def test_int32_endpoints_are_the_int64_draws(seed, k, m):
    # `_draw` takes contact endpoints as int32, relying on this
    rng32, rng64 = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(rng32.integers(0, k, m, dtype=np.int32), rng64.integers(0, k, m))
    assert rng32.bit_generator.state == rng64.bit_generator.state


class TestSweepPool:
    # fractions of 0 and 1 skip their words; interior ones draw them
    GRIDS = [([0.0, 0.3, 1.0], [1.0, 0.45, 0.0, 0.8]), ([0.5], [0.0, 1.0]), ([0.2], [0.7])]

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker counts of the pools `sweep` makes."""
        sizes = []

        class Recorded(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **kw):
                sizes.append(max_workers)
                super().__init__(max_workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
        return sizes

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("alphas_sc, alphas_cd", GRIDS)
    def test_reports_are_each_cell_in_grid_order(self, cpus, alphas_sc, alphas_cd, pools, monkeypatch):
        monkeypatch.setattr(coverage, "_cpus", lambda: cpus)
        want = [simulate_coverage(PopulationModel(
                    n=3_001, alpha_sc=a_sc, alpha_cd=a_cd, n_contacts=4_000,
                    seed=9 * 1_000_003 + i * 1009 + j, one_sided_quality=0.5))
                for i, a_sc in enumerate(alphas_sc) for j, a_cd in enumerate(alphas_cd)]
        got = sweep(alphas_sc, alphas_cd, n=3_001, n_contacts=4_000, seed=9, one_sided_quality=0.5)
        assert got == want
        assert pools == [min(len(want), cpus)]

    def test_a_failing_cell_raises_its_error(self, monkeypatch):
        monkeypatch.setattr(coverage, "_cpus", lambda: 2)
        outcome = []

        def run():
            try:
                # n = 1 leaves no partner to draw: integers(0, 0) raises
                outcome.append(sweep([0.2, 0.5], [0.5, 1.0, 0.0], n=1, n_contacts=10))
            except ValueError as e:
                outcome.append(e)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert outcome, "sweep did not return"
        assert isinstance(outcome[0], ValueError) and "high" in str(outcome[0])


class TestInfectedVisibility:
    def test_no_app_attacker_sees_only_deputies(self):
        r = infected_visibility(model(alpha_sc=0.0, alpha_cd=0.3, infected_fraction=0.1))
        # every attacker-known infected must be a deputy; fraction ~ alpha_cd
        assert r.attacker_known <= r.infected_total
        assert abs(r.attacker_fraction - 0.3) < 0.05
        assert r.authority_fraction == 1.0

    def test_full_app_full_harvest(self):
        # alpha_sc=1 and enough contacts with any deputy present: near-total visibility
        r = infected_visibility(model(
            n=2_000, n_contacts=200_000, alpha_sc=1.0, alpha_cd=0.5, infected_fraction=0.1))
        assert r.attacker_fraction > 0.99

    def test_attacker_knowledge_monotone_in_app_prevalence(self):
        # the counterintuitive effect: more app uptake -> more keys published
        # -> more of the infected visible to the attacker
        for seed in range(5):
            fractions = [
                infected_visibility(model(
                    alpha_sc=a, alpha_cd=0.2, infected_fraction=0.1, seed=seed,
                )).attacker_fraction
                for a in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            assert all(b >= a - 0.01 for a, b in zip(fractions, fractions[1:])), fractions

    def test_from_run_sets(self):
        r = visibility_from_run(
            infected_ids={"a", "b", "c"},
            deputy_ids={"a"},
            published_owner_ids={"b", "c"},
            harvested_owner_ids={"b"},
        )
        assert r.infected_total == 3
        assert r.attacker_known == 2  # a (deputy) and b (published + harvested)
        assert r.authority_fraction == 1.0
