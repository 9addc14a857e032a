"""Reference coverage model: membership drawn as arrays of doubles.

These are the float draws `coverage` made before it compared raw generator
words, kept as a differential oracle: every membership is `rng.random(n) <
alpha` (infection too, even where nothing reads it), then the contact pairs.
The production `simulate_coverage` and `infected_visibility` must return
equal reports. Test-only.
"""

import numpy as np

from ensim.coverage import CoverageReport, VisibilityReport


def draw(model):
    rng = np.random.default_rng(model.seed)
    sc = rng.random(model.n) < model.alpha_sc
    cd = rng.random(model.n) < model.alpha_cd
    infected = rng.random(model.n) < model.infected_fraction
    a = rng.integers(0, model.n, model.n_contacts)
    b = (a + 1 + rng.integers(0, model.n - 1, model.n_contacts)) % model.n
    return sc, cd, infected, a, b


def simulate_coverage(model) -> CoverageReport:
    sc, cd, _, a, b = draw(model)
    cd_a, cd_b = cd[a], cd[b]
    m = model.n_contacts
    weighted = (float(np.count_nonzero(cd_a & cd_b))
                + model.one_sided_quality * float(np.count_nonzero(cd_a ^ cd_b)))
    return CoverageReport(
        alpha_sc=model.alpha_sc,
        alpha_cd=model.alpha_cd,
        n_contacts=m,
        seed=model.seed,
        sc_coverage=float(np.count_nonzero(sc[a] & sc[b])) / m,
        attacker_coverage=weighted / m,
    )


def infected_visibility(model) -> VisibilityReport:
    sc, cd, infected, a, b = draw(model)
    heard = np.zeros(model.n, dtype=bool)
    heard[a[cd[b]]] = True
    heard[b[cd[a]]] = True
    return VisibilityReport(
        infected_total=int(np.count_nonzero(infected)),
        authority_known=int(np.count_nonzero(infected)),
        attacker_known=int(np.count_nonzero(infected & (cd | (sc & heard)))),
    )
