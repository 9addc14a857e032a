"""Differential tests: `coverage`'s raw-word membership draws against the
float draws in reference_coverage.py.

Population sizes sit at and around the raw-word chunk; fractions are the
edges of the comparison (0, 1, the smallest double, 2**-53, 1 - 2**-53, the
doubles beside 0.5), arbitrary values, and one of the generator's own draws
moved by -1, 0 or +1 ulp. Only a fraction one ulp from a drawn double tells
ceil from floor, and only one equal to a double drawn from a raw word whose
low 11 bits are zero tells `<` from `<=` on the words; random fractions
almost never land there.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_coverage as ref
from ensim.coverage import _CHUNK, PopulationModel, _draw, _members, infected_visibility, simulate_coverage

SIZES = (2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7)
# a model draws three memberships of n; the chunk edges are left to the tests above
MODEL_SIZES = (2, 1000, _CHUNK + 1)
EDGES = (0.0, 1.0, 5e-324, 2.0**-53, 1 - 2.0**-53, math.nextafter(0.5, 0), math.nextafter(0.5, 1))
# outside [0, 1] the answer is known too; the model's fields never hold these
OUTSIDE = (math.nan, -0.5, -5e-324, 1.5, math.inf)

# a fixed fraction, or (index, ulps, round): a drawn double moved by ulps
fractions = st.one_of(
    st.sampled_from(EDGES),
    st.floats(0.0, 1.0),
    st.tuples(st.integers(0, 2**20), st.sampled_from((-1, 0, 1)), st.booleans()),
)


def draws(seed, shape):
    """The doubles `random` draws from a fresh generator, and its raw words."""
    return (np.random.default_rng(seed).random(shape),
            np.random.default_rng(seed).bit_generator.random_raw(shape))


def resolve(fraction, doubles, words) -> float:
    """The fixed fraction, or the double drawn at `index` moved by `ulps`. With
    `round`, the index counts only the doubles drawn from a word whose low 11
    bits are zero, where there is one."""
    if not isinstance(fraction, tuple):
        return fraction
    index, ulps, round_ = fraction
    at = np.flatnonzero(words % 2**11 == 0) if round_ else []
    x = float(doubles[at[index % len(at)]] if len(at) else doubles[index % len(doubles)])
    return min(max(math.nextafter(x, ulps) if ulps else x, 0.0), 1.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2**32), st.one_of(fractions, st.sampled_from(OUTSIDE)))
def test_members_are_the_float_comparison(n, seed, fraction):
    doubles, words = draws(seed, n)
    alpha = resolve(fraction, doubles, words)
    assert np.array_equal(_members(np.random.default_rng(seed), n, alpha), doubles < alpha)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIZES), st.integers(0, 2**32), st.one_of(fractions, st.sampled_from(OUTSIDE)))
def test_members_leave_the_state_of_random(n, seed, fraction):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    _members(rng, n, resolve(fraction, *draws(seed, n)))
    reference.random(n)
    assert rng.bit_generator.state == reference.bit_generator.state


@st.composite
def models(draw):
    n, seed = draw(st.sampled_from(MODEL_SIZES)), draw(st.integers(0, 2**32))
    (sc, cd, infected), words = draws(seed, (3, n))
    return PopulationModel(
        n=n,
        alpha_sc=resolve(draw(fractions), sc, words[0]),
        alpha_cd=resolve(draw(fractions), cd, words[1]),
        n_contacts=draw(st.integers(1, 3000)),
        infected_fraction=resolve(draw(fractions), infected, words[2]),
        seed=seed,
        one_sided_quality=draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))),
    )


@settings(max_examples=80, deadline=None)
@given(models())
def test_draws_and_reports_match_the_float_draws(m):
    for got, want in zip(_draw(m), ref.draw(m), strict=True):
        assert np.array_equal(got, want)
    assert simulate_coverage(m) == ref.simulate_coverage(m)
    assert infected_visibility(m) == ref.infected_visibility(m)
