import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import make_equity_scorer

from helpers import expanded_gini_pairwise, expanded_gini_rank

POPULATIONS = (25, 260, 1000, 1050)

# Frozen from the expansion oracle (expanded_gini_rank) before the weighted
# implementation existed; the evaluation scenario's starting distribution.
EVAL_START_GINI = 0.05748236037490785


def gini(values, weights=POPULATIONS):
    return 1.0 - make_equity_scorer(weights)(values)


def test_equal_values_have_zero_gini():
    assert gini((100.0, 100.0, 100.0, 100.0)) == 0.0
    assert gini((42.0, 42.0), weights=(3, 9)) == 0.0


def test_two_point_distribution():
    # Pairwise sum 200 against 2 * N^2 * mu = 400.
    assert gini((0.0, 100.0), weights=(1, 1)) == 0.5


def test_all_zero_is_maximally_inequitable():
    # Drained-state convention: nobody has water, equity is zero.
    assert make_equity_scorer(POPULATIONS)((0.0, 0.0, 0.0, 0.0)) == 0.0


def test_evaluation_start_matches_expansion_oracle():
    values = (0.0, 300.0, 200.0, 200.0)
    assert gini(values) == pytest.approx(EVAL_START_GINI, abs=1e-15)
    assert gini(values) == pytest.approx(expanded_gini_rank(values, POPULATIONS), abs=1e-14)
    score = make_equity_scorer(POPULATIONS)(values)
    assert score == pytest.approx(1.0 - EVAL_START_GINI, abs=1e-15)


def test_weighted_equals_small_pairwise_expansion():
    rng = random.Random(3)
    for _ in range(50):
        weights = tuple(rng.randint(1, 12) for _ in range(4))
        values = tuple(rng.uniform(0.0, 600.0) for _ in range(4))
        got = gini(values, weights)
        want = expanded_gini_pairwise(values, weights)
        assert got == pytest.approx(want, abs=1e-12)


def test_weighted_equals_expansion_on_thousand_instances():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(1000):
        weights = tuple(rng.randint(1, 2000) for _ in range(4))
        values = tuple(rng.choice([0.0, rng.uniform(0.0, 600.0)]) for _ in range(4))
        if sum(values) == 0.0:
            values = (rng.uniform(1.0, 600.0),) + values[1:]
        worst = max(worst, abs(gini(values, weights) - expanded_gini_rank(values, weights)))
    assert worst <= 1e-12


def test_perfect_equality_scores_one():
    assert make_equity_scorer(POPULATIONS)((100.0, 100.0, 100.0, 100.0)) == 1.0


def test_scale_invariance():
    scorer = make_equity_scorer(POPULATIONS)
    values = (0.0, 300.0, 200.0, 200.0)
    scaled = tuple(10.0 * v for v in values)
    assert scorer(values) == pytest.approx(scorer(scaled), abs=1e-12)


def test_scorer_matches_gini_bit_exactly(env_cfg):
    # Rewards and action scores share the config's scorer; a fresh scorer for
    # the same populations gives the same bits.
    scorer = make_equity_scorer(POPULATIONS)
    assert env_cfg.populations == POPULATIONS
    rng = random.Random(5)
    for _ in range(200):
        values = tuple(rng.uniform(0.0, 600.0) for _ in range(4))
        assert scorer(values) == env_cfg.equity_of(values)


@given(
    values=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=6),
    data=st.data(),
)
@settings(max_examples=200)
def test_range_and_oracle_equivalence(values, data):
    weights = data.draw(
        st.lists(st.integers(1, 500), min_size=len(values), max_size=len(values))
    )
    g = gini(values, weights)
    assert 0.0 <= g <= 1.0
    assert g == pytest.approx(expanded_gini_rank(values, weights), abs=1e-12)


@given(
    a=st.floats(0.0, 600.0),
    b=st.floats(0.0, 600.0),
    c=st.floats(0.0, 600.0),
    d=st.floats(0.0, 600.0),
)
@settings(max_examples=100)
def test_permutation_of_equal_population_villages(a, b, c, d):
    weights = (25, 260, 260, 1050)
    scorer = make_equity_scorer(weights)
    before = scorer((a, b, c, d))
    after = scorer((a, c, b, d))
    assert before == pytest.approx(after, abs=1e-12)


@given(data=st.data())
@settings(max_examples=150)
def test_pigou_dalton_transfers_never_reduce_equity(data):
    values = [data.draw(st.floats(0.5, 600.0)) for _ in range(4)]
    weights = POPULATIONS
    hi = max(range(4), key=lambda i: values[i])
    lo = min(range(4), key=lambda i: values[i])
    if values[hi] == values[lo]:
        return
    # Per-person transfer that cannot make the receiver overtake the donor.
    gap = values[hi] - values[lo]
    amount = data.draw(st.floats(0.0, gap / (1.0 + weights[hi] / weights[lo])))
    donated = amount * weights[hi] / weights[lo]
    after = list(values)
    after[hi] -= amount
    after[lo] += donated
    if after[lo] > after[hi]:
        return
    scorer = make_equity_scorer(weights)
    assert scorer(after) >= scorer(values) - 1e-12


def test_validation_rejects_bad_distributions():
    with pytest.raises(ValueError):
        make_equity_scorer((0,))
    with pytest.raises(ValueError):
        make_equity_scorer((5, -1))
