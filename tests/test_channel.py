import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoi_dpp.channel import (
    BAD,
    GOOD,
    GilbertElliotChannel,
    IIDChannel,
    NoUniqueStationaryError,
    mean_success_prob,
    stationary_good_prob,
    stationary_state,
    step_channel,
)

probs = st.floats(0.0, 1.0, allow_nan=False)


def test_good_prob_gilbert_elliot():
    model = GilbertElliotChannel(p11_1=0.9, p01_1=0.6, p11_2=0.8, p01_2=0.3)
    assert model.good_prob(1, GOOD) == 0.9
    assert model.good_prob(1, BAD) == 0.6
    assert model.good_prob(2, BAD) == 0.3
    with pytest.raises(ValueError):
        model.good_prob(3, GOOD)


def pairs(h1: int, h2: int, n: int) -> np.ndarray:
    """n copies of the memory pair (h1, h2), as step_channel takes them."""
    return np.tile((h1, h2), (n, 1))


def test_step_channel_absorbing():
    rng = np.random.default_rng(0)
    stay_good = GilbertElliotChannel(1.0, 0.5, 1.0, 0.5)
    assert step_channel(stay_good, pairs(GOOD, GOOD, 1), rng)[0, 0] == GOOD
    stay_bad = GilbertElliotChannel(0.5, 0.0, 0.5, 0.0)
    assert (step_channel(stay_bad, pairs(BAD, BAD, 10), rng) == BAD).all()


def test_step_channel_joint_frequency():
    # From (Good, Bad): P(next = (Good, Good)) = 0.9 * 0.6 = 0.54.
    model = GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
    rng = np.random.default_rng(42)
    n = 20_000
    hits = (step_channel(model, pairs(GOOD, BAD, n), rng) == GOOD).all(axis=1).sum()
    sigma = math.sqrt(0.54 * 0.46 / n)
    assert abs(hits / n - 0.54) <= 3 * sigma


def test_step_channel_iid_frequency():
    # i.i.d. links land Good with p_u whatever the previous state.
    model = IIDChannel(0.7, 0.4)
    rng = np.random.default_rng(5)
    n = 20_000
    for h in (BAD, GOOD):
        freq = step_channel(model, pairs(h, h, n), rng).mean(axis=0)
        for p, f in zip((0.7, 0.4), freq):
            assert abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_two_user_transitions_independent():
    # Joint next-state frequency factorizes into per-user marginals.
    model = GilbertElliotChannel(0.9, 0.6, 0.8, 0.3)
    rng = np.random.default_rng(7)
    n = 40_000
    nxt = step_channel(model, pairs(BAD, GOOD, n), rng)
    counts = np.bincount(2 * nxt[:, 0] + nxt[:, 1], minlength=4).reshape(2, 2)
    p1, p2 = 0.6, 0.8  # from (Bad, Good)
    for h1 in (0, 1):
        for h2 in (0, 1):
            expect = (p1 if h1 else 1 - p1) * (p2 if h2 else 1 - p2)
            sigma = math.sqrt(expect * (1 - expect) / n)
            assert abs(counts[h1, h2] / n - expect) <= 4 * sigma


def test_stationary_good_prob():
    assert stationary_good_prob(0.9, 0.6) == pytest.approx(6 / 7, abs=1e-12)
    assert stationary_good_prob(1.0, 0.5) == 1.0
    with pytest.raises(NoUniqueStationaryError):
        stationary_good_prob(1.0, 0.0)


@given(st.floats(0.01, 0.99, allow_nan=False))
def test_stationary_reduces_to_iid(p):
    assert stationary_good_prob(p, p) == pytest.approx(p, abs=1e-12)


def test_empirical_stationary_frequency():
    model = GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
    rng = np.random.default_rng(3)
    state = pairs(GOOD, GOOD, 1)
    n = 30_000
    good = 0
    for _ in range(n):
        state = step_channel(model, state, rng)
        good += state[0, 0]
    pi = stationary_good_prob(0.9, 0.6)
    # correlated samples: inflate the binomial band by the chain's mixing factor
    sigma = math.sqrt(pi * (1 - pi) / n)
    assert abs(good / n - pi) <= 6 * sigma


def test_stationary_state_draw():
    model = GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
    draws = [stationary_state(model, np.random.default_rng(i)) for i in range(500)]
    freq = sum(d[0] == GOOD for d in draws) / 500
    assert abs(freq - 6 / 7) < 0.06


def test_mean_success_prob():
    assert mean_success_prob(IIDChannel(0.4, 0.7), 2) == 0.7
    assert mean_success_prob(GilbertElliotChannel(0.9, 0.6, 0.9, 0.6), 2) == pytest.approx(6 / 7)


def test_probability_validation():
    with pytest.raises(ValueError):
        IIDChannel(p1=1.5, p2=0.5)
    with pytest.raises(ValueError):
        GilbertElliotChannel(0.9, -0.1, 0.9, 0.6)
