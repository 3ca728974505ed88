import numpy as np
import pytest

from conftest import reference_cfg, reference_model, random_instance

from aoi_dpp.channel import BAD, GOOD, GilbertElliotChannel, IIDChannel
from aoi_dpp.model import Action, FrameConfig, SystemState
from aoi_dpp.oracle import (
    InfeasibleActionError,
    TooLargeError,
    brute_force_optimal,
    evaluate_policy_exact,
    monte_carlo_value,
    stationary_aoi_mean,
)
from aoi_dpp.solver import FrameSolver, UnknownStateError

TOY_CFG = FrameConfig(T=2, K=1, q=1.0, A_max=3, V=1.0)
TOY_MODEL = IIDChannel(p1=1.0, p2=1.0)
TOY_S0 = SystemState(2, 1)


def test_evaluate_toy_policies():
    u1u1 = evaluate_policy_exact([Action.USER1, Action.USER1], TOY_S0, 0.0, TOY_CFG, TOY_MODEL)
    assert u1u1.expected_cost == pytest.approx(2.0)
    u2u1 = evaluate_policy_exact([Action.USER2, Action.USER1], TOY_S0, 0.0, TOY_CFG, TOY_MODEL)
    assert u2u1.expected_cost == pytest.approx(4.0)


def test_evaluate_zero_cost_degenerate():
    cfg = FrameConfig(T=2, K=1, q=0.0, A_max=3, V=0.0)
    res = evaluate_policy_exact([Action.IDLE, Action.USER1], TOY_S0, 0.0, cfg, TOY_MODEL)
    assert res.expected_cost == 0.0


def test_evaluate_distributions_sum_to_one():
    rng = np.random.default_rng(23)
    for _ in range(25):
        cfg, model, state, z = random_instance(rng)
        table = FrameSolver(cfg, model).solve(z)
        res = evaluate_policy_exact(table, state, z, cfg, model)
        assert len(res.state_distribution_by_slot) == cfg.T + 1
        for dist in res.state_distribution_by_slot:
            assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_brute_force_toy():
    value, rule = brute_force_optimal(TOY_S0, 0.0, TOY_CFG, TOY_MODEL)
    assert value == pytest.approx(2.0)
    assert rule[(0, TOY_S0)] == Action.USER1


def test_brute_force_matches_explicit_enumeration():
    # Tiny instance cross-checked against a literal walk over all per-slot
    # action assignments (deterministic channels make each plan's cost exact).
    plans = [
        (a0, a1)
        for a0 in (Action.USER1, Action.USER2, Action.IDLE)
        for a1 in (Action.USER1, Action.USER2, Action.IDLE)
    ]
    best = np.inf
    for plan in plans:
        try:
            cost = evaluate_policy_exact(list(plan), TOY_S0, 0.0, TOY_CFG, TOY_MODEL).expected_cost
        except InfeasibleActionError:
            continue  # plan hits an infeasible action along its path
        best = min(best, cost)
    value, _ = brute_force_optimal(TOY_S0, 0.0, TOY_CFG, TOY_MODEL)
    assert value == pytest.approx(best)


def test_evaluate_rejects_infeasible_plan():
    # USER2 delivers in slot 0 (p2 = 1), so slot 1 schedules an empty queue
    with pytest.raises(InfeasibleActionError):
        evaluate_policy_exact([Action.USER2, Action.USER2], TOY_S0, 0.0, TOY_CFG, TOY_MODEL)


def test_single_slot_optimum_is_min_stage_cost():
    rng = np.random.default_rng(31)
    for _ in range(20):
        cfg, model, state, z = random_instance(rng)
        cfg1 = FrameConfig(1, 1, min(cfg.q, 1.0), cfg.A_max, cfg.V)
        state1 = SystemState(state.aoi, min(state.queue, 1), state.channel_mem)
        value, _ = brute_force_optimal(state1, z, cfg1, model)
        solver = FrameSolver(cfg1, model)
        s = solver.space.index(state1)
        stage = solver.cost_const[s] + z * solver.cost_z[s]
        expected = min(stage[a] for a in Action if solver.feasible[s, a])
        assert value == pytest.approx(expected, abs=1e-12)


def test_brute_force_is_a_lower_bound():
    rng = np.random.default_rng(37)
    for _ in range(20):
        cfg, model, state, z = random_instance(rng)
        value, _ = brute_force_optimal(state, z, cfg, model)
        fixed = [Action.USER1] * cfg.T
        assert value <= evaluate_policy_exact(fixed, state, z, cfg, model).expected_cost + 1e-9


def test_brute_force_guard():
    big = FrameConfig(T=20, K=15, q=12.0, A_max=200, V=5.0)
    with pytest.raises(TooLargeError):
        brute_force_optimal(SystemState(1, 15, (GOOD, GOOD)), 0.0, big, reference_model())


def test_monte_carlo_deterministic_toy():
    mean, stderr = monte_carlo_value(
        [Action.USER1, Action.USER1], TOY_S0, 0.0, TOY_CFG, TOY_MODEL, n_runs=50, seed=5
    )
    assert mean == pytest.approx(2.0)
    assert stderr == 0.0


def test_monte_carlo_seed_reproducible():
    cfg = reference_cfg(5.0)
    model = reference_model()
    table = FrameSolver(cfg, model).solve(0.0)
    s0 = SystemState(1, 15, (GOOD, GOOD))
    a = monte_carlo_value(table, s0, 0.0, cfg, model, n_runs=1, seed=99)
    b = monte_carlo_value(table, s0, 0.0, cfg, model, n_runs=1, seed=99)
    assert a == b
    assert a[1] == 0.0  # single run has no spread estimate


SMALL_CFG = FrameConfig(T=6, K=3, q=2.0, A_max=6, V=2.0)


@pytest.mark.parametrize(
    "cfg, model, s0, z, seed",
    [
        (reference_cfg(5.0), reference_model(), SystemState(1, 15, (GOOD, GOOD)), 0.0, 12),
        # p01 > p11 for user 1: a swapped GOOD/BAD lookup shows here
        (SMALL_CFG, GilbertElliotChannel(0.3, 0.8, 0.6, 0.2),
         SystemState(2, 3, (BAD, GOOD)), 3.0, 1),
        (SMALL_CFG, IIDChannel(0.7, 0.4), SystemState(2, 3), 3.0, 1),
    ],
    ids=["reference", "ge-asymmetric", "iid"],
)
def test_monte_carlo_consistent_with_exact(cfg, model, s0, z, seed):
    table = FrameSolver(cfg, model).solve(z)
    exact = evaluate_policy_exact(table, s0, z, cfg, model).expected_cost
    mean, stderr = monte_carlo_value(table, s0, z, cfg, model, n_runs=100_000, seed=seed)
    assert abs(mean - exact) <= 3 * stderr


def test_stationary_aoi_mean_iid_closed_form():
    p, a_max = 0.3, 12
    # truncated-geometric age distribution
    pi = [p * (1 - p) ** (k - 1) for k in range(1, a_max)]
    pi.append((1 - p) ** (a_max - 1))
    expected = sum(k * w for k, w in zip(range(1, a_max + 1), pi))
    assert stationary_aoi_mean(IIDChannel(p, 0.5), a_max) == pytest.approx(expected, abs=1e-9)


def test_stationary_aoi_mean_ge_reduces_to_iid():
    p = 0.44
    ge = GilbertElliotChannel(p, p, p, p)
    iid = IIDChannel(p, p)
    assert stationary_aoi_mean(ge, 15) == pytest.approx(
        stationary_aoi_mean(iid, 15), abs=1e-9
    )


def test_monte_carlo_rejects_infeasible_plan():
    # as in test_evaluate_rejects_infeasible_plan: slot 1 serves an empty queue
    with pytest.raises(InfeasibleActionError):
        monte_carlo_value([Action.USER2, Action.USER2], SystemState(2, 1), 1.0,
                          FrameConfig(T=2, K=1, q=1.0, A_max=3, V=0.0),
                          IIDChannel(1.0, 1.0), n_runs=3, seed=0)


GE_MODEL = GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
TOY_PLAN = [Action.USER1, Action.USER1]


@pytest.mark.parametrize(
    "entry",
    [
        lambda s, m: evaluate_policy_exact(TOY_PLAN, s, 0.0, TOY_CFG, m),
        lambda s, m: brute_force_optimal(s, 0.0, TOY_CFG, m),
        lambda s, m: monte_carlo_value(TOY_PLAN, s, 0.0, TOY_CFG, m, n_runs=3, seed=0),
    ],
    ids=["exact", "brute", "mc"],
)
@pytest.mark.parametrize(
    "state, model",
    [
        (SystemState(7, 1), TOY_MODEL),
        (SystemState(1, 4), TOY_MODEL),
        (SystemState(0, 1), TOY_MODEL),
        (SystemState(1, 1, (GOOD, BAD)), TOY_MODEL),
        (SystemState(1, 1), GE_MODEL),
    ],
    ids=["aoi-above-cap", "queue-above-k", "aoi-zero", "iid-with-memory", "ge-without-memory"],
)
def test_oracle_rejects_out_of_domain_state(entry, state, model):
    with pytest.raises(UnknownStateError):
        entry(state, model)


def test_stationary_aoi_mean_rejects_unknown_user():
    with pytest.raises(ValueError):
        stationary_aoi_mean(IIDChannel(0.3, 0.5), 5, user=3)


def test_monte_carlo_rejects_bad_n():
    with pytest.raises(ValueError):
        monte_carlo_value([Action.USER1], SystemState(1, 1), 0.0,
                          FrameConfig(1, 1, 0.5, 3, 1.0), TOY_MODEL, n_runs=0, seed=1)
