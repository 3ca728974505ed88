import numpy as np
import pytest

from conftest import reference_cfg, reference_model, random_instance

from aoi_dpp.channel import BAD, GOOD, GilbertElliotChannel, IIDChannel
from aoi_dpp.model import Action, FrameConfig, SystemState
from aoi_dpp.oracle import evaluate_policy_exact
from aoi_dpp.solver import (
    FrameSolver,
    InfeasibleActionError,
    StateSpace,
    UnknownStateError,
    backward_solve,
    build_kernel,
    stage_cost,
)

TOY_CFG = FrameConfig(T=2, K=1, q=1.0, A_max=3, V=1.0)
TOY_MODEL = IIDChannel(p1=1.0, p2=1.0)


def kernel_as_dict(state, action, model, cfg):
    return {
        (e.state.aoi, e.state.queue, e.state.channel_mem): e.probability
        for e in build_kernel(state, action, model, cfg)
    }


def test_build_kernel_iid_user1():
    cfg = FrameConfig(T=5, K=4, q=2.0, A_max=20, V=1.0)
    model = IIDChannel(p1=0.8, p2=0.5)
    got = kernel_as_dict(SystemState(2, 3), Action.USER1, model, cfg)
    assert got == {(1, 3, None): pytest.approx(0.8), (3, 3, None): pytest.approx(0.2)}


def test_build_kernel_iid_user2_and_idle():
    cfg = FrameConfig(T=5, K=4, q=2.0, A_max=3, V=1.0)
    model = IIDChannel(p1=0.8, p2=0.5)
    got = kernel_as_dict(SystemState(3, 2), Action.USER2, model, cfg)
    assert got == {(3, 1, None): pytest.approx(0.5), (3, 2, None): pytest.approx(0.5)}
    got = kernel_as_dict(SystemState(1, 0), Action.IDLE, model, cfg)
    assert got == {(2, 0, None): 1.0}


def test_build_kernel_gilbert_elliot_user1():
    cfg = FrameConfig(T=5, K=4, q=2.0, A_max=20, V=1.0)
    model = GilbertElliotChannel(p11_1=0.9, p01_1=0.5, p11_2=0.7, p01_2=0.6)
    got = kernel_as_dict(SystemState(2, 3, (GOOD, BAD)), Action.USER1, model, cfg)
    assert got == {
        (1, 3, (GOOD, GOOD)): pytest.approx(0.54),
        (1, 3, (GOOD, BAD)): pytest.approx(0.36),
        (3, 3, (BAD, GOOD)): pytest.approx(0.06),
        (3, 3, (BAD, BAD)): pytest.approx(0.04),
    }


def test_build_kernel_infeasible():
    with pytest.raises(InfeasibleActionError):
        build_kernel(SystemState(2, 0), Action.USER2, TOY_MODEL, TOY_CFG)


def test_kernel_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(60):
        cfg, model, state, _ = random_instance(rng)
        for action in (Action.USER1, Action.USER2, Action.IDLE):
            if action == Action.USER2 and state.queue == 0:
                continue
            entries = build_kernel(state, action, model, cfg)
            assert abs(sum(e.probability for e in entries) - 1.0) < 1e-12
            for e in entries:
                assert 1 <= e.state.aoi <= cfg.A_max
                assert 0 <= e.state.queue <= cfg.K


def test_stage_cost_values():
    cfg = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    iid = IIDChannel(p1=0.8, p2=0.7)
    assert stage_cost(SystemState(3, 5), Action.USER1, 1.0, cfg, iid) == pytest.approx(8.6)
    assert stage_cost(SystemState(3, 5), Action.USER2, 1.0, cfg, iid) == pytest.approx(19.9)
    cfg0 = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=0.0)
    assert stage_cost(SystemState(7, 5), Action.USER2, 1.0, cfg0, iid) == pytest.approx(-0.1)


def test_stage_cost_infeasible():
    with pytest.raises(InfeasibleActionError):
        stage_cost(SystemState(2, 0), Action.USER2, 0.0, TOY_CFG, TOY_MODEL)


def test_backward_solve_toy():
    table = backward_solve(TOY_CFG, 0.0, TOY_MODEL)
    s0 = SystemState(2, 1)
    assert table.value(0, s0) == pytest.approx(2.0, abs=1e-12)
    assert table.action(0, s0) == Action.USER1
    assert table.action(1, SystemState(1, 1)) == Action.USER1


def test_backward_solve_degenerate_tie_break():
    # V = 0 and z = 0: every cost is zero; the tie-break prefers USER2 when
    # feasible, then USER1.
    cfg = FrameConfig(T=2, K=1, q=0.0, A_max=3, V=0.0)
    table = backward_solve(cfg, 0.0, TOY_MODEL)
    assert np.all(table.values == 0.0)
    assert table.action(0, SystemState(1, 1)) == Action.USER2
    assert table.action(0, SystemState(1, 0)) == Action.USER1


def test_policy_table_action_domain_errors():
    table = backward_solve(TOY_CFG, 0.0, TOY_MODEL)
    with pytest.raises(UnknownStateError):
        table.action(TOY_CFG.T, SystemState(1, 1))
    with pytest.raises(UnknownStateError):
        table.action(0, SystemState(99, 1))
    with pytest.raises(UnknownStateError):
        table.action(0, SystemState(1, 1, (GOOD, GOOD)))


def test_reference_scenario_v0_schedules_user2_first():
    table = backward_solve(reference_cfg(0.0), 0.0, reference_model())
    for mem in ((GOOD, GOOD), (GOOD, BAD), (BAD, GOOD), (BAD, BAD)):
        assert table.action(0, SystemState(1, 15, mem)) == Action.USER2


def test_value_monotone_in_v():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg, model, state, z = random_instance(rng)
        values = []
        for v in (0.0, 1.0, 5.0):
            cfg_v = FrameConfig(cfg.T, cfg.K, cfg.q, cfg.A_max, v, cfg.discount)
            values.append(backward_solve(cfg_v, z, model).value(0, state))
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12


def test_actions_invariant_under_uniform_scaling():
    # Exact for power-of-two scales: every cost term scales by the same
    # binary exponent, so comparisons are bitwise identical.
    rng = np.random.default_rng(17)
    for _ in range(15):
        cfg, model, state, z = random_instance(rng)
        base = backward_solve(cfg, z, model)
        for c in (0.5, 2.0, 8.0):
            cfg_c = FrameConfig(cfg.T, cfg.K, cfg.q, cfg.A_max, cfg.V * c, cfg.discount)
            scaled = backward_solve(cfg_c, z * c, model)
            assert np.array_equal(base.actions, scaled.actions)


def test_reference_scenario_bellman_consistency():
    # Forward-expectation re-evaluation of the extracted policy reproduces the
    # DP value at the frame-start state.
    cfg = reference_cfg(5.0)
    model = reference_model()
    table = backward_solve(cfg, 0.0, model)
    s0 = SystemState(1, 15, (GOOD, GOOD))
    result = evaluate_policy_exact(table, s0, 0.0, cfg, model)
    assert result.expected_cost == pytest.approx(table.value(0, s0), abs=1e-9)


def test_state_space_roundtrip():
    cfg = reference_cfg(5.0)
    for model in (reference_model(), IIDChannel(0.5, 0.5)):
        space = StateSpace(cfg, model)
        for i in range(space.n_states):
            assert space.index(space.state(i)) == i


def test_frame_solver_z_bucket_cache():
    cfg = reference_cfg(5.0)
    solver = FrameSolver(cfg, reference_model(), z_bucket=0.5)
    t1 = solver.solve(1.1)
    t2 = solver.solve(0.9)  # both round to 1.0
    assert t1 is t2
    assert t1.frozen_z == pytest.approx(1.0)
    exact = FrameSolver(cfg, reference_model())
    assert exact.solve(1.1) is not exact.solve(1.1)


def test_negative_frozen_z_rejected():
    with pytest.raises(ValueError):
        backward_solve(TOY_CFG, -0.1, TOY_MODEL)


@pytest.mark.parametrize("z", [float("nan"), float("inf")])
def test_non_finite_frozen_z_rejected(z):
    with pytest.raises(ValueError, match="finite"):
        FrameSolver(TOY_CFG, TOY_MODEL).solve(z)
    with pytest.raises(ValueError, match="finite"):
        FrameSolver(TOY_CFG, TOY_MODEL, z_bucket=z)


def test_discounted_solve_matches_brute_force():
    from aoi_dpp.oracle import brute_force_optimal

    rng = np.random.default_rng(41)
    for _ in range(10):
        cfg, model, state, z = random_instance(rng)
        disc = FrameConfig(cfg.T, cfg.K, cfg.q, cfg.A_max, cfg.V, discount=0.9)
        dp = backward_solve(disc, z, model).value(0, state)
        brute, _ = brute_force_optimal(state, z, disc, model)
        assert dp == pytest.approx(brute, abs=1e-9)
