import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_cfg, reference_model, random_instance
from test_kernels import kernel_instances

from aoi_dpp import _kernels
from aoi_dpp.channel import BAD, GOOD, GilbertElliotChannel, IIDChannel
from aoi_dpp.model import (
    Action,
    FrameConfig,
    InfeasibleActionError,
    SystemState,
    step_aoi,
    step_queue,
)
from aoi_dpp.oracle import _outcome_branches, _successor, evaluate_policy_exact
from aoi_dpp.solver import FrameSolver, StateSpace, UnknownStateError, _branch_table

TOY_CFG = FrameConfig(T=2, K=1, q=1.0, A_max=3, V=1.0)
TOY_MODEL = IIDChannel(p1=1.0, p2=1.0)


def kernel_as_dict(solver, state, action):
    """{(aoi, queue, mem): prob} of one (state, action), read from the arrays."""
    s = solver.space.index(state)
    law = {}
    for nxt, prob in zip(solver.next_idx[s, action], solver.probs[s, action]):
        if prob > 0.0:
            n = solver.space.state(int(nxt))
            key = (n.aoi, n.queue, n.channel_mem)
            law[key] = law.get(key, 0.0) + float(prob)
    return law


def stage_cost(solver, state, action, z):
    """Expected one-slot cost cost_const + z*cost_z of a feasible action."""
    s = solver.space.index(state)
    assert solver.feasible[s, action]
    return solver.cost_const[s, action] + z * solver.cost_z[s, action]


def assert_infeasible(solver, state, action):
    s = solver.space.index(state)
    assert solver.feasible[s, action] == 0
    assert solver.cost_const[s, action] == 0.0 and solver.cost_z[s, action] == 0.0
    assert not solver.probs[s, action].any() and not solver.next_idx[s, action].any()


def test_build_kernel_iid_user1():
    cfg = FrameConfig(T=5, K=4, q=2.0, A_max=20, V=1.0)
    solver = FrameSolver(cfg, IIDChannel(p1=0.8, p2=0.5))
    got = kernel_as_dict(solver, SystemState(2, 3), Action.USER1)
    assert got == {(1, 3, None): pytest.approx(0.8), (3, 3, None): pytest.approx(0.2)}


def test_build_kernel_iid_user2_and_idle():
    cfg = FrameConfig(T=5, K=4, q=2.0, A_max=3, V=1.0)
    solver = FrameSolver(cfg, IIDChannel(p1=0.8, p2=0.5))
    got = kernel_as_dict(solver, SystemState(3, 2), Action.USER2)
    assert got == {(3, 1, None): pytest.approx(0.5), (3, 2, None): pytest.approx(0.5)}
    got = kernel_as_dict(solver, SystemState(1, 0), Action.IDLE)
    assert got == {(2, 0, None): 1.0}


def test_build_kernel_gilbert_elliot_user1():
    cfg = FrameConfig(T=5, K=4, q=2.0, A_max=20, V=1.0)
    model = GilbertElliotChannel(p11_1=0.9, p01_1=0.5, p11_2=0.7, p01_2=0.6)
    solver = FrameSolver(cfg, model)
    got = kernel_as_dict(solver, SystemState(2, 3, (GOOD, BAD)), Action.USER1)
    assert got == {
        (1, 3, (GOOD, GOOD)): pytest.approx(0.54),
        (1, 3, (GOOD, BAD)): pytest.approx(0.36),
        (3, 3, (BAD, GOOD)): pytest.approx(0.06),
        (3, 3, (BAD, BAD)): pytest.approx(0.04),
    }


def test_build_kernel_infeasible():
    assert_infeasible(FrameSolver(TOY_CFG, TOY_MODEL), SystemState(2, 0), Action.USER2)


def test_kernel_probabilities_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(60):
        cfg, model, _, _ = random_instance(rng)
        solver = FrameSolver(cfg, model)
        feasible = solver.feasible.astype(bool)
        assert np.all(np.abs(solver.probs.sum(axis=2)[feasible] - 1.0) < 1e-12)
        assert not solver.probs[~feasible].any()
        for nxt in np.unique(solver.next_idx[solver.probs > 0.0]):
            n = solver.space.state(int(nxt))
            assert 1 <= n.aoi <= cfg.A_max
            assert 0 <= n.queue <= cfg.K


def test_stage_cost_values():
    cfg = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    iid = IIDChannel(p1=0.8, p2=0.7)
    solver = FrameSolver(cfg, iid)
    assert stage_cost(solver, SystemState(3, 5), Action.USER1, 1.0) == pytest.approx(8.6)
    assert stage_cost(solver, SystemState(3, 5), Action.USER2, 1.0) == pytest.approx(19.9)
    cfg0 = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=0.0)
    solver0 = FrameSolver(cfg0, iid)
    assert stage_cost(solver0, SystemState(7, 5), Action.USER2, 1.0) == pytest.approx(-0.1)


def test_stage_cost_infeasible():
    solver = FrameSolver(TOY_CFG, TOY_MODEL)
    for aoi in range(1, TOY_CFG.A_max + 1):
        assert_infeasible(solver, SystemState(aoi, 0), Action.USER2)


def random_channel(rng, ge: bool):
    """A channel whose probabilities are 0, 1 or uniform, each with equal odds."""
    draws = [float(rng.choice([0.0, 1.0, rng.random()])) for _ in range(4)]
    return GilbertElliotChannel(*draws) if ge else IIDChannel(*draws[:2])


@pytest.mark.parametrize("ge", [False, True], ids=["iid", "ge"])
def test_arrays_match_oracle_outcomes(ge):
    # The solver's broadcast arrays and the oracle's own outcome enumeration
    # state one transition law: the same successors with the same
    # probabilities (both multiply the same per-user factors), and the same
    # expected cost up to rounding.
    rng = np.random.default_rng(53 + ge)
    for _ in range(40):
        cfg, _, _, z = random_instance(rng)
        model = random_channel(rng, ge)
        solver = FrameSolver(cfg, model)
        for state in solver.space.states():
            for action in Action:
                if action == Action.USER2 and state.queue == 0:
                    assert_infeasible(solver, state, action)
                    continue
                law, cost = {}, 0.0
                for p, d1, d2, mem in _outcome_branches(state, action, model):
                    nxt, realized = _successor(state, d1, d2, mem, z, cfg)
                    key = (nxt.aoi, nxt.queue, nxt.channel_mem)
                    law[key] = law.get(key, 0.0) + p
                    cost += p * realized
                assert kernel_as_dict(solver, state, action) == law
                assert stage_cost(solver, state, action, z) == pytest.approx(cost, abs=1e-12)


def test_backward_solve_toy():
    table = FrameSolver(TOY_CFG, TOY_MODEL).solve(0.0)
    s0 = SystemState(2, 1)
    assert table.value(0, s0) == pytest.approx(2.0, abs=1e-12)
    assert table.action(0, s0) == Action.USER1
    assert table.action(1, SystemState(1, 1)) == Action.USER1


def test_backward_solve_degenerate_tie_break():
    # V = 0 and z = 0: every cost is zero; the tie-break prefers USER2 when
    # feasible, then USER1.
    cfg = FrameConfig(T=2, K=1, q=0.0, A_max=3, V=0.0)
    table = FrameSolver(cfg, TOY_MODEL).solve(0.0)
    assert np.all(table.values == 0.0)
    assert table.action(0, SystemState(1, 1)) == Action.USER2
    assert table.action(0, SystemState(1, 0)) == Action.USER1


def test_policy_table_action_domain_errors():
    table = FrameSolver(TOY_CFG, TOY_MODEL).solve(0.0)
    with pytest.raises(UnknownStateError):
        table.action(TOY_CFG.T, SystemState(1, 1))
    with pytest.raises(UnknownStateError):
        table.action(0, SystemState(99, 1))
    with pytest.raises(UnknownStateError):
        table.action(0, SystemState(1, 1, (GOOD, GOOD)))


def test_reference_scenario_v0_schedules_user2_first():
    table = FrameSolver(reference_cfg(0.0), reference_model()).solve(0.0)
    for mem in ((GOOD, GOOD), (GOOD, BAD), (BAD, GOOD), (BAD, BAD)):
        assert table.action(0, SystemState(1, 15, mem)) == Action.USER2


def test_value_monotone_in_v():
    rng = np.random.default_rng(5)
    for _ in range(20):
        cfg, model, state, z = random_instance(rng)
        values = []
        for v in (0.0, 1.0, 5.0):
            cfg_v = FrameConfig(cfg.T, cfg.K, cfg.q, cfg.A_max, v)
            values.append(FrameSolver(cfg_v, model).solve(z).value(0, state))
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12


def test_actions_invariant_under_uniform_scaling():
    # Exact for power-of-two scales: every cost term scales by the same
    # binary exponent, so comparisons are bitwise identical.
    rng = np.random.default_rng(17)
    for _ in range(15):
        cfg, model, state, z = random_instance(rng)
        base = FrameSolver(cfg, model).solve(z)
        for c in (0.5, 2.0, 8.0):
            cfg_c = FrameConfig(cfg.T, cfg.K, cfg.q, cfg.A_max, cfg.V * c)
            scaled = FrameSolver(cfg_c, model).solve(z * c)
            assert np.array_equal(base.actions, scaled.actions)


def test_reference_scenario_bellman_consistency():
    # Forward-expectation re-evaluation of the extracted policy reproduces the
    # DP value at the frame-start state.
    cfg = reference_cfg(5.0)
    model = reference_model()
    table = FrameSolver(cfg, model).solve(0.0)
    s0 = SystemState(1, 15, (GOOD, GOOD))
    result = evaluate_policy_exact(table, s0, 0.0, cfg, model)
    assert result.expected_cost == pytest.approx(table.value(0, s0), abs=1e-9)


def test_state_space_roundtrip():
    cfg = reference_cfg(5.0)
    for model in (reference_model(), IIDChannel(0.5, 0.5)):
        space = StateSpace(cfg, model)
        for i in range(space.n_states):
            assert space.index(space.state(i)) == i
        for table in (space.aoi, space.queue, space.mem):
            assert table.dtype == np.int32 and table.shape == (space.n_states,)
        for table in (space.aoi, space.queue, space.mem, space.successors):
            assert not table.flags.writeable
        assert (space.index_parts(space.aoi, space.queue, space.mem)
                == np.arange(space.n_states)).all()
        for h1 in (BAD, GOOD):
            for h2 in (BAD, GOOD):
                expected = space.memories.index((h1, h2)) if space.has_memory else 0
                assert space.mem_index(h1, h2) == expected
                assert np.all(space.mem_index(np.full(3, h1), np.full(3, h2)) == expected)


@pytest.mark.parametrize("model", [
    GilbertElliotChannel(p11_1=0.7, p01_1=0.3, p11_2=0.8, p01_2=0.4),
    IIDChannel(p1=0.6, p2=0.5),
], ids=["ge", "iid"])
def test_successors_follow_model_laws(model):
    # Every state of a space this small is walked, so the age is held at
    # A_max and the queue at 0 as well as stepped.
    cfg = FrameConfig(T=3, K=2, q=1.0, A_max=3, V=1.0)
    solver = FrameSolver(cfg, model)
    space = solver.space
    successors = space.successors
    assert successors.shape == (space.n_states, 3, 4)
    for s, state in enumerate(space.states()):
        for a in Action:
            for m1 in (BAD, GOOD):
                for m2 in (BAD, GOOD):
                    d1 = int(a == Action.USER1 and m1 == GOOD)
                    d2 = int(a == Action.USER2 and m2 == GOOD)
                    expected = SystemState(
                        step_aoi(state.aoi, d1, cfg.A_max),
                        step_queue(state.queue, d2, False, cfg.K),
                        (m1, m2) if space.has_memory else None,
                    )
                    assert space.state(int(successors[s, a, 2 * m1 + m2])) == expected
    # The solver's branches are columns of the same table.
    _, codes, _ = _branch_table(model, space)
    assert codes.tolist() == ([3, 2, 1, 0] if space.has_memory else [3, 0])
    for s in range(space.n_states):
        for a in Action:
            if solver.feasible[s, a]:
                assert solver.next_idx[s, a].tolist() == successors[s, a, codes].tolist()


def test_repeated_solve_allocates_only_its_tables():
    # The kernel reads the solver's action-major arrays in place and works in
    # buffers the solver owns, so past the first solve the traced peak of a
    # reference solve is its returned tables (values 215 KB, actions 26 KB)
    # plus the fail-closed checks' temporaries, 0.30 MB. A kernel that lays
    # its inputs out and allocates its scratch on every call peaks at 0.91 MB.
    solver = FrameSolver(reference_cfg(150.0), reference_model())
    solver.solve(1000.3)
    tracemalloc.start()
    try:
        solver.solve(1000.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.35e6


def test_negative_frozen_z_rejected():
    with pytest.raises(ValueError):
        FrameSolver(TOY_CFG, TOY_MODEL).solve(-0.1)


@pytest.mark.parametrize("z", [float("nan"), float("inf")])
def test_non_finite_frozen_z_rejected(z):
    with pytest.raises(ValueError, match="finite"):
        FrameSolver(TOY_CFG, TOY_MODEL).solve(z)


def schedule_empty_queue(values, actions, s):
    actions[3, s] = Action.USER2


def write_no_action(values, actions, s):
    actions[0, s] = -1


def write_nan(values, actions, s):
    values[5, s] = np.nan


@pytest.mark.parametrize("corrupt", [schedule_empty_queue, write_no_action, write_nan])
def test_solve_rejects_bad_table(monkeypatch, corrupt):
    cfg, model = reference_cfg(5.0), reference_model()
    empty = StateSpace(cfg, model).index(SystemState(4, 0, (GOOD, BAD)))
    kernel = _kernels.get_solver()

    def broken_kernel(*args):
        kernel(*args)
        corrupt(args[-2], args[-1], empty)

    monkeypatch.setattr(_kernels, "get_solver", lambda: broken_kernel)
    with pytest.raises(InfeasibleActionError):
        FrameSolver(cfg, model).solve(2.0)


@pytest.mark.parametrize("code", [3, 7, 8, 100, 127, -2, -128])
def test_solve_rejects_out_of_range_action(monkeypatch, code):
    kernel = _kernels.get_solver()

    def broken_kernel(*args):
        kernel(*args)
        args[-1][-1, 0] = code

    monkeypatch.setattr(_kernels, "get_solver", lambda: broken_kernel)
    with pytest.raises(InfeasibleActionError, match="infeasible action"):
        FrameSolver(reference_cfg(5.0), reference_model()).solve(2.0)


@settings(max_examples=150, deadline=None)
@given(kernel_instances(), st.integers(1, 4), st.floats(-1.0, 1.0))
def test_certified_radius_keeps_the_actions(instance, ulps, where):
    # Every debt within the certified radius, a few ulps away, at 0.99 of the
    # radius on either side, or at a random point inside it, solves to the
    # same actions bit for bit.
    solver, z = instance
    table = solver.solve(z)
    r = min(table.radius, 1e6)  # +inf when the costs do not depend on z
    if r < 0:
        return
    nearby = [z, z + 0.99 * r, z - 0.99 * r, z + where * r]
    up = down = z
    for _ in range(ulps):
        up, down = np.nextafter(up, math.inf), np.nextafter(down, -math.inf)
    nearby += [float(up), float(down)]
    for z_near in nearby:
        if z_near >= 0 and abs(z_near - z) <= table.radius:
            assert np.array_equal(solver.solve(z_near).actions, table.actions), z_near


@pytest.mark.parametrize("v, z", [(5.0, 30.0), (5.0, 30.00000000000042), (10.0, 60.0)])
def test_known_ties_certify_no_radius(v, z):
    # At frame-start Z = 6V, USER1 and USER2 tie in some states of the
    # reference scenario, so only the exact debt is certified.
    assert FrameSolver(reference_cfg(v), reference_model()).solve(z).radius == -1.0


def test_certified_radius_is_tight_where_the_gap_closes_at_full_speed():
    # T = 1, p2 = 1 and rho = 1/2: with a packet queued, q(USER1) = 3 + z/2 and
    # q(USER2) = 4 - z/2, so their gap of 1 closes at rate 2c = 1 and they
    # tie at z = 1, where USER2 takes over. The certified radius must stop
    # short of 1, and by no more than rounding.
    solver = FrameSolver(FrameConfig(T=1, K=1, q=0.5, A_max=2, V=2.0), IIDChannel(0.5, 1.0))
    table = solver.solve(0.0)
    assert 1.0 - 1e-9 < table.radius < 1.0
    assert np.array_equal(solver.solve(table.radius).actions, table.actions)
    assert not np.array_equal(solver.solve(1.0).actions, table.actions)


def test_margin_ties_and_nan_certify_no_radius():
    solver = FrameSolver(reference_cfg(5.0), reference_model())
    T = solver.cfg.T
    assert solver.certified_radius(np.full(T, 1.0), 2.0) > 0
    for bad in (0.0, -1.0, math.nan):
        margins = np.full(T, 1.0)
        margins[T // 2] = bad
        assert solver.certified_radius(margins, 2.0) == -1.0
