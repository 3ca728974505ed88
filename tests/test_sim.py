import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_instance, reference_cfg, reference_model
from test_sim_golden import CHANNELS, PARTIAL_HORIZON

from aoi_dpp import sim, solver
from aoi_dpp.channel import BAD, GOOD, GilbertElliotChannel, IIDChannel, stationary_state
from aoi_dpp.config import (
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    render_config,
    with_overrides,
)
from aoi_dpp.lyapunov import bounds_report, update_virtual_queue
from aoi_dpp.model import Action, FrameConfig, SystemState, step_aoi, step_queue
from aoi_dpp.oracle import stationary_aoi_mean
from aoi_dpp.sim import PolicyKind, baseline_decision, run_simulation
from aoi_dpp.solver import StateSpace


def small_run(v=5.0, policy=PolicyKind.DRIFT_PLUS_PENALTY, horizon=20_000, seed=1, **kw):
    return run_simulation(reference_cfg(v), reference_model(), policy, horizon, seed, **kw)


def action_draws(seed: int, horizon_slots: int) -> list[int]:
    """uniform_random's draws in a run from `seed`: one bulk draw in 0..5 a
    slot on the second of the run's three seed streams."""
    act_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
    return act_rng.integers(6, size=horizon_slots, dtype=np.uint8).tolist()


def test_baseline_decisions():
    assert baseline_decision(PolicyKind.DEADLINE_FIRST, SystemState(3, 3)) == Action.USER2
    assert baseline_decision(PolicyKind.DEADLINE_FIRST, SystemState(3, 0)) == Action.USER1
    assert baseline_decision(PolicyKind.AOI_GREEDY, SystemState(1, 15)) == Action.USER1
    draws = action_draws(0, 100)
    seen = {baseline_decision(PolicyKind.UNIFORM_RANDOM, SystemState(1, 5), d) for d in draws}
    assert seen == {Action.USER1, Action.USER2, Action.IDLE}
    # Each draw in 0..5 picks feasible_actions(state)[draw % len(options)].
    for d in range(6):
        assert baseline_decision(PolicyKind.UNIFORM_RANDOM, SystemState(1, 5), d) == (
            Action.USER1, Action.USER2, Action.IDLE)[d % 3]
        assert baseline_decision(PolicyKind.UNIFORM_RANDOM, SystemState(1, 0), d) == (
            Action.USER1, Action.IDLE)[d % 2]
    with pytest.raises(ValueError):
        baseline_decision(PolicyKind.UNIFORM_RANDOM, SystemState(1, 5))
    with pytest.raises(ValueError):
        baseline_decision(PolicyKind.DRIFT_PLUS_PENALTY, SystemState(1, 5))


@pytest.mark.parametrize("model", [IIDChannel(0.7, 0.6), reference_model()],
                         ids=["iid", "gilbert_elliot"])
@pytest.mark.parametrize("policy", [PolicyKind.DEADLINE_FIRST, PolicyKind.AOI_GREEDY,
                                    PolicyKind.UNIFORM_RANDOM])
def test_baseline_row_follows_baseline_decision(policy, model):
    # The baselines run without a slot loop, on the premise that their
    # action depends on queue > 0 and the slot's draw alone: in every state
    # and at every draw it must be the (empty, queued) pair that the array
    # path schedules.
    space = StateSpace(reference_cfg(5.0), model)
    for d in range(6):
        pair = sim._baseline_actions(policy, d)
        for state in space.states():
            assert baseline_decision(policy, state, d) == pair[state.queue > 0], (d, state)


def test_determinism_same_seed():
    a = small_run(horizon=5_000)
    b = small_run(horizon=5_000)
    for field in ("aoi", "queue", "actions", "d1", "d2", "z_trajectory"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    c = small_run(horizon=5_000, seed=2)
    assert not np.array_equal(a.actions, c.actions)


def test_v0_controller_equals_deadline_first():
    a = small_run(v=0.0, horizon=10_000)
    b = small_run(v=0.0, policy=PolicyKind.DEADLINE_FIRST, horizon=10_000)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.d2, b.d2)


def test_trajectory_invariants():
    m = small_run(policy=PolicyKind.UNIFORM_RANDOM, horizon=8_000, seed=3)
    cfg = m.cfg
    assert m.aoi.min() >= 1 and m.aoi.max() <= cfg.A_max
    assert m.queue.min() >= 0 and m.queue.max() <= cfg.K
    # frame starts see a full queue; within a frame it only drains by d2
    starts = np.arange(0, m.horizon_slots, cfg.T)
    assert np.all(m.queue[starts] == cfg.K)
    for t in range(1, m.horizon_slots):
        if t % cfg.T != 0:
            assert m.queue[t] == max(m.queue[t - 1] - m.d2[t - 1], 0)
    offsets = np.arange(m.horizon_slots) % cfg.T
    early = offsets < cfg.K
    assert np.all(m.queue[early] >= cfg.K - offsets[early])


def test_metrics_accounting():
    m = small_run(horizon=6_000, seed=5)
    assert m.frames == 6_000 // 20
    assert m.aoi_histogram.sum() == m.horizon_slots
    assert m.per_frame_deliveries.max() <= min(m.cfg.T, m.cfg.K)
    assert 1.0 <= m.mean_aoi <= m.cfg.A_max
    assert np.allclose(m.schedule_fractions.sum(axis=1), 1.0)
    assert m.z_trajectory.shape == (m.horizon_slots + 1,)
    # delivery indicators only where the matching user was scheduled
    assert np.all((m.d1 == 0) | (m.actions == int(Action.USER1)))
    assert np.all((m.d2 == 0) | (m.actions == int(Action.USER2)))


def test_warmup_cut():
    full = small_run(horizon=6_000, seed=7)
    cut = small_run(horizon=6_000, seed=7, warmup_slots=2_000)
    assert np.array_equal(full.aoi, cut.aoi)  # trajectories unaffected
    assert cut.aoi_histogram.sum() == 4_000
    assert cut.mean_aoi == pytest.approx(float(full.aoi[2_000:].mean()))
    assert cut.delivery_mean == pytest.approx(float(full.per_frame_deliveries[100:].mean()))


@pytest.mark.parametrize("T", [1, 255, 256, 300])
@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 299), st.integers(0, 2**32 - 1))
def test_queues_match_step_queue(T, frames, extra, seed):
    # K = T, and each slot delivers while the queue holds a packet, but for
    # rare misses, so at T = 300 the in-frame count passes 255; the horizon
    # ends in a partial frame whenever extra % T > 0.
    horizon = frames * T + extra % T
    miss = np.random.default_rng(seed).random(horizon) < 0.01
    queue, plain, d2 = T, [], []
    for t in range(horizon):
        delivered = int(queue > 0 and not miss[t])
        plain.append(queue)
        d2.append(delivered)
        queue = step_queue(queue, delivered, (t + 1) % T == 0, T)
    queues = sim._queues(np.array(d2, dtype=np.int8), T, T)
    assert queues.dtype == np.int32 and queues.tolist() == plain


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 29), st.integers(0, 2**32 - 1))
def test_schedule_counts_match_plain_count(T, frames, extra, seed):
    # (slot in frame, action) counts from the first counted slot on, for
    # horizons that end in a partial frame and warmups inside a frame.
    horizon = frames * T + extra % T
    rng = np.random.default_rng(seed)
    warmup = int(rng.integers(0, horizon))
    actions = rng.integers(0, 3, horizon).astype(np.int8)
    slots = np.arange(warmup, horizon)
    plain = np.bincount(slots % T * 3 + actions[warmup:], minlength=3 * T).reshape(T, 3)
    counts = sim._schedule_counts(actions, T, warmup)
    assert counts.dtype == plain.dtype and np.array_equal(counts, plain)


# T = 4, 41 slots: frames start at 0, 4, ..., 36, and frame 9 ends at 40
SMALL_RUN = ExperimentConfig(T=4, K=2, q=1.0, A_max=5, V=(1.0,), channel=IIDChannel(0.9, 0.8),
                             horizon_slots=41, policy=PolicyKind.DEADLINE_FIRST)
REFERENCE_RUN = ExperimentConfig(T=20, K=15, q=12.0, A_max=20, V=(5.0,),
                                 channel=reference_model(), horizon_slots=40)


def frozen(user: int) -> GilbertElliotChannel:
    """The reference link with one user's chain stuck in its first state."""
    return replace(reference_model(), **{f"p11_{user}": 1.0, f"p01_{user}": 0.0})


#: Run inputs and the key `check_run_inputs` names for them; None = runs.
RUN_RULES = {
    "horizon-below-T": (replace(REFERENCE_RUN, horizon_slots=10), "horizon_slots"),
    "seed-negative": (replace(SMALL_RUN, seed=-1), "seed"),
    "warmup-negative": (replace(SMALL_RUN, warmup_slots=-1), "warmup_slots"),
    "warmup-last-full-frame": (replace(SMALL_RUN, warmup_slots=36), None),
    # warmup 37 would leave no full frame for the delivery mean
    "warmup-no-full-frame": (replace(SMALL_RUN, warmup_slots=37), "warmup_slots"),
    "warmup-90-of-100": (replace(REFERENCE_RUN, horizon_slots=100, warmup_slots=90),
                         "warmup_slots"),
    # a frozen chain has no stationary law to draw its first state from
    "frozen-user-1": (replace(REFERENCE_RUN, channel=frozen(1)), "channel.p11_1"),
    "frozen-user-2": (replace(REFERENCE_RUN, channel=frozen(2)), "channel.p11_2"),
    "numpy-ints": (replace(SMALL_RUN, horizon_slots=np.int64(41), seed=np.int32(2),
                           warmup_slots=np.int16(4)), None),
}
#: Run inputs that only the library can be given, since the config parser
#: reads the ints and the policy name first, and the key named for them.
LIBRARY_RULES = {
    "horizon-float": (replace(SMALL_RUN, horizon_slots=41.0), "horizon_slots"),
    "seed-float": (replace(SMALL_RUN, seed=1.5), "seed"),
    "warmup-float": (replace(SMALL_RUN, warmup_slots=20.5), "warmup_slots"),
    "policy-name": (replace(SMALL_RUN, policy="drift_plus_penalty"), "policy"),
}


def forbid_compute(monkeypatch):
    """Fail the test if a run draws randomness or builds its FrameSolver."""
    def no_compute(*args, **kwargs):
        raise AssertionError("the run started computing")

    monkeypatch.setattr(sim, "FrameSolver", no_compute)
    monkeypatch.setattr(np.random, "SeedSequence", no_compute)


@pytest.mark.parametrize("rule", sorted(RUN_RULES | LIBRARY_RULES))
def test_run_rule_at_library_boundary(rule, monkeypatch):
    cfg, key = (RUN_RULES | LIBRARY_RULES)[rule]

    def run(tables=None):
        return run_simulation(cfg.frame_config(cfg.V[0]), cfg.channel, cfg.policy,
                              cfg.horizon_slots, cfg.seed, warmup_slots=cfg.warmup_slots,
                              tables=tables)

    if key is None:
        tables = None
        if cfg.policy == PolicyKind.DRIFT_PLUS_PENALTY:
            tables = sim.FrameTables(cfg.frame_config(cfg.V[0]), cfg.channel)
        m = run(tables)
        assert math.isfinite(m.delivery_mean)
        # frame 0 looks its debt up as the Z = 0 table
        assert tables is None or (tables.frame0.frozen_z == 0.0
                                  and m.diagnostics["exact_hits"] >= 1)
        return
    forbid_compute(monkeypatch)
    with pytest.raises(ValueError) as exc:
        run()
    assert str(exc.value).startswith(f"{key} must ")


@pytest.mark.parametrize("rule", sorted(RUN_RULES))
def test_run_rule_at_config_boundary(rule):
    cfg, key = RUN_RULES[rule]
    checks = [
        lambda: parse_config_text(render_config(cfg)),
        # --seed and --horizon, applied over other values, are checked alike
        lambda: with_overrides(replace(cfg, seed=1, horizon_slots=10**6),
                               seed=cfg.seed, horizon=cfg.horizon_slots),
    ]
    for check in checks:
        if key is None:
            assert check() == cfg
            continue
        with pytest.raises(ConfigError) as exc:
            check()
        assert exc.value.key == key
        assert str(exc.value).startswith(f"{key}: must ")


def test_infeasible_target_warns_but_runs():
    cfg = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    model = IIDChannel(p1=0.9, p2=0.5)  # 10 expected < 12 required
    m = run_simulation(cfg, model, PolicyKind.DRIFT_PLUS_PENALTY, 2_000, 1)
    assert m.warnings and "not certifiably feasible" in m.warnings[0]
    assert m.horizon_slots == 2_000


LAW_CASES = [
    pytest.param(policy, chan, 15, id=f"{policy}-{chan}")
    for policy in PolicyKind
    for chan in sorted(CHANNELS)
]
# Two packets a frame, so uniform_random's queue empties mid-frame.
LAW_CASES.append(
    pytest.param(PolicyKind.UNIFORM_RANDOM, "ge", 2, id="PolicyKind.UNIFORM_RANDOM-ge-K2"))


@pytest.mark.parametrize("policy, chan, K", LAW_CASES)
def test_loop_follows_model_laws(policy, chan, K):
    # The controller picks its actions in the slot loop, which reads the
    # StateSpace.successors table (step_aoi and step_queue mid-frame) and
    # its refill list; the baselines pick theirs by array operations, and
    # uniform_random from one bulk draw. Every policy's age, queue and debt
    # then come from sim._ages, sim._queues and sim._debts. The actions of
    # every baseline follow baseline_decision at the slot's draw, and every
    # slot of a run ending in a partial frame must agree with them.
    cfg, seed = replace(reference_cfg(5.0), K=K, q=12.0 * K / 15), 3
    m = run_simulation(cfg, CHANNELS[chan], policy, PARTIAL_HORIZON, seed)
    if K < 15:
        assert (m.queue == 0).any()
    draws = action_draws(seed, PARTIAL_HORIZON)
    T, K, A_max, rho = cfg.T, cfg.K, cfg.A_max, cfg.rho
    aoi, queue, actions, d1, d2, z = (
        getattr(m, name).tolist()
        for name in ("aoi", "queue", "actions", "d1", "d2", "z_trajectory")
    )
    assert (aoi[0], queue[0], z[0]) == (1, K, 0.0)
    for t in range(m.horizon_slots):
        if t + 1 < m.horizon_slots:
            assert aoi[t + 1] == step_aoi(aoi[t], d1[t], A_max), t
            assert queue[t + 1] == step_queue(queue[t], d2[t], (t + 1) % T == 0, K), t
        assert z[t + 1].hex() == update_virtual_queue(z[t], d2[t], rho).hex(), t
        assert d1[t] in (0, 1) and d2[t] in (0, 1), t
        assert not d1[t] or actions[t] == Action.USER1, t
        assert not d2[t] or actions[t] == Action.USER2, t
        if policy != PolicyKind.DRIFT_PLUS_PENALTY:
            state = SystemState(aoi[t], queue[t])
            assert actions[t] == baseline_decision(policy, state, draws[t]), t


def test_uniform_random_picks_uniformly_from_feasible_actions():
    # With two packets a frame the queue empties in most frames, so both of
    # uniform_random's rows apply often. Where a packet is queued each of
    # the three actions, and where none is USER1 and IDLE, must take its
    # share within 5 binomial standard errors; USER2 never serves an empty
    # queue. Whether a slot's queue holds depends on earlier draws only.
    cfg = replace(reference_cfg(5.0), K=2, q=1.6)
    m = run_simulation(cfg, reference_model(), PolicyKind.UNIFORM_RANDOM, 200_000, 5)
    for holds, actions in ((True, Action), (False, (Action.USER1, Action.IDLE))):
        picked = m.actions[(m.queue > 0) == holds]
        p = 1 / len(actions)
        se = math.sqrt(p * (1 - p) / len(picked))
        assert len(picked) > 50_000, holds
        for action in actions:
            assert abs(np.mean(picked == action) - p) <= 5 * se, (holds, action)
    assert not (m.actions[m.queue == 0] == Action.USER2).any()


TRAJECTORIES = ("aoi", "queue", "actions", "d1", "d2", "z_trajectory")


def reference_loop(cfg, model, policy, horizon_slots, seed):
    """`run_simulation`'s six trajectory arrays, dtypes included, from the
    plain per-slot loop: each slot looks up the action of its SystemState
    (in the frame's table, or from `baseline_decision` at the slot's draw),
    draws both users' next channel states from that slot's uniforms, then
    applies the model laws. The randomness is the run's: channel, action
    and initial-state streams spawned from `seed`."""
    T, K, A_max, rho = cfg.T, cfg.K, cfg.A_max, cfg.rho
    chan_ss, _, init_ss = np.random.SeedSequence(seed).spawn(3)
    chan_rng, draws = np.random.default_rng(chan_ss), action_draws(seed, horizon_slots)
    if isinstance(model, GilbertElliotChannel):
        u1, u2 = chan_rng.random((horizon_slots, 2)).T.tolist()
        g1, g2 = (model.p01_1, model.p11_1), (model.p01_2, model.p11_2)
        m1, m2 = stationary_state(model, np.random.default_rng(init_ss))
    else:
        u1 = u2 = chan_rng.random(horizon_slots).tolist()
        g1, g2 = (model.p1, model.p1), (model.p2, model.p2)
        m1 = m2 = BAD
    space = StateSpace(cfg, model)
    tables = None
    if policy == PolicyKind.DRIFT_PLUS_PENALTY:
        tables = sim.FrameTables(cfg, model)
    out = {name: [] for name in TRAJECTORIES}
    aoi, queue, z = 1, K, 0.0
    for t in range(horizon_slots):
        if tables is not None and t % T == 0:
            table = tables.actions(z)[0]
        state = SystemState(aoi, queue, (m1, m2) if space.has_memory else None)
        if tables is not None:
            action = table[t % T * space.n_states + space.index(state)]
        else:
            action = int(baseline_decision(policy, state, draws[t]))
        m1 = GOOD if u1[t] < g1[m1] else BAD
        m2 = GOOD if u2[t] < g2[m2] else BAD
        d1 = int(action == Action.USER1 and m1 == GOOD)
        d2 = int(action == Action.USER2 and m2 == GOOD)
        for name, value in zip(TRAJECTORIES, (aoi, queue, action, d1, d2, z)):
            out[name].append(value)
        aoi = step_aoi(aoi, d1, A_max)
        queue = step_queue(queue, d2, (t + 1) % T == 0, K)
        z = update_virtual_queue(z, d2, rho)
    out["z_trajectory"].append(z)
    dtypes = (np.int32, np.int32, np.int8, np.int8, np.int8, np.float64)
    return {name: np.array(out[name], dtype=dtype) for name, dtype in zip(TRAJECTORIES, dtypes)}


def assert_matches_reference_loop(m, model) -> None:
    expected = reference_loop(m.cfg, model, m.policy, m.horizon_slots, m.seed)
    for name in TRAJECTORIES:
        a, b = expected[name], getattr(m, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if name == "z_trajectory":
            assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]
        else:
            assert np.array_equal(a, b), name


def seeded_instance(seed: int) -> tuple[FrameConfig, IIDChannel | GilbertElliotChannel, int]:
    """(cfg, model) of `random_instance` drawn from `seed`, and `seed`."""
    cfg, model, _, _ = random_instance(np.random.default_rng(seed))
    return cfg, model, seed


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1).map(seeded_instance), st.sampled_from(list(PolicyKind)),
       st.integers(2, 40))
# Always run: uniform_random with one packet a frame and a user-2 link that
# always lands, so the queue empties at the frame's first user-2 slot and
# the later slots draw from the two actions an empty queue allows.
@example((FrameConfig(T=3, K=1, q=0.5, A_max=3, V=0.0), IIDChannel(0.5, 1.0), 7),
         PolicyKind.UNIFORM_RANDOM, 20)
def test_run_matches_reference_loop(instance, policy, frames):
    # Random small instances of both link models (Gilbert-Elliot links
    # persistent, anti-persistent or mixed), every policy, and a horizon
    # that ends in a partial frame whenever T > 1.
    cfg, model, seed = instance
    horizon = frames * cfg.T + seed % cfg.T
    m = run_simulation(cfg, model, policy, horizon, seed % 1000)
    assert_matches_reference_loop(m, model)


def test_run_with_more_states_than_int16_holds():
    # 400 * 21 * 4 = 33,600 states. User 2's link keeps the queue from
    # emptying, so deadline_first never serves user 1, whose age reaches
    # A_max and the state indices above 32,767.
    cfg = FrameConfig(T=20, K=20, q=8.0, A_max=400, V=0.0)
    model = GilbertElliotChannel(p11_1=0.9, p01_1=0.6, p11_2=0.5, p01_2=0.4)
    assert StateSpace(cfg, model).n_states == 33_600
    m = run_simulation(cfg, model, PolicyKind.DEADLINE_FIRST, 1_010, 0)
    assert m.aoi.max() == cfg.A_max
    assert_matches_reference_loop(m, model)
    # 40,001 states, and frames of 40,000 slots in which user 2's link lands
    # about 36,000 times: deadline_first's in-frame landing count passes
    # 32,767 while the queue is still above 0. The horizon ends in a
    # partial frame.
    cfg = FrameConfig(T=40_000, K=40_000, q=8.0, A_max=1, V=0.0)
    model = IIDChannel(p1=0.5, p2=0.9)
    for policy in (PolicyKind.DEADLINE_FIRST, PolicyKind.AOI_GREEDY):
        m = run_simulation(cfg, model, policy, 41_013, 0)
        assert_matches_reference_loop(m, model)
        if policy == PolicyKind.DEADLINE_FIRST:
            assert 0 < m.queue[cfg.T - 1] < cfg.K - 32_767


def test_long_baseline_run_memory_peak():
    # deadline_first takes no slot loop: its trajectories are array
    # operations over the channel codes, which are computed first, and the
    # uniforms are freed before any trajectory is allocated. The traced peak
    # at 50,000 slots is 1.24 MB, reached in computing the channel codes. It
    # was 1.37 MB when the age histogram's bincount took the whole horizon
    # at once (an intp copy of the ages), 2.17 MB for a run that keeps the
    # horizon's 0.8 MB of uniforms alive to its end as an array, and 7.8 MB
    # as a .tolist().
    baseline = dict(policy=PolicyKind.DEADLINE_FIRST, seed=0)
    small_run(horizon=1_000, **baseline)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        small_run(horizon=50_000, **baseline)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3e6


def test_slot_loop_starts_without_the_uniforms(monkeypatch):
    # The uniforms are freed before the loop, and the loop allocates one
    # int8 action array: at a 50,000-slot run's first table lookup the
    # traced memory holds the channel codes and the actions, 0.10 MB. A loop
    # that also records the state index and the debt of every slot reads
    # 0.60 MB there, and a run that keeps the horizon's 0.8 MB of uniforms
    # alive through the loop 1.40 MB; a run peaks outside its loop, so
    # test_long_baseline_run_memory_peak cannot see either.
    tables = sim.FrameTables(reference_cfg(5.0), reference_model())
    small_run(horizon=1_000, tables=tables)  # imports and caches outside the trace
    at_loop_start = []
    lookup = tables.actions

    def first_lookup(frozen_z):
        if not at_loop_start:
            at_loop_start.append(tracemalloc.get_traced_memory()[0])
        return lookup(frozen_z)

    monkeypatch.setattr(tables, "actions", first_lookup)
    tracemalloc.start()
    try:
        small_run(horizon=50_000, tables=tables)
    finally:
        tracemalloc.stop()
    assert at_loop_start[0] < 0.3e6


@pytest.mark.parametrize("v", [0.0, 5.0, 150.0])
def test_lookup_keys_are_the_debt_trajectory(v, monkeypatch):
    # The slot loop's running debt keys each frame's table lookup, and
    # sim._debts writes the debt trajectory: the two copies of the law must
    # agree bit for bit at every frame start, the partial last frame's
    # included. A tiny drift in the loop's copy would mostly pick the same
    # certified table, so no trajectory test would see it. At V = 0 the
    # controller serves user 2 from the first slot, so the floor at 0 applies.
    tables = sim.FrameTables(reference_cfg(v), reference_model())
    keys = []
    lookup = tables.actions

    def recording_lookup(frozen_z):
        keys.append(frozen_z)
        return lookup(frozen_z)

    monkeypatch.setattr(tables, "actions", recording_lookup)
    m = small_run(v=v, horizon=PARTIAL_HORIZON, seed=3, tables=tables)
    assert PARTIAL_HORIZON % m.cfg.T and len(keys) == m.frames + 1
    assert [z.hex() for z in keys] == [z.hex() for z in m.frame_start_z.tolist()]


def fresh_solve_every_frame(monkeypatch):
    monkeypatch.setattr(sim, "_TABLE_MEMO_BYTES", 0)


def dpp_run(v=5.0, **kw) -> tuple[sim.Metrics, sim.FrameTables]:
    """A small_run of the controller, and the FrameTables it used."""
    tables = sim.FrameTables(reference_cfg(v), reference_model())
    return small_run(v=v, tables=tables, **kw), tables


def assert_same_tables(a, b) -> None:
    """PolicyTables a and b are the same bits."""
    assert a.frozen_z.hex() == b.frozen_z.hex() and a.radius.hex() == b.radius.hex()
    assert a.values.tobytes() == b.values.tobytes()
    assert a.actions.tobytes() == b.actions.tobytes()


def assert_same_metrics(expected, actual) -> None:
    """Runs `expected` and `actual`, each (Metrics, the FrameTables it used),
    are the same bits, frame-0 table included."""
    (expected, expected_tables), (actual, actual_tables) = expected, actual
    for name in ("aoi", "queue", "actions", "d1", "d2", "z_trajectory",
                 "per_frame_deliveries", "aoi_histogram", "schedule_fractions"):
        a, b = getattr(expected, name), getattr(actual, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert_same_tables(expected_tables.frame0, actual_tables.frame0)
    assert expected.warnings == actual.warnings


#: Budgets of the table memo: the default, and two reference tables, which
#: evicts on most frames of a run whose frame-start debt cycles.
MEMO_BUDGETS = {"default": None, "two-tables": 2 * 20 * 1280}


@pytest.mark.parametrize("budget", sorted(MEMO_BUDGETS))
# the only value the config key accepts: tables keyed by the exact debt
@pytest.mark.parametrize("z_cache_bucket", [0.0])
@pytest.mark.parametrize("chan", ["ge", "iid"])
@pytest.mark.parametrize("v", [0.0, 5.0, 150.0])
def test_table_memo_matches_fresh_solves(v, chan, z_cache_bucket, budget, monkeypatch):
    # Reusing a frame's action table by its float frame-start debt gives the
    # same run, bit for bit, as a fresh solve at every frame start; the
    # horizon ends in a partial frame. The run is the one a config describes.
    run_cfg = replace(REFERENCE_RUN, V=(v,), channel=CHANNELS[chan], horizon_slots=PARTIAL_HORIZON,
                      seed=3, warmup_slots=100, z_cache_bucket=z_cache_bucket)
    assert parse_config_text(render_config(run_cfg)) == run_cfg
    cfg = run_cfg.frame_config(v)

    def run():
        tables = sim.FrameTables(cfg, run_cfg.channel)
        return run_simulation(cfg, run_cfg.channel, run_cfg.policy, run_cfg.horizon_slots,
                              run_cfg.seed, warmup_slots=run_cfg.warmup_slots,
                              tables=tables), tables

    if MEMO_BUDGETS[budget] is not None:
        monkeypatch.setattr(sim, "_TABLE_MEMO_BYTES", MEMO_BUDGETS[budget])
    memo = run()
    fresh_solve_every_frame(monkeypatch)
    assert_same_metrics(run(), memo)


@pytest.mark.parametrize("v", [5.0, 10.0, 150.0])
def test_certified_reuse_matches_fresh_solves(v, monkeypatch):
    # At V > 0 the frame-start debt almost never repeats as a float, so the
    # memo's reuse here is mostly certified: a table reused within its
    # radius must give the same run, bit for bit, as a fresh solve at every
    # frame start.
    memo, memo_tables = dpp_run(v=v, horizon=20_000)
    assert memo.diagnostics["certified_hits"] > 0
    assert sum(memo.diagnostics.values()) == memo.frames
    fresh_solve_every_frame(monkeypatch)
    fresh, fresh_tables = dpp_run(v=v, horizon=20_000)
    # frame 0 finds the table solved when the tables were built
    assert fresh.diagnostics == dict(fresh_solves=fresh.frames - 1, exact_hits=1,
                                     certified_hits=0)
    assert_same_metrics((fresh, fresh_tables), (memo, memo_tables))


def test_shared_tables_match_own_tables():
    # Seeds that share one FrameTables run as they do alone, and the sharing
    # shows only in the diagnostics: at V = 5 the later seeds reuse the
    # earlier ones' tables, at their own debts and within certified radii.
    cfg, model = reference_cfg(5.0), reference_model()
    tables = sim.FrameTables(cfg, model)
    shared = [small_run(v=5.0, horizon=2_000, seed=seed, tables=tables) for seed in (1, 2, 3)]
    for seed, m in zip((1, 2, 3), shared):
        alone = dpp_run(v=5.0, horizon=2_000, seed=seed)
        assert_same_metrics(alone, (m, tables))
        if seed > 1:
            assert m.diagnostics["fresh_solves"] < alone[0].diagnostics["fresh_solves"]
    with pytest.raises(ValueError, match="tables"):
        small_run(v=150.0, horizon=2_000, tables=tables)


@pytest.mark.parametrize("budget", [None, 0], ids=["default", "zero"])
def test_frame_tables_solve_frame0_once(budget, monkeypatch):
    # A FrameTables solves the Z = 0 table when it is built, and every run
    # that shares it looks frame 0 up there: the solves are that one plus
    # the runs' fresh solves, and frame 0 is never solved again, even when
    # the memo holds no table at all.
    cfg, model = reference_cfg(150.0), reference_model()
    own = sim.FrameSolver(cfg, model).solve(0.0)
    if budget is not None:
        monkeypatch.setattr(sim, "_TABLE_MEMO_BYTES", budget)
    calls = count_solves(monkeypatch)
    tables = sim.FrameTables(cfg, model)
    assert calls == [0.0]
    assert_same_tables(tables.frame0, own)
    runs = [small_run(v=150.0, horizon=2_000, seed=seed, tables=tables) for seed in (1, 2, 3)]
    assert len(calls) == 1 + sum(m.diagnostics["fresh_solves"] for m in runs)
    assert calls.count(0.0) == 1
    if budget == 0:
        for m in runs:
            assert m.diagnostics == dict(fresh_solves=m.frames - 1, exact_hits=1,
                                         certified_hits=0)


def test_baselines_report_no_table_lookups(monkeypatch):
    # Only the controller walks states: every baseline runs as array
    # operations, with no slot loop, no frame tables and no state space.
    def no_loop(*args, **kwargs):
        raise AssertionError("the run built a slot loop")

    for module, name in ((sim, "_slot_loop"), (sim, "FrameTables"), (solver, "StateSpace")):
        monkeypatch.setattr(module, name, no_loop)
    for policy in (PolicyKind.DEADLINE_FIRST, PolicyKind.AOI_GREEDY, PolicyKind.UNIFORM_RANDOM):
        m = small_run(policy=policy, horizon=213)
        assert m.diagnostics == dict(fresh_solves=0, exact_hits=0, certified_hits=0)


def count_solves(monkeypatch) -> list[float]:
    """Record the debt of every FrameSolver.solve call from now on."""
    calls = []
    solve = sim.FrameSolver.solve

    def counting_solve(self, frozen_z):
        calls.append(frozen_z)
        return solve(self, frozen_z)

    monkeypatch.setattr(sim.FrameSolver, "solve", counting_solve)
    return calls


def test_table_memo_reuses_tables_at_v0(monkeypatch):
    calls = count_solves(monkeypatch)
    m = small_run(v=0.0, horizon=3_000)
    # The run's distinct frame-start debts all fit the memo, so each is
    # solved once, and the 150 frames start at fewer than half as many.
    assert len(calls) == len(set(calls)) == len(set(m.frame_start_z[: m.frames].tolist()))
    assert len(calls) < m.frames // 2
    calls.clear()
    fresh_solve_every_frame(monkeypatch)
    small_run(v=0.0, horizon=3_000)
    assert len(calls) == m.frames


@pytest.mark.parametrize("cfg, frames", [
    (reference_cfg(150.0), 125),
    # 99,200-byte tables, of which 10 fit the budget
    (FrameConfig(T=40, K=30, q=24.0, A_max=20, V=150.0), 30),
], ids=["reference", "large-tables"])
def test_table_memo_memory_is_bounded_by_its_budget(cfg, frames, monkeypatch):
    # At V = 150 the frame-start debt never repeats, so every frame adds a
    # table and the memo holds as many as its budget allows. The traced peak
    # with the memo exceeds that of fresh solves by at most the budget plus
    # the per-entry objects; a memo that kept every action table would add
    # 3.2 MB over the 125 reference frames and 3.0 MB over the 30 larger ones.
    model = reference_model()

    def traced_peak() -> tuple[int, sim.Metrics]:
        run = (cfg, model, PolicyKind.DRIFT_PLUS_PENALTY)
        run_simulation(*run, cfg.T, 0)  # warm caches
        tables = sim.FrameTables(cfg, model)
        tracemalloc.start()
        try:
            m = run_simulation(*run, frames * cfg.T, 0, tables=tables)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, m

    budget = sim._TABLE_MEMO_BYTES
    with_memo, m = traced_peak()
    assert len(set(m.frame_start_z[:frames].tolist())) == frames
    fresh_solve_every_frame(monkeypatch)
    assert with_memo - traced_peak()[0] < budget + 64 * 1024


def test_aoi_greedy_matches_exact_chain():
    # Empirical mean age under always-serve-user-1 vs the stationary solve of
    # the induced chain, within 3 batch-means standard errors.
    m = small_run(policy=PolicyKind.AOI_GREEDY, horizon=200_000, seed=11)
    exact = stationary_aoi_mean(reference_model(), 20)
    batches = m.aoi.reshape(100, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(m.mean_aoi - exact) <= 3 * se


def test_sample_path_delivery_identity():
    # Pathwise form of the debt argument: per-frame deliveries can lag q by at
    # most Z(end)*T/horizon on average.
    m = small_run(horizon=50_000)
    q = m.cfg.q
    lag = m.rate_stability * m.cfg.T
    assert m.per_frame_deliveries.mean() >= q - lag - 1e-9


def test_frame_drift_respects_bound():
    # Pathwise Lyapunov increments minus the debt-weighted shortfall stay
    # below the slot-rate drift constant.
    m = small_run(horizon=50_000)
    b = bounds_report(m.cfg, reference_model())["drift_slot_rate"]
    zs = m.frame_start_z
    dl = 0.5 * (zs[1:] ** 2 - zs[:-1] ** 2)
    g_hat = zs[:-1] * (m.cfg.q - m.per_frame_deliveries)
    assert np.all(dl - g_hat <= b + 1e-9)
