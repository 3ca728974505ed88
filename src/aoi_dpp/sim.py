"""Multi-frame closed-loop simulation.

The drift-plus-penalty controller re-solves the frame DP at every frame start
with the debt value frozen at Z(t_m), executes the resulting policy slot by
slot, and updates age, queue and debt every slot. The deterministic baselines
run as fixed action tables through the same lookup; only the uniform baseline
decides slot by slot. Runs are bit-reproducible from (config, model, policy,
horizon, seed): channel randomness, action randomness (uniform baseline) and the
initial channel draw come from separately spawned streams of one seed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import lyapunov
from .channel import (
    BAD,
    GOOD,
    ChannelModel,
    GilbertElliotChannel,
    NoUniqueStationaryError,
    stationary_state,
)
from .model import (
    Action,
    FrameConfig,
    SystemState,
    feasible_actions,
    step_aoi,
    step_queue,
)
from .solver import FrameSolver, PolicyTable, StateSpace


class PolicyKind(enum.Enum):
    DRIFT_PLUS_PENALTY = "drift_plus_penalty"
    DEADLINE_FIRST = "deadline_first"
    AOI_GREEDY = "aoi_greedy"
    UNIFORM_RANDOM = "uniform_random"

    @classmethod
    def parse(cls, name: str) -> "PolicyKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(
            f"unknown policy {name!r}; choose from "
            + ", ".join(k.value for k in cls)
        )


@dataclass
class Metrics:
    """Everything a run produces, at slot, frame and aggregate granularity.

    Per-slot arrays record the pre-decision state: aoi[t] and z_trajectory[t]
    are the values the scheduler saw at slot t (z_trajectory has one extra
    final entry). Aggregates honor warmup_slots; trajectories never do.
    """

    cfg: FrameConfig
    policy: PolicyKind
    seed: int
    horizon_slots: int
    warmup_slots: int
    frames: int
    aoi: np.ndarray
    queue: np.ndarray
    actions: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    z_trajectory: np.ndarray
    per_frame_deliveries: np.ndarray
    aoi_histogram: np.ndarray
    schedule_fractions: np.ndarray
    #: The controller's first table, solved at Z = 0; None for baselines.
    frame0_policy: PolicyTable | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def mean_aoi(self) -> float:
        return float(self.aoi[self.warmup_slots :].mean())

    @property
    def delivery_mean(self) -> float:
        """Per-frame delivery average over frames starting after warmup."""
        first = math.ceil(self.warmup_slots / self.cfg.T)
        return float(self.per_frame_deliveries[first:].mean())

    @property
    def rate_stability(self) -> float:
        return lyapunov.rate_stability_stat(self.z_trajectory)

    @property
    def frame_start_z(self) -> np.ndarray:
        """Z at t = 0, T, 2T, ... including the start of the frame after the last."""
        return self.z_trajectory[:: self.cfg.T][: self.frames + 1]


def baseline_decision(
    policy: PolicyKind,
    state: SystemState,
    rng: np.random.Generator | None = None,
) -> Action:
    """Decision of a non-DP baseline in the given state."""
    if policy == PolicyKind.DEADLINE_FIRST:
        return Action.USER2 if state.queue > 0 else Action.USER1
    if policy == PolicyKind.AOI_GREEDY:
        return Action.USER1
    if policy == PolicyKind.UNIFORM_RANDOM:
        if rng is None:
            raise ValueError("uniform_random needs a randomness source")
        options = feasible_actions(state)
        return options[int(rng.integers(len(options)))]
    raise ValueError(f"{policy} is not a baseline; run it through the controller")


def run_simulation(
    cfg: FrameConfig,
    model: ChannelModel,
    policy: PolicyKind,
    horizon_slots: int,
    seed: int,
    *,
    warmup_slots: int = 0,
    z_cache_bucket: float = 0.0,
    initial_channel: tuple[int, int] | None = None,
) -> Metrics:
    """Simulate `horizon_slots` slots and collect Metrics.

    An infeasible or uncertifiable delivery target does not abort the run; it
    is recorded in Metrics.warnings and the controller still does its best.
    """
    T, K, A_max = cfg.T, cfg.K, cfg.A_max
    if horizon_slots < T:
        raise ValueError(f"horizon_slots must be >= T={T}, got {horizon_slots}")
    # The delivery mean needs one full frame after warmup.
    if not 0 <= warmup_slots <= (horizon_slots // T - 1) * T:
        raise ValueError(
            f"warmup_slots must be in [0, (horizon // T - 1) * T], got {warmup_slots}"
        )

    warnings: list[str] = []
    try:
        lyapunov.slackness_epsilon(model, T, cfg.q)
    except lyapunov.InfeasibleError as err:
        warnings.append(str(err))
    except NoUniqueStationaryError as err:
        # A frozen user-2 chain has no long-run success rate to certify q with.
        warnings.append(f"q={cfg.q} has no slackness certificate: {err}")

    # One channel step: user i is Good this slot when u_i[t] < g_i[previous
    # state], g_i = (P(Good | Bad), P(Good | Good)); i.i.d. users share u.
    chan_ss, act_ss, init_ss = np.random.SeedSequence(seed).spawn(3)
    chan_rng = np.random.default_rng(chan_ss)
    act_rng = np.random.default_rng(act_ss)
    if isinstance(model, GilbertElliotChannel):
        u1, u2 = chan_rng.random((horizon_slots, 2)).T
        g1, g2 = (model.p01_1, model.p11_1), (model.p01_2, model.p11_2)
        m1, m2 = initial_channel or stationary_state(model, np.random.default_rng(init_ss))
    elif initial_channel is not None:
        raise ValueError("initial_channel applies to the Gilbert-Elliot model only")
    else:
        u1 = u2 = chan_rng.random(horizon_slots)
        g1, g2 = (model.p1, model.p1), (model.p2, model.p2)
        m1 = m2 = BAD

    # Every policy but uniform_random reads a (T, S) action table: the controller
    # solves one per frame, a deterministic baseline's is built once.
    frame_solver = table = frame0_policy = None
    if policy == PolicyKind.DRIFT_PLUS_PENALTY:
        frame_solver = FrameSolver(cfg, model, z_bucket=z_cache_bucket)
        space = frame_solver.space
    else:
        space = StateSpace(cfg, model)
        states = list(space.states())
        if policy != PolicyKind.UNIFORM_RANDOM:
            row = [baseline_decision(policy, state) for state in states]
            table = np.broadcast_to(np.array(row, dtype=np.int8), (T, space.n_states))
    index = space.index_parts
    w1, w2 = space.mem_weights

    aoi_arr = np.empty(horizon_slots, dtype=np.int32)
    queue_arr = np.empty(horizon_slots, dtype=np.int32)
    act_arr = np.empty(horizon_slots, dtype=np.int8)
    d1_arr = np.zeros(horizon_slots, dtype=np.int8)
    d2_arr = np.zeros(horizon_slots, dtype=np.int8)
    z_arr = np.empty(horizon_slots + 1)

    aoi, queue, z = 1, K, 0.0
    rho = cfg.rho
    for t in range(horizon_slots):
        j = t % T
        if frame_solver is not None and j == 0:
            solved = frame_solver.solve(z)
            table = solved.actions
            if t == 0:
                frame0_policy = solved
        aoi_arr[t] = aoi
        queue_arr[t] = queue
        z_arr[t] = z

        idx = index(aoi, queue, w1 * m1 + w2 * m2)
        if table is None:
            action = int(baseline_decision(policy, states[idx], act_rng))
        else:
            action = int(table[j, idx])

        m1 = GOOD if u1[t] < g1[m1] else BAD
        m2 = GOOD if u2[t] < g2[m2] else BAD
        d1 = m1 if action == Action.USER1 else 0
        d2 = m2 if action == Action.USER2 else 0

        act_arr[t] = action
        d1_arr[t] = d1
        d2_arr[t] = d2
        aoi = step_aoi(aoi, d1, A_max)
        queue = step_queue(queue, d2, j == T - 1, K)
        z = lyapunov.update_virtual_queue(z, d2, rho)
    z_arr[horizon_slots] = z

    frames = horizon_slots // T
    per_frame = d2_arr[: frames * T].reshape(frames, T).sum(axis=1).astype(np.int32)
    hist = np.bincount(aoi_arr[warmup_slots:], minlength=A_max + 1)[1:]
    offsets = np.arange(warmup_slots, horizon_slots) % T
    counts = np.zeros((T, 3))
    np.add.at(counts, (offsets, act_arr[warmup_slots:]), 1.0)
    fractions = counts / counts.sum(axis=1, keepdims=True)

    return Metrics(
        cfg=cfg,
        policy=policy,
        seed=seed,
        horizon_slots=horizon_slots,
        warmup_slots=warmup_slots,
        frames=frames,
        aoi=aoi_arr,
        queue=queue_arr,
        actions=act_arr,
        d1=d1_arr,
        d2=d2_arr,
        z_trajectory=z_arr,
        per_frame_deliveries=per_frame,
        aoi_histogram=hist,
        schedule_fractions=fractions,
        frame0_policy=frame0_policy,
        warnings=warnings,
    )
