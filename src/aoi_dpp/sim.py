"""Multi-frame closed-loop simulation.

The drift-plus-penalty controller re-solves the frame DP at every frame start
with the debt value frozen at Z(t_m), executes the resulting policy slot by
slot, and updates age, queue and debt every slot. Baseline policies share the
same loop. Runs are bit-reproducible from (config, model, policy, horizon,
seed): channel randomness, action randomness (uniform baseline) and the
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
    stationary_state,
)
from .model import (
    Action,
    FrameConfig,
    SystemState,
    feasible_actions,
    frame_offset,
    step_aoi,
    step_queue,
)
from .solver import FrameSolver


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
    avg_aoi_running: np.ndarray
    per_frame_deliveries: np.ndarray
    aoi_histogram: np.ndarray
    schedule_fractions: np.ndarray
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
    slot_in_frame: int,
    cfg: FrameConfig,
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

    An infeasible delivery target does not abort the run; it is recorded in
    Metrics.warnings and the controller still does its best.
    """
    T, K, A_max = cfg.T, cfg.K, cfg.A_max
    if horizon_slots < T:
        raise ValueError(f"horizon_slots must be >= T={T}, got {horizon_slots}")
    if not 0 <= warmup_slots <= horizon_slots - T:
        raise ValueError(
            f"warmup_slots must be in [0, horizon-T], got {warmup_slots}"
        )

    warnings: list[str] = []
    try:
        lyapunov.slackness_epsilon(model, T, cfg.q)
    except lyapunov.InfeasibleError as err:
        warnings.append(str(err))

    ge = isinstance(model, GilbertElliotChannel)
    if initial_channel is not None and not ge:
        raise ValueError("initial_channel applies to the Gilbert-Elliot model only")

    chan_ss, act_ss, init_ss = np.random.SeedSequence(seed).spawn(3)
    chan_rng = np.random.default_rng(chan_ss)
    act_rng = np.random.default_rng(act_ss)
    if ge:
        chan_u = chan_rng.random((horizon_slots, 2))
        # success-this-slot probability indexed by the previous slot's state
        tp1 = (model.p01_1, model.p11_1)
        tp2 = (model.p01_2, model.p11_2)
        mem = initial_channel or stationary_state(model, np.random.default_rng(init_ss))
        m1, m2 = mem
    else:
        chan_u = chan_rng.random(horizon_slots)
        m1 = m2 = 0

    dpp = policy == PolicyKind.DRIFT_PLUS_PENALTY
    frame_solver = FrameSolver(cfg, model, z_bucket=z_cache_bucket) if dpp else None
    table_actions = None
    kq = K + 1
    mem_count = 4 if ge else 1

    aoi_arr = np.empty(horizon_slots, dtype=np.int32)
    queue_arr = np.empty(horizon_slots, dtype=np.int32)
    act_arr = np.empty(horizon_slots, dtype=np.int8)
    d1_arr = np.zeros(horizon_slots, dtype=np.int8)
    d2_arr = np.zeros(horizon_slots, dtype=np.int8)
    z_arr = np.empty(horizon_slots + 1)

    aoi, queue, z = 1, K, 0.0
    rho = cfg.rho
    for t in range(horizon_slots):
        j = frame_offset(t, T)
        if dpp and j == 0:
            table_actions = frame_solver.solve(z).actions
        aoi_arr[t] = aoi
        queue_arr[t] = queue
        z_arr[t] = z

        if dpp:
            idx = ((aoi - 1) * kq + queue) * mem_count + (2 * m1 + m2)
            action = int(table_actions[j, idx])
        else:
            state = SystemState(aoi, queue, (m1, m2) if ge else None)
            action = int(baseline_decision(policy, state, j, cfg, act_rng))

        d1 = d2 = 0
        if ge:
            h1 = GOOD if chan_u[t, 0] < tp1[m1] else BAD
            h2 = GOOD if chan_u[t, 1] < tp2[m2] else BAD
            if action == Action.USER1:
                d1 = h1
            elif action == Action.USER2:
                d2 = h2
            m1, m2 = h1, h2
        else:
            if action == Action.USER1:
                d1 = 1 if chan_u[t] < model.p1 else 0
            elif action == Action.USER2:
                d2 = 1 if chan_u[t] < model.p2 else 0

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
    running = np.cumsum(aoi_arr, dtype=np.float64) / np.arange(1, horizon_slots + 1)
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
        avg_aoi_running=running,
        per_frame_deliveries=per_frame,
        aoi_histogram=hist,
        schedule_fractions=fractions,
        warnings=warnings,
    )
