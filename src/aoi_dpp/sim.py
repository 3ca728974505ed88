"""Multi-frame closed-loop simulation.

The drift-plus-penalty controller solves the frame DP at every frame start
with the debt value frozen at Z(t_m), or at Z(t_m) rounded to a multiple of
a positive `z_cache_bucket`, executes the resulting policy slot by slot, and
updates age, queue and debt every slot. Every frame, the first included,
takes its table from one lookup in a `FrameTables`, which solves the frame-0
table (Z(0) = 0) when it is built. A frame whose frozen debt equals, as a
float, that of a recent frame or 0, or lies within the certified radius of a
recent frame's table (see `FrameSolver.certified_radius`), reuses that table
instead of solving again (see `_TABLE_MEMO_BYTES`). A reused table is the
one a fresh solve would write, bit for bit, so the trajectories are the same
whether tables are reused, and whether runs share their `FrameTables` or
not. The deterministic baselines run as fixed action tables through the same
lookup; only the uniform baseline decides slot by slot. Runs are
bit-reproducible from (config, model, policy, horizon, seed): channel
randomness, action randomness (uniform baseline) and the initial channel
draw come from separately spawned streams of one seed.

The slot loop is the hot path of every long run, so it runs at interpreter
speed on plain ints and floats, reading and writing arrays through memoryviews,
with the age, queue and debt laws of `model` and `lyapunov` inlined; those
functions stay its executable specification (see `run_simulation`).
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
from .model import Action, FrameConfig, SystemState, feasible_actions
from .solver import FrameSolver, StateSpace

#: Bytes of int8 action tables a `FrameTables` keeps for reuse, least
#: recently used first out: 40 tables of the reference scenario (T = 20,
#: 1280 states), with or without a `z_cache_bucket`. A frame whose (T, S)
#: table is larger than this (every frame, at 0) solves afresh, except at
#: Z = 0: the frame-0 table is kept outside the budget.
_TABLE_MEMO_BYTES = 1 << 20

#: How `FrameTables` found a frame's table, and the `Metrics.diagnostics`
#: key that counts it: solved afresh, reused at its own frozen debt, or
#: reused within another debt's certified radius.
FRESH, EXACT, CERTIFIED = 0, 1, 2
LOOKUP_KEYS = ("fresh_solves", "exact_hits", "certified_hits")


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
    final entry). Aggregates honor warmup_slots; trajectories never do. The
    controller's frame-0 table belongs to the (config, channel) pair, not to
    the run: it is `FrameTables.frame0` of the tables the run used.
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
    warnings: list[str] = field(default_factory=list)
    #: How the run found its frame tables, counted per frame under
    #: LOOKUP_KEYS (all 0 for baselines). The counts depend on what the
    #: run's `FrameTables` held before it started, so on how runs share one.
    diagnostics: dict[str, int] = field(default_factory=dict)

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


class FrameTables:
    """The controller's frame tables for one (config, channel) pair: the
    `FrameSolver`, the frame-0 table `frame0` (solved at Z = 0, values
    included, when the FrameTables is built) and a memo of recent action
    tables.

    The memo maps a frozen debt to its flattened int8 actions and their
    certified radius, least recently used first out, and holds at most
    `_TABLE_MEMO_BYTES` of tables. The frame-0 table outlives the memo: a
    lookup at Z = 0 always finds it. Runs of the same pair may share one
    FrameTables (the CLI shares it across the seeds of one V): every table it
    hands out is the one a fresh solve at the asked debt would write.
    """

    def __init__(self, cfg: FrameConfig, model: ChannelModel):
        self.solver = FrameSolver(cfg, model)
        self.frame0 = self.solver.solve(0.0)
        self._frame0_entry = (memoryview(self.frame0.actions.reshape(-1)), self.frame0.radius)
        self._memo: dict[float, tuple[memoryview, float]] = {}
        self._capacity = _TABLE_MEMO_BYTES // (cfg.T * self.solver.space.n_states)

    def actions(self, frozen_z: float) -> tuple[memoryview, int]:
        """(the flattened (T, S) action table for `frozen_z`, how it was found).

        The table stored at `frozen_z` itself, or at Z = 0 the frame-0 table,
        comes first; otherwise the least recently used table whose certified
        radius covers `frozen_z`; otherwise a fresh solve, which joins the
        memo.
        """
        memo = self._memo
        key, found = frozen_z, EXACT
        entry = memo.pop(key, None) or (self._frame0_entry if key == 0.0 else None)
        if entry is None:
            for key, (_, radius) in memo.items():
                if abs(frozen_z - key) <= radius:
                    entry, found = memo.pop(key), CERTIFIED
                    break
            else:
                solved = self.solver.solve(frozen_z)
                key, found = frozen_z, FRESH
                entry = (memoryview(solved.actions.reshape(-1)), solved.radius)
        self._keep(key, entry)
        return entry[0], found

    def _keep(self, key: float, entry: tuple[memoryview, float]) -> None:
        """Store `entry` as the most recently used, evicting the least."""
        if self._capacity:
            if len(self._memo) >= self._capacity:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = entry


def check_run_inputs(
    T: int,
    model: ChannelModel,
    horizon_slots: int,
    seed: int,
    warmup_slots: int,
    z_cache_bucket: float,
) -> None:
    """Raise ValueError("<config key> must ...") for run inputs that cannot run.

    `run_simulation` calls this before it draws or builds anything, and
    `config` checks every experiment with it, mapping the leading key name to
    a `ConfigError`.
    """
    # A run draws each Gilbert-Elliot chain's first state from its stationary law.
    for user in (1, 2):
        if isinstance(model, GilbertElliotChannel) and model.params(user) == (1, 0):
            raise ValueError(
                f"channel.p11_{user} must be < 1 if channel.p01_{user} = 0 "
                "(frozen chain, no stationary law)"
            )
    if horizon_slots < T:
        raise ValueError(f"horizon_slots must be >= T={T}, got {horizon_slots}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    # Frame-start Z grows by rho <= 1 per slot, so it never exceeds the
    # horizon, and Z / z_cache_bucket stays finite once this ratio is.
    bucket = z_cache_bucket
    if not (bucket == 0 or 0 < bucket < math.inf and math.isfinite(horizon_slots / bucket)):
        raise ValueError(
            "z_cache_bucket must be 0, or finite and > 0 with horizon_slots / z_cache_bucket "
            f"finite, got {bucket}"
        )
    # The delivery mean needs one full frame after warmup.
    last = (horizon_slots // T - 1) * T
    if not 0 <= warmup_slots <= last:
        raise ValueError(
            f"warmup_slots must be in [0, (horizon_slots // T - 1) * T] = [0, {last}], "
            f"got {warmup_slots}"
        )


def run_simulation(
    cfg: FrameConfig,
    model: ChannelModel,
    policy: PolicyKind,
    horizon_slots: int,
    seed: int,
    *,
    warmup_slots: int = 0,
    z_cache_bucket: float = 0.0,
    tables: FrameTables | None = None,
) -> Metrics:
    """Simulate `horizon_slots` slots and collect Metrics.

    Inputs that `check_run_inputs` rejects raise ValueError, naming the
    argument, before any compute; so do `tables` built for another config
    or channel. An infeasible delivery target does not abort the run; it is
    recorded in Metrics.warnings and the controller still does its best.

    A `z_cache_bucket` above 0 solves each frame at its start debt rounded
    to the nearest multiple of the bucket, so frames whose debts round alike
    share one table.

    The controller takes its tables from `tables`, or from a FrameTables of
    its own when given none; only Metrics.diagnostics depends on which.
    The loop runs frame by frame: at each frame start, the first included,
    the controller takes its table for the frame's frozen debt from them
    (solved, or reused at the same float debt or within a certified radius;
    frame 0 reuses the table solved when they were built), then an inner loop
    steps the frame's slots (the last frame may be partial). Per slot it
    reads the channel uniforms and the frame's (T, S) action table, and
    writes the six trajectory arrays, through memoryviews, so no slot
    touches a NumPy scalar. It inlines the model laws `model.step_aoi`,
    `model.step_queue` (the refill to K happens once, after a full frame's
    last slot) and `lyapunov.update_virtual_queue`;
    `tests/test_sim.py::test_loop_follows_model_laws` checks every slot
    against them.
    """
    check_run_inputs(cfg.T, model, horizon_slots, seed, warmup_slots, z_cache_bucket)
    if tables is not None and (tables.solver.cfg != cfg or tables.solver.model != model):
        raise ValueError("tables must be built for the run's cfg and model")
    T, K, A_max = cfg.T, cfg.K, cfg.A_max
    bucket = z_cache_bucket
    warnings: list[str] = []
    try:
        lyapunov.slackness_epsilon(model, T, cfg.q)
    except lyapunov.InfeasibleError as err:
        warnings.append(str(err))

    # One channel step: user i is Good this slot when u_i[t] < g_i[previous
    # state], g_i = (P(Good | Bad), P(Good | Good)); i.i.d. users share u.
    chan_ss, act_ss, init_ss = np.random.SeedSequence(seed).spawn(3)
    chan_rng = np.random.default_rng(chan_ss)
    act_rng = np.random.default_rng(act_ss)
    if isinstance(model, GilbertElliotChannel):
        u1, u2 = chan_rng.random((horizon_slots, 2)).T
        g1, g2 = (model.p01_1, model.p11_1), (model.p01_2, model.p11_2)
        m1, m2 = stationary_state(model, np.random.default_rng(init_ss))
    else:
        u1 = u2 = chan_rng.random(horizon_slots)
        g1, g2 = (model.p1, model.p1), (model.p2, model.p2)
        m1 = m2 = BAD
    u1, u2 = memoryview(u1), memoryview(u2)

    # Every policy but uniform_random reads a (T, S) action table, flattened:
    # the controller takes one per frame from `tables`, a deterministic
    # baseline's is built once. uniform_random draws from feasible_actions of
    # the state, indexed by queue > 0, with the same act_rng call as
    # baseline_decision.
    table = None
    if policy == PolicyKind.DRIFT_PLUS_PENALTY:
        if tables is None:
            tables = FrameTables(cfg, model)
        space = tables.solver.space
    else:
        tables = None
        space = StateSpace(cfg, model)
        if policy != PolicyKind.UNIFORM_RANDOM:
            row = np.array([baseline_decision(policy, state) for state in space.states()],
                           dtype=np.int8)
            table = memoryview(np.tile(row, T))
    options = tuple(
        tuple(map(int, feasible_actions(SystemState(1, queue)))) for queue in (0, 1)
    )
    draw = act_rng.integers
    index = space.index_parts
    w1, w2 = space.mem_weights
    S = space.n_states
    lookups = [0] * len(LOOKUP_KEYS)  # indexed by FRESH, EXACT, CERTIFIED

    aoi_arr = np.empty(horizon_slots, dtype=np.int32)
    queue_arr = np.empty(horizon_slots, dtype=np.int32)
    act_arr = np.empty(horizon_slots, dtype=np.int8)
    d1_arr = np.zeros(horizon_slots, dtype=np.int8)
    d2_arr = np.zeros(horizon_slots, dtype=np.int8)
    z_arr = np.empty(horizon_slots + 1)
    aoi_out, queue_out, act_out = memoryview(aoi_arr), memoryview(queue_arr), memoryview(act_arr)
    d1_out, d2_out, z_out = memoryview(d1_arr), memoryview(d2_arr), memoryview(z_arr)

    USER1, USER2 = int(Action.USER1), int(Action.USER2)
    aoi, queue, z = 1, K, 0.0
    rho = cfg.rho
    for start in range(0, horizon_slots, T):
        if tables is not None:
            table, found = tables.actions(round(z / bucket) * bucket if bucket else z)
            lookups[found] += 1
        stop = min(start + T, horizon_slots)
        offset = 0  # of slot t's row in the flattened table
        for t in range(start, stop):
            aoi_out[t] = aoi
            queue_out[t] = queue
            z_out[t] = z

            if table is None:
                choices = options[queue > 0]
                action = choices[draw(len(choices))]
            else:
                action = table[offset + index(aoi, queue, w1 * m1 + w2 * m2)]
            offset += S
            act_out[t] = action

            m1 = GOOD if u1[t] < g1[m1] else BAD
            m2 = GOOD if u2[t] < g2[m2] else BAD
            # step_aoi, then step_queue mid-frame and update_virtual_queue
            if action == USER1 and m1:
                d1_out[t] = 1
                aoi = 1
            elif aoi < A_max:
                aoi += 1
            if action == USER2 and m2:
                d2_out[t] = 1
                if queue:
                    queue -= 1
                z -= 1
                if z < 0.0:
                    z = 0.0
            z += rho
        if stop - start == T:  # step_queue at a full frame's last slot
            queue = K
    z_out[horizon_slots] = z

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
        warnings=warnings,
        diagnostics=dict(zip(LOOKUP_KEYS, lookups)),
    )
