"""Multi-frame closed-loop simulation.

The drift-plus-penalty controller solves the frame DP at every frame start
with the debt value frozen at its exact float value Z(t_m), and executes the
resulting policy slot by slot. Every frame, the first included, takes its
table from one lookup in a `FrameTables`, which solves the frame-0 table
(Z(0) = 0) when it is built. A frame whose frozen debt equals, as a float,
that of a recent frame or 0, or lies within the certified radius of a recent
frame's table (see `FrameSolver.certified_radius`), reuses that table
instead of solving again (see `_TABLE_MEMO_BYTES`). A reused table is the one a fresh solve would
write, bit for bit, so the trajectories are the same whether tables are
reused, and whether runs share their `FrameTables` or not. Runs are
bit-reproducible from (config, model, policy, horizon, seed): channel
randomness, action randomness (uniform baseline) and the initial channel
draw come from separately spawned streams of one seed.

The channel does not depend on the actions, so both links' outcomes for
the whole horizon are computed in NumPy first, one int8 code a slot. A
policy then only picks the action at every slot. The baselines read
whether the queue holds a packet alone: deadline_first and aoi_greedy by
per-frame cumulative sums over the channel codes (`_baseline_schedule`),
uniform_random by counting the frame's packets left (`_uniform_schedule`).
Only the controller walks states, slot by slot, the hot path of every long
controller run: at interpreter speed on plain ints and floats, the loop
walks dense state indices with one action-table read and one
successor-list read per slot, and keeps a running debt (the law of
`lyapunov` inlined) only to key each frame's table lookup. The successor
list is `StateSpace.successors`, the table the frame solver builds its
transitions from, so the loop and the DP step one slot law. After the
actions, the same array passes serve every policy: the deliveries from the
actions and the channel codes, then age (`_ages`), queue (`_queues`) and
debt (`_debts`) from the deliveries. The laws of `model` and `lyapunov`
stay their executable specification (see `run_simulation`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import lyapunov
from .channel import BAD, ChannelModel, GilbertElliotChannel, stationary_state
from .model import Action, FrameConfig, SystemState, feasible_actions
from .solver import FrameSolver

#: Bytes of int8 action tables a `FrameTables` keeps for reuse, least
#: recently used first out: 40 tables of the reference scenario (T = 20,
#: 1280 states). A frame whose (T, S) table is larger than this (every
#: frame, at 0) solves afresh, except at Z = 0: the frame-0 table is kept
#: outside the budget.
_TABLE_MEMO_BYTES = 1 << 20

#: Slots whose ages `run_simulation` counts at a time into the age
#: histogram: `np.bincount` copies its input to intp, 8 bytes a slot, so a
#: whole horizon at once would set the peak memory of a baseline run.
_HIST_CHUNK = 1 << 14

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


def _baseline_actions(policy: PolicyKind) -> tuple[int, int]:
    """(the action with the queue empty, the action with a packet queued) of
    the deterministic baseline `policy` (deadline_first or aoi_greedy), as
    `baseline_decision` gives them: neither baseline reads more of the state
    than whether its queue holds a packet."""
    empty, queued = (int(baseline_decision(policy, SystemState(1, queue))) for queue in (0, 1))
    return empty, queued


def _baseline_schedule(
    policy: PolicyKind, cfg: FrameConfig, code_arr: np.ndarray,
) -> np.ndarray:
    """The action at every slot of a deterministic baseline's run over the
    channel codes `code_arr`, by array operations instead of a slot loop.

    The action is the queued one where the queue holds a packet and the
    empty one elsewhere, and the queue drains only while the baseline serves
    user 2 with a packet queued. So when the queued action is USER2, the
    queue holds a packet at slot t exactly when K minus the user-2 landings
    at earlier slots of t's frame (`_queues` of the landings) is above 0;
    otherwise it holds K throughout.
    """
    empty, queued = _baseline_actions(policy)
    if queued == Action.USER2:
        holds = _queues(code_arr.view(np.uint8) & 1, cfg.T, cfg.K) > 0
    else:
        holds = cfg.K > 0
    act_arr = np.full(len(code_arr), empty, dtype=np.int8)
    np.copyto(act_arr, queued, where=holds)
    return act_arr


def _queues(d2_arr: np.ndarray, T: int, K: int) -> np.ndarray:
    """Queue at every slot (int32) from the user-2 deliveries `d2_arr`, the
    law `model.step_queue` applies slot by slot: each frame starts at K, and
    slot t sees K minus the deliveries at earlier slots of its frame. A
    delivery needs a queued packet, so the floor at 0 never applies. The
    deliveries are counted by a cumulative sum in each frame, in the
    smallest unsigned type holding T.
    """
    horizon_slots = len(d2_arr)
    counts = np.empty(horizon_slots, dtype=np.min_scalar_type(T))
    full = horizon_slots - horizon_slots % T
    np.cumsum(d2_arr[:full].reshape(-1, T), axis=1, dtype=counts.dtype,
              out=counts[:full].reshape(-1, T))
    np.cumsum(d2_arr[full:], dtype=counts.dtype, out=counts[full:])
    queue_arr = np.empty(horizon_slots, dtype=np.int32)
    # Slot t + 1 sees the deliveries up to slot t, except at a frame start.
    np.subtract(K, counts[:-1], out=queue_arr[1:], dtype=np.int32)
    queue_arr[::T] = K
    return queue_arr


def _ages(d1_arr: np.ndarray, a_max: int) -> np.ndarray:
    """Age at every slot (int32) from the user-1 deliveries `d1_arr`, the
    law `model.step_aoi` applies slot by slot: t - r capped at `a_max`, where
    r is the last slot before t with a delivery, or -1 (the run starts at
    age 1). The slot indices are int32 up to 2**31 - 1 slots."""
    horizon_slots = len(d1_arr)
    age = np.arange(1, horizon_slots + 1, dtype=np.int32 if horizon_slots < 2**31 else np.int64)
    # restart[t]: r + 1 for the last slot r <= t with a delivery, 0 before any
    restart = age * d1_arr
    np.maximum.accumulate(restart, out=restart)
    age[1:] -= restart[:-1]
    del restart
    np.minimum(age, a_max, out=age)
    return age.astype(np.int32, copy=False)


def _debts(d2: memoryview, rho: float) -> Iterator[float]:
    """Z at every slot and after the last, from the user-2 deliveries `d2`:
    `lyapunov.update_virtual_queue` inlined, the same float operations in
    slot order as the slot loop's running debt, so its frame-start entries
    are the debts the loop keyed its table lookups with, bit for bit."""
    z = 0.0
    yield z
    for delivered in d2:
        if delivered:
            z -= 1
            if z < 0.0:
                z = 0.0
        z += rho
        yield z


def _schedule_counts(act_arr: np.ndarray, T: int, warmup_slots: int) -> np.ndarray:
    """counts[j, a]: the slots t >= warmup_slots with t % T == j and action
    a, (T, 3) int64. Each action is counted over the full frames from the
    one holding warmup_slots on as column sums of rows of T, so no slot
    index is materialized; then the partial frame at the end is added and
    the slots of warmup_slots' frame before it are taken off, one by one."""
    start = warmup_slots - warmup_slots % T
    full = len(act_arr) - len(act_arr) % T
    frames = act_arr[start:full].reshape(-1, T)
    counts = np.stack([(frames == action).sum(axis=0) for action in range(3)], axis=1)
    np.add.at(counts, (np.arange(len(act_arr) - full), act_arr[full:]), 1)
    np.subtract.at(counts, (np.arange(warmup_slots - start), act_arr[start:warmup_slots]), 1)
    return counts


def _landings(u: np.ndarray, p01: float, p11: float, first: int) -> np.ndarray:
    """Whether a Gilbert-Elliot link lands Good at each slot (bool), from
    its per-slot uniforms `u` and its state `first` before slot 0.

    Slot t lands Good when u[t] < (p11 if the link was Good, else p01), the
    comparison `channel.step_channel` makes. A draw below both probabilities
    lands Good and one at or above both lands Bad, whatever the link was;
    one in between keeps the state when p01 <= p11 and flips it when
    p01 > p11. So the state xor the parity of the flips so far is the one
    the last deciding draw left: a running maximum of 2 (t + 1) + that value
    at the deciding slots, and `first` at the others, carries it forward.
    That key takes the smallest unsigned type holding 2 len(u) + 1: 4 bytes
    a slot up to 2**31 - 1 slots, and no other temporary takes more than 1.
    """
    lo, hi = min(p01, p11), max(p01, p11)
    good = u < lo
    between = u < hi
    between ^= good
    flips = np.logical_xor.accumulate(between) if p01 > p11 else False
    key = np.arange(2, 2 * len(u) + 2, 2, dtype=np.min_scalar_type(2 * len(u) + 1))
    key += good ^ flips
    key[between] = first
    np.maximum.accumulate(key, out=key)
    key &= 1
    landed = key.astype(bool)
    landed ^= flips
    return landed


def _channel_codes(
    model: ChannelModel, horizon_slots: int, chan_rng: np.random.Generator,
    init_rng: np.random.Generator,
) -> tuple[tuple[int, int], np.ndarray]:
    """(the links' states before slot 0, the int8 outcome code of every
    slot, as `StateSpace.successors` reads it).

    The channel does not depend on the actions, so the whole horizon is
    drawn here, before the loop: each slot's uniforms are one row of a
    (horizon, 2) draw for Gilbert-Elliot links, whose first states come from
    their stationary laws, and one shared draw for i.i.d. links, which start
    Bad. The uniforms are freed on return.
    """
    if isinstance(model, GilbertElliotChannel):
        u = chan_rng.random((horizon_slots, 2))
        first = stationary_state(model, init_rng)
        code = _landings(u[:, 0], model.p01_1, model.p11_1, first[0]).view(np.int8)
        code <<= 1
        code |= _landings(u[:, 1], model.p01_2, model.p11_2, first[1])
        return first, code
    u = chan_rng.random(horizon_slots)
    code = (u < model.p1).view(np.int8)
    code <<= 1
    code |= u < model.p2
    return (BAD, BAD), code


class FrameTables:
    """The controller's frame tables for one (config, channel) pair: the
    `FrameSolver`, the frame-0 table `frame0` (solved at Z = 0, values
    included, when the FrameTables is built), a memo of recent action
    tables, and the slot loop's lists over the solver's state space, sharing
    one int object per state:

    - successor[(3 * s + a) * 4 + code]: `StateSpace.successors[s, a, code]`
      flattened, the state after one slot in state s under action a when
      the slot's channel outcome code is `code`;
    - refill[s]: s with its queue refilled to K, after a full frame.

    The memo maps a frame's exact start debt, the float the slot loop keeps,
    to its flattened int8 actions and their certified radius, least recently
    used first out, and holds at most `_TABLE_MEMO_BYTES` of tables. The
    frame-0 table outlives the memo: a lookup at Z = 0 always finds it. Runs
    of the same pair may share one FrameTables (the CLI shares it across the
    seeds of one V): every table it hands out is the one a fresh solve at
    the asked debt would write.
    """

    def __init__(self, cfg: FrameConfig, model: ChannelModel):
        self.solver = FrameSolver(cfg, model)
        space = self.solver.space
        states = np.arange(space.n_states).astype(object)
        self.successor = states[space.successors.ravel()].tolist()
        self.refill = states[space.index_parts(space.aoi, space.k, space.mem)].tolist()
        self.frame0 = self.solver.solve(0.0)
        self._frame0_entry = (memoryview(self.frame0.actions.reshape(-1)), self.frame0.radius)
        self._memo: dict[float, tuple[memoryview, float]] = {}
        self._capacity = _TABLE_MEMO_BYTES // (cfg.T * space.n_states)

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


def _uniform_schedule(cfg: FrameConfig, code_arr: np.ndarray, draw) -> np.ndarray:
    """The action at every slot of a uniform_random run over the channel
    codes `code_arr`, each drawn by `draw` (the run's action stream) as
    `baseline_decision` draws it: uniformly from `feasible_actions`, which
    read whether the queue holds a packet alone. So the loop keeps only the
    frame's packet count `left`: K at each frame start, one less at each
    user-2 landing while user 2 is served.
    """
    T, K = cfg.T, cfg.K
    horizon_slots = len(code_arr)
    code = memoryview(code_arr)
    empty, queued = (tuple(map(int, feasible_actions(SystemState(1, q)))) for q in (0, 1))
    act_arr = np.empty(horizon_slots, dtype=np.int8)
    act_out = memoryview(act_arr)
    USER2 = int(Action.USER2)
    for start in range(0, horizon_slots, T):
        left = K
        for t in range(start, min(start + T, horizon_slots)):
            choices = queued if left else empty
            action = choices[draw(len(choices))]
            act_out[t] = action
            if action == USER2 and code[t] & 1:
                left -= 1
    return act_arr


def _slot_loop(
    cfg: FrameConfig,
    code_arr: np.ndarray,
    first: tuple[int, int],
    tables: FrameTables,
) -> tuple[np.ndarray, list[int]]:
    """(actions, table lookups by FRESH, EXACT and CERTIFIED) of a
    controller run over the channel codes `code_arr`, the links in states
    `first` before slot 0, stepped slot by slot (see `run_simulation`). The
    loop keeps a running debt only to key each frame's table lookup; the
    run's debt trajectory is `_debts`, the same law in the same float
    operations.
    """
    T = cfg.T
    horizon_slots = len(code_arr)
    code = memoryview(code_arr)
    space, successor, refill = tables.solver.space, tables.successor, tables.refill
    S = space.n_states
    lookups = [0] * len(LOOKUP_KEYS)  # indexed by FRESH, EXACT, CERTIFIED

    act_arr = np.empty(horizon_slots, dtype=np.int8)
    act_out = memoryview(act_arr)

    USER2 = int(Action.USER2)
    s, z = space.index_parts(1, cfg.K, space.mem_index(*first)), 0.0
    rho = cfg.rho
    for start in range(0, horizon_slots, T):
        # The frame's (T, S) action table, flattened.
        table, found = tables.actions(z)
        lookups[found] += 1
        stop = min(start + T, horizon_slots)
        offset = 0  # of slot t's row in the flattened table
        for t in range(start, stop):
            action = table[offset + s]
            offset += S
            act_out[t] = action
            outcome = code[t]
            if action == USER2 and outcome & 1:  # update_virtual_queue, d2 = 1
                z -= 1
                if z < 0.0:
                    z = 0.0
            z += rho
            s = successor[(3 * s + action) * 4 + outcome]
        if stop - start == T:  # step_queue at a full frame's last slot
            s = refill[s]
    return act_arr, lookups


def check_run_inputs(
    T: int,
    model: ChannelModel,
    horizon_slots: int,
    seed: int,
    warmup_slots: int,
) -> None:
    """Raise ValueError("<config key> must ...") for run inputs that cannot run:
    a frozen Gilbert-Elliot chain, a horizon below T, a negative seed, and a
    warmup that leaves no full frame.

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
    tables: FrameTables | None = None,
) -> Metrics:
    """Simulate `horizon_slots` slots and collect Metrics.

    Inputs that `check_run_inputs` rejects raise ValueError, naming the
    argument, before any compute; so do `tables` built for another config
    or channel. An infeasible delivery target does not abort the run; it is
    recorded in Metrics.warnings and the controller still does its best.

    The controller takes its tables from `tables`, or from a FrameTables of
    its own when given none; only Metrics.diagnostics depends on which.
    Each link's Good/Bad outcome at every slot is computed first (see
    `_channel_codes`), and the draws are freed before the trajectory arrays
    are allocated.

    Each policy first picks its action at every slot. deadline_first and
    aoi_greedy take no slot loop: their action is the queued one where the
    queue holds a packet and the empty one elsewhere (`_baseline_actions`),
    found by per-frame cumulative sums of the user-2 landings
    (`_baseline_schedule`). uniform_random draws each action from the three
    or, once the frame's packets are gone, the two that an empty queue
    allows (`_uniform_schedule`). The controller runs the slot loop
    (`_slot_loop`) frame by frame: at each frame start, the first included,
    it takes its table for the frame's frozen debt from its tables (solved,
    or reused at the same float debt or within a certified radius; frame 0
    reuses the table solved when they were built), then an inner loop steps
    the frame's slots (the last frame may be partial). Per slot it reads the
    action at the state index s from the frame's (T, S) action table,
    applies `lyapunov.update_virtual_queue` inline to the running debt that
    keys the next frame's lookup, and moves s to its successor under the
    action and the slot's channel code; after a full frame's last slot the
    queue refills to K. The successor list is `StateSpace.successors`
    flattened, which fixes the code format and encodes `model.step_aoi` and
    `model.step_queue` mid-frame, and the refill list the frame-end refill;
    both are built once per FrameTables. The actions are written through a
    memoryview, so no slot touches a NumPy scalar.

    Then one block derives the rest for every policy alike: deliveries from
    the actions and the channel codes, age by a running maximum (`_ages`),
    queue by per-frame cumulative sums (`_queues`), and debt by one pass in
    slot order with the float operations of `lyapunov.update_virtual_queue`
    (`_debts`). `tests/test_sim.py::test_loop_follows_model_laws` checks every slot
    against the model laws, and `test_run_matches_reference_loop` checks the
    trajectories against a plain per-slot loop.
    """
    check_run_inputs(cfg.T, model, horizon_slots, seed, warmup_slots)
    if tables is not None and (tables.solver.cfg != cfg or tables.solver.model != model):
        raise ValueError("tables must be built for the run's cfg and model")
    T, A_max = cfg.T, cfg.A_max
    warnings: list[str] = []
    try:
        lyapunov.slackness_epsilon(model, T, cfg.q)
    except lyapunov.InfeasibleError as err:
        warnings.append(str(err))

    # The run's three streams: channel draws, uniform_random's action
    # draws, and the Gilbert-Elliot links' first states.
    chan_ss, act_ss, init_ss = np.random.SeedSequence(seed).spawn(3)
    (m1, m2), code_arr = _channel_codes(model, horizon_slots, np.random.default_rng(chan_ss),
                                        np.random.default_rng(init_ss))
    lookups = [0] * len(LOOKUP_KEYS)  # the baselines look up no tables
    if policy == PolicyKind.DRIFT_PLUS_PENALTY:
        act_arr, lookups = _slot_loop(cfg, code_arr, (m1, m2), tables or FrameTables(cfg, model))
    elif policy == PolicyKind.UNIFORM_RANDOM:
        act_arr = _uniform_schedule(cfg, code_arr, np.random.default_rng(act_ss).integers)
    else:
        act_arr = _baseline_schedule(policy, cfg, code_arr)

    # The deliveries: the scheduled user's link landed Good.
    d1_arr = code_arr >> 1
    d1_arr &= act_arr == Action.USER1
    d2_arr = code_arr & 1
    d2_arr &= act_arr == Action.USER2
    del code_arr
    aoi_arr = _ages(d1_arr, A_max)
    queue_arr = _queues(d2_arr, T, cfg.K)
    z_arr = np.fromiter(_debts(memoryview(d2_arr), cfg.rho), float, count=horizon_slots + 1)

    frames = horizon_slots // T
    per_frame = d2_arr[: frames * T].reshape(frames, T).sum(axis=1).astype(np.int32)
    hist = np.zeros(A_max + 1, dtype=np.intp)
    for start in range(warmup_slots, horizon_slots, _HIST_CHUNK):
        hist += np.bincount(aoi_arr[start:start + _HIST_CHUNK], minlength=A_max + 1)
    hist = hist[1:]
    counts = _schedule_counts(act_arr, T, warmup_slots)
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
