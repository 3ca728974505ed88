"""Per-frame finite-horizon MDP: transition kernel, stage costs, and the
backward dynamic program that minimizes the debt-weighted frame objective

    Z(t_m) * sum_t (rho - d2(t))  +  V * sum_t A(t+1)

with the virtual-queue value Z(t_m) frozen for the whole frame. Slots are
indexed 0..T-1 within the frame; the terminal contribution is zero and the
frame-boundary queue refill never enters the DP state space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .channel import BAD, GOOD, ChannelModel, GilbertElliotChannel, IIDChannel, success_prob
from .model import Action, FrameConfig, SystemState, feasible_actions, step_aoi, step_queue

class InfeasibleActionError(ValueError):
    """Action not allowed in this state (user 2 with an empty queue)."""


class UnknownStateError(KeyError):
    """State or slot outside the policy table's domain."""


class StateSpace:
    """Bijection between SystemState and a dense index.

    Layout: index = ((aoi - 1) * (K + 1) + queue) * M + mem_index, with
    M = 4 memory pairs (h1, h2) and mem_index = 2*h1 + h2 for the
    Gilbert-Elliot model, and M = 1 (memory None, mem_index 0) otherwise.
    """

    def __init__(self, cfg: FrameConfig, model: ChannelModel):
        self.a_max = cfg.A_max
        self.k = cfg.K
        self.has_memory = isinstance(model, GilbertElliotChannel)
        #: Channel memories in mem_index order; mem_index = w1*h1 + w2*h2.
        pairs = ((BAD, BAD), (BAD, GOOD), (GOOD, BAD), (GOOD, GOOD))
        self.memories = pairs if self.has_memory else (None,)
        self.mem_weights = (2, 1) if self.has_memory else (0, 0)
        self.mem_count = len(self.memories)
        self.n_states = cfg.A_max * (cfg.K + 1) * self.mem_count

    def index_parts(self, aoi: int, queue: int, mem_index: int) -> int:
        return ((aoi - 1) * (self.k + 1) + queue) * self.mem_count + mem_index

    def index(self, state: SystemState) -> int:
        if not 1 <= state.aoi <= self.a_max or not 0 <= state.queue <= self.k:
            raise UnknownStateError(f"state {state} outside the model domain")
        if state.channel_mem not in self.memories:
            raise UnknownStateError(f"state {state} has no valid channel memory for this model")
        mem_index = self.memories.index(state.channel_mem)
        return self.index_parts(state.aoi, state.queue, mem_index)

    def state(self, index: int) -> SystemState:
        if not 0 <= index < self.n_states:
            raise UnknownStateError(f"index {index} out of range")
        index, mem_index = divmod(index, self.mem_count)
        aoi_part, queue = divmod(index, self.k + 1)
        return SystemState(aoi_part + 1, queue, self.memories[mem_index])

    def states(self) -> Iterator[SystemState]:
        for i in range(self.n_states):
            yield self.state(i)


@dataclass(frozen=True)
class TransitionEntry:
    state: SystemState
    probability: float


def build_kernel(
    state: SystemState, action: Action, model: ChannelModel, cfg: FrameConfig
) -> list[TransitionEntry]:
    """One-step transition law for a (state, action) pair, mid-frame semantics.

    Gilbert-Elliot branches enumerate the joint next channel pair; the
    scheduled user's delivery coincides with its chain landing Good, and the
    unscheduled user's chain advances independently. Zero-probability branches
    are dropped.
    """
    if action not in feasible_actions(state):
        raise InfeasibleActionError(f"action {action!r} infeasible in {state}")
    aged = min(state.aoi + 1, cfg.A_max)
    entries: list[TransitionEntry] = []
    if isinstance(model, IIDChannel):
        if action == Action.USER1:
            p = model.p1
            entries = [
                TransitionEntry(SystemState(1, state.queue), p),
                TransitionEntry(SystemState(aged, state.queue), 1.0 - p),
            ]
        elif action == Action.USER2:
            p = model.p2
            entries = [
                TransitionEntry(SystemState(aged, state.queue - 1), p),
                TransitionEntry(SystemState(aged, state.queue), 1.0 - p),
            ]
        else:
            entries = [TransitionEntry(SystemState(aged, state.queue), 1.0)]
    else:
        m1, m2 = state.channel_mem
        g1 = model.good_prob(1, m1)
        g2 = model.good_prob(2, m2)
        for h1 in (GOOD, BAD):
            for h2 in (GOOD, BAD):
                prob = (g1 if h1 == GOOD else 1.0 - g1) * (
                    g2 if h2 == GOOD else 1.0 - g2
                )
                d1 = 1 if (action == Action.USER1 and h1 == GOOD) else 0
                d2 = 1 if (action == Action.USER2 and h2 == GOOD) else 0
                nxt = SystemState(
                    step_aoi(state.aoi, d1, cfg.A_max),
                    step_queue(state.queue, d2, False, cfg.K),
                    (h1, h2),
                )
                entries.append(TransitionEntry(nxt, prob))
    return [e for e in entries if e.probability > 0.0]


def _cost_coefficients(
    state: SystemState, action: Action, cfg: FrameConfig, model: ChannelModel
) -> tuple[float, float]:
    """(debt coefficient, freshness coefficient): cost = z*zc + V*vc.

    Expected next-slot contribution of z*(rho - d2) + V*A'. Idle is the
    zero-success limit of the user-2 branch: debt accrues, the age just grows.
    """
    aged = min(state.aoi + 1, cfg.A_max)
    rho = cfg.rho
    if action == Action.USER1:
        p = success_prob(model, 1, state.channel_mem)
        return rho, p * 1.0 + (1.0 - p) * aged
    if action == Action.USER2:
        p = success_prob(model, 2, state.channel_mem)
        return rho - p, float(aged)
    return rho, float(aged)


def stage_cost(
    state: SystemState,
    action: Action,
    frozen_z: float,
    cfg: FrameConfig,
    model: ChannelModel,
) -> float:
    """Expected one-slot cost under the frozen frame debt."""
    if action not in feasible_actions(state):
        raise InfeasibleActionError(f"action {action!r} infeasible in {state}")
    zc, vc = _cost_coefficients(state, action, cfg, model)
    return frozen_z * zc + cfg.V * vc


class PolicyTable:
    """Backward-DP output for one frame: value-to-go and chosen action per
    (slot, state), plus the frozen debt and config they were solved for."""

    def __init__(
        self,
        cfg: FrameConfig,
        space: StateSpace,
        frozen_z: float,
        values: np.ndarray,
        actions: np.ndarray,
    ):
        self.cfg = cfg
        self.space = space
        self.frozen_z = frozen_z
        self.values = values
        self.actions = actions
        values.setflags(write=False)
        actions.setflags(write=False)

    def value(self, slot: int, state: SystemState) -> float:
        if not 0 <= slot <= self.cfg.T:
            raise UnknownStateError(f"slot {slot} outside 0..{self.cfg.T}")
        return float(self.values[slot, self.space.index(state)])

    def action(self, slot: int, state: SystemState) -> Action:
        if not 0 <= slot < self.cfg.T:
            raise UnknownStateError(f"slot {slot} outside 0..{self.cfg.T - 1}")
        return Action(self.actions[slot, self.space.index(state)])


class FrameSolver:
    """Reusable solver for one (config, model) pair.

    Builds the dense kernel arrays once; each solve(frozen_z) then runs the
    backward recursion only. An optional debt-quantization bucket caches
    policies by rounded z (off by default: every frame re-solves exactly).
    """

    def __init__(
        self,
        cfg: FrameConfig,
        model: ChannelModel,
        z_bucket: float = 0.0,
    ):
        self.cfg = cfg
        self.model = model
        self.space = StateSpace(cfg, model)
        self._solve_kernel = _kernels.get_solver()
        if not 0 <= z_bucket < math.inf:
            raise ValueError(f"z_bucket must be finite and >= 0, got {z_bucket}")
        self.z_bucket = z_bucket
        self._cache: dict[float, PolicyTable] = {}
        self._build_arrays()

    def _build_arrays(self) -> None:
        space, cfg, model = self.space, self.cfg, self.model
        S = space.n_states
        n_branches = 4 if space.has_memory else 2
        self.cost_const = np.zeros((S, 3))
        self.cost_z = np.zeros((S, 3))
        self.feasible = np.zeros((S, 3), dtype=np.uint8)
        self.next_idx = np.zeros((S, 3, n_branches), dtype=np.intp)
        self.probs = np.zeros((S, 3, n_branches))
        for i in range(S):
            state = space.state(i)
            for action in feasible_actions(state):
                a = int(action)
                self.feasible[i, a] = 1
                zc, vc = _cost_coefficients(state, action, cfg, model)
                self.cost_z[i, a] = zc
                self.cost_const[i, a] = cfg.V * vc
                for b, entry in enumerate(build_kernel(state, action, model, cfg)):
                    self.next_idx[i, a, b] = space.index(entry.state)
                    self.probs[i, a, b] = entry.probability

    def solve(self, frozen_z: float) -> PolicyTable:
        if not 0 <= frozen_z < math.inf:
            raise ValueError(f"frozen_z must be finite and >= 0, got {frozen_z}")
        key = frozen_z
        if self.z_bucket > 0:
            key = round(frozen_z / self.z_bucket) * self.z_bucket
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        T, S = self.cfg.T, self.space.n_states
        values = np.empty((T + 1, S))
        actions = np.empty((T, S), dtype=np.int8)
        self._solve_kernel(
            self.cost_const,
            self.cost_z,
            self.feasible,
            self.next_idx,
            self.probs,
            key,
            self.cfg.discount,
            values,
            actions,
        )
        table = PolicyTable(self.cfg, self.space, key, values, actions)
        if self.z_bucket > 0:
            self._cache[key] = table
        return table


def backward_solve(cfg: FrameConfig, frozen_z: float, model: ChannelModel) -> PolicyTable:
    """Solve one frame exactly for the given frozen debt value."""
    return FrameSolver(cfg, model).solve(frozen_z)
