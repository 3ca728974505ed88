"""Independent verification of the frame solver.

The oracle shares no transition or cost code with the solver: it enumerates
each slot's channel outcomes from the channel laws itself
(_outcome_branches) and charges each the realized cost z*(rho - d2) + V*A'.
evaluate_policy_exact pushes the state distribution forward through those
outcomes; brute_force_optimal is a deliberately naive backward induction
over dictionaries with its own tie-breaking, so a solver bug cannot confirm
itself; monte_carlo_value bridges the exact numbers and the stochastic
simulator, advancing all runs together through channel.step_channel with
AoI, queue and cost laws of its own, so it cross-checks _successor. Each
entry point rejects an initial state outside the model domain up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import BAD, GOOD, ChannelModel, IIDChannel, step_channel
from .model import (
    Action,
    FrameConfig,
    InfeasibleActionError,
    SystemState,
    feasible_actions,
    step_aoi,
    step_queue,
)
from .solver import PolicyTable, StateSpace

DecisionRule = Callable[[int, SystemState], Action]


class TooLargeError(ValueError):
    """Instance exceeds the naive enumeration guard."""


@dataclass
class EvaluationResult:
    expected_cost: float
    state_distribution_by_slot: list[dict[SystemState, float]]


def as_rule(policy: PolicyTable | Sequence[Action]) -> DecisionRule:
    """A checked (slot, state) -> Action rule from a PolicyTable or a per-slot
    action sequence; it raises InfeasibleActionError for an action the state
    does not allow."""
    if isinstance(policy, PolicyTable):
        pick = policy.action
    elif isinstance(policy, Sequence):
        actions = [Action(a) for a in policy]
        pick = lambda t, s: actions[t]
    else:
        raise TypeError(f"cannot interpret {policy!r} as a decision rule")

    def rule(t: int, state: SystemState) -> Action:
        action = pick(t, state)
        if action not in feasible_actions(state):
            raise InfeasibleActionError(f"action {action!r} infeasible in {state}")
        return action

    return rule


def evaluate_policy_exact(
    policy,
    initial_state: SystemState,
    frozen_z: float,
    cfg: FrameConfig,
    model: ChannelModel,
) -> EvaluationResult:
    """Exact expected frame cost of a policy, by forward recursion.

    Raises UnknownStateError for a state outside the model domain and
    InfeasibleActionError when the policy picks an action that a reachable
    state does not allow.
    """
    StateSpace(cfg, model).index(initial_state)
    rule = as_rule(policy)
    dist: dict[SystemState, float] = {initial_state: 1.0}
    by_slot = [dict(dist)]
    expected = 0.0
    for t in range(cfg.T):
        nxt: dict[SystemState, float] = {}
        for state, prob in dist.items():
            action = rule(t, state)
            for p, d1, d2, mem in _outcome_branches(state, action, model):
                after, cost = _successor(state, d1, d2, mem, frozen_z, cfg)
                expected += prob * p * cost
                nxt[after] = nxt.get(after, 0.0) + prob * p
        dist = nxt
        by_slot.append(dict(dist))
    return EvaluationResult(expected, by_slot)


def _outcome_branches(
    state: SystemState, action: Action, model: ChannelModel
) -> list[tuple[float, int, int, tuple[int, int] | None]]:
    """(prob, d1, d2, next channel memory) per channel outcome.

    Enumerated from the channel laws directly, on purpose not through the
    solver's kernel.
    """
    if isinstance(model, IIDChannel):
        if action == Action.USER1:
            branches = [(model.p1, 1, 0, None), (1.0 - model.p1, 0, 0, None)]
        elif action == Action.USER2:
            branches = [(model.p2, 0, 1, None), (1.0 - model.p2, 0, 0, None)]
        else:
            branches = [(1.0, 0, 0, None)]
    else:
        m1, m2 = state.channel_mem
        g1 = model.good_prob(1, m1)
        g2 = model.good_prob(2, m2)
        branches = []
        for h1 in (GOOD, BAD):
            for h2 in (GOOD, BAD):
                prob = (g1 if h1 else 1.0 - g1) * (g2 if h2 else 1.0 - g2)
                d1 = 1 if (action == Action.USER1 and h1 == GOOD) else 0
                d2 = 1 if (action == Action.USER2 and h2 == GOOD) else 0
                branches.append((prob, d1, d2, (h1, h2)))
    return [b for b in branches if b[0] > 0.0]


def _successor(
    state: SystemState,
    d1: int,
    d2: int,
    mem: tuple[int, int] | None,
    frozen_z: float,
    cfg: FrameConfig,
) -> tuple[SystemState, float]:
    """Mid-frame next state after deliveries (d1, d2), and its realized cost
    z*(rho - d2) + V*A'."""
    nxt = SystemState(
        step_aoi(state.aoi, d1, cfg.A_max),
        step_queue(state.queue, d2, False, cfg.K),
        mem,
    )
    return nxt, frozen_z * (cfg.rho - d2) + cfg.V * nxt.aoi


def brute_force_optimal(
    initial_state: SystemState,
    frozen_z: float,
    cfg: FrameConfig,
    model: ChannelModel,
) -> tuple[float, dict[tuple[int, SystemState], Action]]:
    """Exact optimum over deterministic Markov policies, naively.

    Dict-based backward induction: per branch the realized cost
    z*(rho - d2) + V*A' accumulates with the continuation value. Ties
    resolve in USER1, USER2, IDLE order, intentionally different from the
    solver's preference. Raises UnknownStateError for a state outside the
    model domain.
    """
    space = StateSpace(cfg, model)
    space.index(initial_state)
    if space.n_states * cfg.T > 100_000:
        raise TooLargeError(
            f"{space.n_states} states x {cfg.T} slots exceeds the enumeration guard"
        )
    states = list(space.states())
    value: dict[SystemState, float] = {s: 0.0 for s in states}
    rule: dict[tuple[int, SystemState], Action] = {}
    for t in range(cfg.T - 1, -1, -1):
        new_value: dict[SystemState, float] = {}
        for state in states:
            best = math.inf
            best_action = None
            for action in (Action.USER1, Action.USER2, Action.IDLE):
                if action not in feasible_actions(state):
                    continue
                total = 0.0
                for prob, d1, d2, mem in _outcome_branches(state, action, model):
                    nxt, realized = _successor(state, d1, d2, mem, frozen_z, cfg)
                    total += prob * (realized + value[nxt])
                if total < best:
                    best = total
                    best_action = action
            new_value[state] = best
            rule[(t, state)] = best_action
        value = new_value
    return value[initial_state], rule


def monte_carlo_value(
    policy,
    initial_state: SystemState,
    frozen_z: float,
    cfg: FrameConfig,
    model: ChannelModel,
    n_runs: int,
    seed: int,
) -> tuple[float, float]:
    """Sample mean and standard error of the realized frame cost.

    All runs advance together on the one stream default_rng(seed). Each slot
    asks the policy once per distinct state and applies the model laws as
    array forms of its own, not through _successor. Raises UnknownStateError
    for a state outside the model domain and InfeasibleActionError when the
    policy picks an action that a visited state does not allow.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    space = StateSpace(cfg, model)
    space.index(initial_state)
    rule = as_rule(policy)
    rng = np.random.default_rng(seed)
    aoi = np.full(n_runs, initial_state.aoi)
    queue = np.full(n_runs, initial_state.queue)
    mem = np.tile(initial_state.channel_mem or (BAD, BAD), (n_runs, 1))  # i.i.d.: unread
    costs = np.zeros(n_runs)
    for t in range(cfg.T):
        keys, inverse = np.unique(
            space.index_parts(aoi, queue, space.mem_index(*mem.T)), return_inverse=True
        )
        actions = np.array([rule(t, space.state(int(k))) for k in keys])[inverse]
        mem = step_channel(model, mem, rng)
        d1 = (actions == Action.USER1) & (mem[:, 0] == GOOD)
        d2 = (actions == Action.USER2) & (mem[:, 1] == GOOD)
        aoi = np.where(d1, 1, np.minimum(aoi + 1, cfg.A_max))
        queue = np.maximum(queue - d2, 0)
        costs += frozen_z * (cfg.rho - d2) + cfg.V * aoi
    mean = float(costs.mean())
    stderr = float(costs.std(ddof=1) / math.sqrt(n_runs)) if n_runs > 1 else 0.0
    return mean, stderr


def stationary_aoi_mean(model: ChannelModel, a_max: int, user: int = 1) -> float:
    """Exact long-run mean AoI when the given user transmits every slot.

    Solves the stationary law of the induced chain on (AoI, previous channel
    state); requires an ergodic channel chain. Raises ValueError for a user
    other than 1 or 2.
    """
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    if isinstance(model, IIDChannel):
        p = model.p1 if user == 1 else model.p2
        chain_states = [(a, None) for a in range(1, a_max + 1)]

        def branches(a, h):
            return [(p, 1, None), (1.0 - p, 0, None)]

    else:
        chain_states = [
            (a, h) for a in range(1, a_max + 1) for h in (BAD, GOOD)
        ]

        def branches(a, h):
            g = model.good_prob(user, h)
            return [(g, 1, GOOD), (1.0 - g, 0, BAD)]

    index = {s: i for i, s in enumerate(chain_states)}
    n = len(chain_states)
    P = np.zeros((n, n))
    for (a, h), i in index.items():
        for prob, success, h_next in branches(a, h):
            a_next = 1 if success else min(a + 1, a_max)
            P[i, index[(a_next, h_next)]] += prob
    # pi P = pi with sum(pi) = 1, as a least-squares system
    lhs = np.vstack([P.T - np.eye(n), np.ones(n)])
    rhs = np.concatenate([np.zeros(n), [1.0]])
    pi = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    ages = np.array([a for a, _ in chain_states], dtype=float)
    return float(pi @ ages)
