"""Per-frame finite-horizon MDP: the transition and stage-cost arrays, and
the backward dynamic program that minimizes the debt-weighted frame objective

    Z(t_m) * sum_t (rho - d2(t))  +  V * sum_t A(t+1)

with the virtual-queue value Z(t_m) frozen for the whole frame. Slots are
indexed 0..T-1 within the frame; the terminal contribution is zero and the
frame-boundary queue refill never enters the DP state space.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import _kernels
from .channel import BAD, GOOD, ChannelModel, GilbertElliotChannel
from .model import Action, FrameConfig, InfeasibleActionError, SystemState


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2**-53: the relative error bound of n
    successive float roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3)."""
    nu = n * 2.0**-53
    return nu / (1 - nu)


class UnknownStateError(KeyError):
    """State or slot outside the policy table's domain."""


class StateSpace:
    """Bijection between SystemState and a dense index, and the only code
    that knows its layout: index = ((aoi - 1) * (K + 1) + queue) * M + mem,
    with M = 4 and mem = `mem_index(h1, h2)` for Gilbert-Elliot links, M = 1
    and mem = 0 (memory None) for i.i.d. links.

    Built once, as read-only arrays: `aoi`, `queue` and `mem`, the int32
    parts of every index in index order; and `successors`, the (S, 3, 4)
    slot law. successors[s, a, c] is the index after one slot from state s
    under action a with outcome code c = 2 * m1' + m2', the states (GOOD = 1)
    the links land in: a user-1 delivery resets the age to 1, which grows by
    one up to A_max otherwise, a user-2 delivery drains the queue by one
    down to 0, and the memory becomes (m1', m2'). The frame-end refill is not
    applied.
    """

    def __init__(self, cfg: FrameConfig, model: ChannelModel):
        self.a_max = cfg.A_max
        self.k = cfg.K
        self.has_memory = isinstance(model, GilbertElliotChannel)
        #: Channel memories, each at its mem_index.
        pairs = ((BAD, BAD), (BAD, GOOD), (GOOD, BAD), (GOOD, GOOD))
        self.memories = pairs if self.has_memory else (None,)
        self.mem_count = len(self.memories)
        self.n_states = cfg.A_max * (cfg.K + 1) * self.mem_count
        rest, self.mem = np.divmod(np.arange(self.n_states, dtype=np.int32), self.mem_count)
        self.aoi, self.queue = np.divmod(rest, self.k + 1)
        self.aoi += 1
        code = np.arange(4)
        landed1, landed2 = code >> 1 == GOOD, code & 1 == GOOD
        action = np.arange(3)[:, None]
        d1 = (action == Action.USER1) & landed1
        d2 = (action == Action.USER2) & landed2
        self.successors = self.index_parts(
            np.where(d1, 1, np.minimum(self.aoi + 1, self.a_max)[:, None, None]),
            np.maximum(self.queue[:, None, None] - d2, 0),
            self.mem_index(landed1, landed2))
        for table in (self.aoi, self.queue, self.mem, self.successors):
            table.setflags(write=False)

    def index_parts(self, aoi, queue, mem):
        """The index of (aoi, queue, mem), scalars or arrays."""
        return ((aoi - 1) * (self.k + 1) + queue) * self.mem_count + mem

    def mem_index(self, h1, h2):
        """The `mem` part of the index of links last in states (h1, h2),
        scalars or arrays: 2 * h1 + h2 for Gilbert-Elliot links (the outcome
        code of a slot that lands them there), 0 for i.i.d. links."""
        return 2 * h1 + h2 if self.has_memory else 0

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
        return SystemState(self.aoi.item(index), self.queue.item(index),
                           self.memories[self.mem.item(index)])

    def states(self) -> Iterator[SystemState]:
        for i in range(self.n_states):
            yield self.state(i)


class PolicyTable:
    """Backward-DP output for one frame: value-to-go and chosen action per
    (slot, state), plus the frozen debt and config they were solved for.

    `radius` is the certified reach of `actions`: a solve at any frozen debt
    z' >= 0 with |z' - frozen_z| <= radius writes the same actions bit for
    bit. It is -1 when only frozen_z itself is certified (see
    `FrameSolver.certified_radius`)."""

    def __init__(
        self,
        cfg: FrameConfig,
        space: StateSpace,
        frozen_z: float,
        values: np.ndarray,
        actions: np.ndarray,
        radius: float = -1.0,
    ):
        self.cfg = cfg
        self.space = space
        self.frozen_z = frozen_z
        self.values = values
        self.actions = actions
        self.radius = radius
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


def _branch_table(model: ChannelModel, space: StateSpace):
    """One slot's channel outcomes, the only part of the law that depends on
    the model.

    Returns (success, codes, probs): success[m, u] is P(user u+1's
    transmission succeeds | memory m); codes[b] is the outcome code of
    branch b (see `StateSpace.successors`); probs[m, a, b] is the
    probability of branch b under memory m and action a. Gilbert-Elliot
    branches are the joint next pair (m1', m2') in the order GG, GB, BG, BB,
    whatever the action. The i.i.d. branches are success and failure of the
    scheduled user, coded as both links Good and both Bad: the states keep no
    memory, so only the delivery matters (IDLE takes the first with
    probability 1). The kernel sums branches in this order, so it fixes the
    tables' last bits.
    """
    if space.has_memory:
        success = np.array(
            [[model.good_prob(1, m1), model.good_prob(2, m2)] for m1, m2 in space.memories]
        )
        lands = np.array([(GOOD, GOOD), (GOOD, BAD), (BAD, GOOD), (BAD, BAD)])
        per_user = np.where(lands == GOOD, success[:, None, :], 1.0 - success[:, None, :])
        probs = np.repeat((per_user[..., 0] * per_user[..., 1])[:, None, :], 3, axis=1)
    else:
        p1, p2 = model.p1, model.p2
        success = np.array([[p1, p2]])
        lands = np.array([(GOOD, GOOD), (BAD, BAD)])
        probs = np.array([[[p1, 1.0 - p1], [p2, 1.0 - p2], [1.0, 0.0]]])
    return success, lands @ (2, 1), probs


def _action_major(array: np.ndarray) -> np.ndarray:
    """`array`, indexed as before, stored with its axes reversed: an (S, 3)
    or (S, 3, B) view of a C-contiguous (3, S) or (B, 3, S) copy, the order
    in which the kernel reads it."""
    return np.ascontiguousarray(array.T).T


class FrameSolver:
    """Reusable solver for one (config, model) pair.

    Builds the kernel arrays once, from its `StateSpace`'s tables, and the
    kernel's work buffers (`_kernels.work_buffers`); each solve(frozen_z)
    then runs the backward recursion only, and allocates nothing but the
    tables it returns. For state s, action a and channel branch b:

    - feasible[s, a] is 1 when a is allowed (USER2 needs a queued packet);
    - cost_const[s, a] + z * cost_z[s, a] is the expected one-slot cost
      E[z*(rho - d2) + V*A'];
    - next_idx[s, a, b] and probs[s, a, b] are the successor index (from
      `StateSpace.successors`, at branch b's outcome code) and its
      probability. Zero-probability branches keep their slot, and every entry
      of an infeasible action is zero.

    The arrays are indexed [s, a] and [s, a, b] but stored action-major, as
    views of C-contiguous (3, S) and (B, 3, S) arrays: the order in which the
    kernel reads them, so it takes them without a copy. Since the work
    buffers are the solver's own, one solver must not solve on two threads
    at once; solvers of the same shape share nothing.

    solve() raises InfeasibleActionError on a table that holds a non-finite
    value or an action outside its state's feasible set, which only a broken
    kernel or an overflowing cost can produce. The solver keeps no tables:
    reuse across frames is `sim.FrameTables`' job, and the radius that
    solve() certifies is what lets it reuse a table at another debt.
    """

    def __init__(self, cfg: FrameConfig, model: ChannelModel):
        self.cfg = cfg
        self.model = model
        self.space = StateSpace(cfg, model)
        self._solve_kernel = _kernels.get_solver()
        self._build_arrays()

    def _build_arrays(self) -> None:
        cfg, space = self.cfg, self.space
        success, codes, probs = _branch_table(self.model, space)
        aged = np.minimum(space.aoi + 1, cfg.A_max)
        next_idx = space.successors.take(codes, axis=2)
        feasible = np.ones((space.n_states, 3), dtype=bool)
        feasible[:, Action.USER2] = space.queue > 0
        p1, p2 = success[space.mem].T
        rho = np.full(space.n_states, cfg.rho)
        cost_z = np.stack([rho, rho - p2, rho], axis=1)
        cost_v = np.stack([p1 + (1.0 - p1) * aged, aged, aged], axis=1)
        self.feasible = _action_major(feasible.astype(np.uint8))
        # Bit a of _allowed[s] is set when action a is feasible in state s.
        self._allowed = (feasible << np.arange(3)).sum(axis=1).astype(np.uint8)
        self.cost_const = _action_major(np.where(feasible, cfg.V * cost_v, 0.0))
        self.cost_z = _action_major(np.where(feasible, cost_z, 0.0))
        self.next_idx = _action_major(np.where(feasible[..., None], next_idx, 0).astype(np.intp))
        self.probs = _action_major(np.where(feasible[..., None], probs[space.mem], 0.0))
        self._work = _kernels.work_buffers(cfg.T, space.n_states, self.probs.shape[2])
        # Constants of the radius certificate (see certified_radius): c, the
        # largest |cost_z|; the largest |cost_const|; pi, the largest branch
        # sum of probs, raised by 2**-50 relative to cover the rounding of
        # that float sum; P = max(1, pi); G = sum of P**k for
        # k < T; and L_t, raised by 2**-40 relative for the rounding of its
        # recursion.
        self._c = float(np.abs(self.cost_z).max())
        self._cost_max = float(np.abs(self.cost_const).max())
        pi = float(self.probs.sum(axis=2).max()) * (1 + 2**-50)
        self._growth = max(1.0, pi)
        self._horizon_sum = sum(self._growth**k for k in range(cfg.T))
        self._rounding = 2 * _gamma(2 * self.probs.shape[2] + 4)
        lipschitz = np.empty(cfg.T)
        lip = 0.0
        for t in range(cfg.T - 1, -1, -1):
            lip = self._c + pi * lip
            lipschitz[t] = lip
        self._lipschitz = lipschitz * (1 + 2**-40)

    def certified_radius(self, margins: np.ndarray, frozen_z: float) -> float:
        """Certified radius of the actions solved at `frozen_z` whose kernel
        margins are `margins`, or -1 when none is certified.

        Let q_t(s, a; z) be the q that exact arithmetic gives on these float
        arrays, and V_t = min_a q_t. Then |q_t(z) - q_t(z')| <= L_t |z - z'|,
        with L_T = 0 and L_t = c + pi * L_{t+1}: the stage cost moves by at
        most c |dz| and the expectation by at most pi * L_{t+1} |dz|. The
        kernel's float q differs from q by at most delta at every debt z' in
        [0, z_hi]: each stage adds at most gamma_n (C + P * 2M) of rounding,
        with n = 2B + 4 roundings on any term's path (B products and sums,
        the two cost roundings and the final add, with one to spare),
        C = max|cost_const| + z_hi * c bounding |stage cost|, M = C * G
        bounding |V| (and 2M the float values), and earlier stages' errors grow by at most P per
        stage, so they sum to at most G times that. delta is twice this
        bound, and the spare half covers the rounding of the margin
        subtraction, of r and of |z - z'| (each at most a few u * m, with
        m <= 2(C + 2PM)).

        m_t is the smallest float gap at slot t between the chosen q and any
        other. For a' != a* at z' with |z - z'| <= r, the float q' at z'
        satisfy
            q'(a') - q'(a*) >= m_t - 2 delta - 2 L_t |z - z'| - 2 delta,
        which stays above 0 (strictly, by the spare half of delta) for
            r = min_t (m_t - 4 delta) / (2 L_t)   when every m_t > 4 delta.
        So the float argmin at z' is the same strict argmin, and tie
        priority never comes into play. Otherwise (a tie, or a NaN margin)
        r = -1. z_hi = frozen_z + r0 with r0 = min_t m_t / (2 L_t) >= r.
        When c = 0 the q do not depend on z at all, and r is +inf. A
        quotient that overflows is +inf: as r0 it makes delta +inf, so
        nothing is certified, and as r it stands for a radius beyond every
        float debt.
        """
        if not (margins > 0).all():
            return -1.0
        cost_bound = self._cost_max  # C
        with np.errstate(over="ignore"):
            if self._c:
                r0 = float(np.min(margins / (2 * self._lipschitz)))
                cost_bound += (frozen_z + r0) * self._c
            value_bound = cost_bound * self._horizon_sum  # M
            delta = (self._rounding * (cost_bound + 2 * self._growth * value_bound)
                     * self._horizon_sum)
            if not (margins > 4 * delta).all():
                return -1.0
            if not self._c:
                return math.inf
            return float(np.min((margins - 4 * delta) / (2 * self._lipschitz)))

    def solve(self, frozen_z: float) -> PolicyTable:
        """Solve the frame at `frozen_z`, into fresh read-only tables, with the
        radius the kernel's margins certify (see `certified_radius`)."""
        if not 0 <= frozen_z < math.inf:
            raise ValueError(f"frozen_z must be finite and >= 0, got {frozen_z}")
        T, S = self.cfg.T, self.space.n_states
        margins = np.empty(T)
        values = np.empty((T + 1, S))
        actions = np.empty((T, S), dtype=np.int8)
        self._solve_kernel(
            self.cost_const,
            self.cost_z,
            self.feasible,
            self.next_idx,
            self.probs,
            frozen_z,
            self._work,
            margins,
            values,
            actions,
        )
        if not np.isfinite(values).all():
            raise InfeasibleActionError(f"solve at z={frozen_z} wrote a non-finite value")
        # 1 << a, with a read as a byte, keeps its bit only for a in 0..7 (-1
        # reads as 255), so the one test also rejects codes outside 0..2.
        if not (np.left_shift(1, actions.view(np.uint8)) & self._allowed).all():
            raise InfeasibleActionError(f"solve at z={frozen_z} wrote an infeasible action")
        return PolicyTable(self.cfg, self.space, frozen_z, values, actions,
                           self.certified_radius(margins, frozen_z))

