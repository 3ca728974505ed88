"""The backward-DP frame kernel, `solve_backward`, in NumPy.

`BACKEND` names it and `get_solver` returns it; `FrameSolver` looks the
kernel up through `get_solver` at construction, so a test or a tracer can
substitute its own.

Reference semantics: the plain-Python `loop_kernel` in tests/test_kernels.py,
one state, action and branch at a time. This kernel produces the same tables
bit for bit.

Layout. The kernel reads its inputs action-major, in natural action order
(USER1, USER2, IDLE): the stage cost as one (3*S,) row, and each channel
branch b as one contiguous (3*S,) row of successor indices and one of
probabilities, stacked branch after branch. `FrameSolver` stores its arrays
that way once, at construction, as (S, 3) and (S, 3, B) views of C-contiguous
(3, S) and (B, 3, S) arrays, so a call only takes views of them; inputs in
any other layout are copied into it on every call. The scratch arrays come
in as `work`, built once by `work_buffers` and owned by the caller, so on
the solver's arrays a call allocates no array data. Each backward step
works on whole rows in them: one gather of the successor values of every
branch, one multiply by the probabilities, one reduction over the branch
rows, and the strict-less selections over the action rows, taken in
tie-priority order (USER2, USER1, IDLE). USER2, first in that order, holds every pick until another action
beats it; after the loop, the states whose best q stayed +inf, where no
action wins, are set to -1. Successor indices are in range by contract, so
the gather uses mode="wrap", which skips the buffered bounds check of
np.take's default mode.

Invariants that fix the tables' last bits:

- the branch sum is ((0.0 + p_0 v_0) + p_1 v_1) + ..., every branch in
  index order, zero-probability branches included (0.0 + -0.0 is 0.0, so
  skipping one could flip a sign);
- q = (cost_const + frozen_z * cost_z) + acc, with +inf as the cost of an
  infeasible action: every slot of the frame weighs alike;
- the first strictly smaller q wins, in priority order, starting from +inf
  and action -1, so ties keep the earlier action and a q that is NaN or
  +inf is never chosen. The kernel keeps the running best with np.fmin,
  which returns the same float: fmin skips a NaN, and q is never -0.0
  (acc starts from +0.0, and x + y is -0.0 only when both are), so no
  signed-zero tie can pick the other operand.

Margins invariant. margins[t] is the smallest gap, over all states, between
the second-smallest and the smallest q of slot t. Per state, the running
second-smallest is updated as min(second, max(q_a, best)) for each action
after the first in priority order, with np.minimum and np.maximum (exact,
NaN-propagating), and the chosen q (values[t]) is subtracted once the
backward pass is done. So a state with one feasible action has margin +inf
(inf - q), one with none NaN (inf - inf), and a NaN q anywhere makes
margins[t] NaN: np.min propagates it. `FrameSolver.solve` turns the
margins into the radius of frozen debts around frozen_z at which the
actions provably stay the same, and certifies nothing from a NaN.
"""

from __future__ import annotations

import numpy as np


def solve_backward(
    cost_const: np.ndarray,
    cost_z: np.ndarray,
    feasible: np.ndarray,
    next_idx: np.ndarray,
    probs: np.ndarray,
    frozen_z: float,
    work: tuple,
    margins: np.ndarray,
    values: np.ndarray,
    actions: np.ndarray,
) -> None:
    """Fill `margins` ((T,)), `values` ((T+1, S)) and `actions` ((T, S)) in
    place, using `work` (from `work_buffers(T, S, B)`) as scratch."""
    T = actions.shape[0]
    S = cost_const.shape[0]
    (cost_rows, blocked, gathered, q, wins, seconds, spare, unreached,
     inf_row, user1_row, idle_row) = work
    np.multiply(cost_z.T, frozen_z, out=cost_rows)
    np.add(cost_rows, cost_const.T, out=cost_rows)
    np.equal(feasible.T, 0, out=blocked)
    np.copyto(cost_rows, np.inf, where=blocked)
    cost = cost_rows.reshape(3 * S)
    # Row b of nxt/pr (as (B, 3*S)) is branch b, action-major: a view of the
    # solver's storage, a copy of any other layout.
    nxt = np.ascontiguousarray(next_idx.transpose(2, 1, 0)).reshape(-1)
    pr = np.ascontiguousarray(probs.transpose(2, 1, 0)).reshape(-1)
    branch_rows = gathered.reshape(probs.shape[2], 3 * S)
    q_user1, q_user2, q_idle = q.reshape(3, S)
    less, fmin, maximum, copyto = np.less, np.fmin, np.maximum, np.copyto
    values[T] = 0.0
    # USER2 is the first action in priority order, so it holds every pick
    # until an action beats it; the states no action wins are set to -1
    # after the loop.
    actions.fill(1)
    for t in range(T - 1, -1, -1):
        best, pick, second = values[t], actions[t], seconds[t]
        np.take(values[t + 1], nxt, out=gathered, mode="wrap")
        np.multiply(gathered, pr, out=gathered)
        # Reducing axis 0 of the C-contiguous (B, 3*S) block adds row after
        # row to 0.0, in branch order. Were the branch axis NumPy's inner
        # loop, 8 or more rows would be summed pairwise, in another order, so
        # the sum is exact only while B < 8 (the solver's B is 2 or 4).
        np.add.reduce(branch_rows, axis=0, out=q, initial=0.0)
        np.add(cost, q, out=q)
        fmin(q_user2, inf_row, out=best)
        maximum(q_user1, best, out=second)
        less(q_user1, best, out=wins)
        copyto(pick, user1_row, where=wins)
        fmin(best, q_user1, out=best)
        maximum(q_idle, best, out=spare)
        np.minimum(second, spare, out=second)
        less(q_idle, best, out=wins)
        copyto(pick, idle_row, where=wins)
        fmin(best, q_idle, out=best)
    np.equal(values[:T], np.inf, out=unreached)
    copyto(actions, -1, where=unreached)
    np.subtract(seconds, values[:T], out=seconds)
    np.min(seconds, axis=1, out=margins)


def work_buffers(T: int, S: int, n_branches: int) -> tuple:
    """The scratch `solve_backward` needs for T slots, S states and
    n_branches channel branches: allocated once by the kernel's caller and
    passed to every call. Nothing in it carries over from one call to the
    next, but a call overwrites all of it, so one set serves one call at a
    time."""
    return (
        np.empty((3, S)),  # cost rows, action-major
        np.empty((3, S), dtype=bool),  # infeasible actions
        np.empty(n_branches * 3 * S),  # branch products
        np.empty(3 * S),  # q
        np.empty(S, dtype=bool),  # a strict win
        np.empty((T, S)),  # second-smallest q
        np.empty(S),  # spare row
        np.empty((T, S), dtype=bool),  # states no action wins
        # Constant operands as rows: a ufunc takes a scalar operand more slowly.
        np.full(S, np.inf),
        np.zeros(S, dtype=np.int8),  # USER1
        np.full(S, 2, dtype=np.int8),  # IDLE
    )


BACKEND = "numpy"


def get_solver():
    """The frame kernel."""
    return solve_backward
