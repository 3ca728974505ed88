"""The backward-DP inner loop, in NumPy.

Reference semantics: the plain-Python `loop_kernel` in tests/test_kernels.py,
one state, action and branch at a time. This kernel produces the same tables
bit for bit.

Layout. Once per call the (S, 3) and (S, 3, B) inputs are laid out
action-major in natural action order (USER1, USER2, IDLE): the stage cost
becomes one (3*S,) row, and each channel branch b one contiguous (3*S,) row
of successor indices and one of probabilities, stacked branch after branch.
Each backward step then works on whole rows in preallocated buffers, with
no allocation: one gather of the successor values of every branch, one
multiply by the probabilities, one reduction over the branch rows, and
three strict-less selections over the action rows, taken in tie-priority
order (USER2, USER1, IDLE). Successor indices are in range by contract,
so the gather uses mode="wrap", which skips the buffered bounds check of
np.take's default mode.

Invariants that fix the tables' last bits:

- the branch sum is ((0.0 + p_0 v_0) + p_1 v_1) + ..., every branch in
  index order, zero-probability branches included (0.0 + -0.0 is 0.0, so
  skipping one could flip a sign);
- q = (cost_const + frozen_z * cost_z) + discount * acc, with +inf as the
  cost of an infeasible action; the multiply is skipped at discount 1.0,
  where x * 1.0 is x bit for bit;
- the first strictly smaller q wins, in priority order, starting from +inf
  and action -1, so ties keep the earlier action and a q that is NaN or
  +inf is never chosen.
"""

from __future__ import annotations

import numpy as np

# Tie-break order: USER2, USER1, IDLE.
_PRIORITY = (1, 0, 2)


def solve_backward(
    cost_const: np.ndarray,
    cost_z: np.ndarray,
    feasible: np.ndarray,
    next_idx: np.ndarray,
    probs: np.ndarray,
    frozen_z: float,
    discount: float,
    values: np.ndarray,
    actions: np.ndarray,
) -> None:
    """Fill `values` ((T+1, S)) and `actions` ((T, S)) in place."""
    T = actions.shape[0]
    S = cost_const.shape[0]
    n_branches = probs.shape[2]
    cost = np.where(feasible.astype(bool), cost_const + frozen_z * cost_z, np.inf)
    cost = np.ascontiguousarray(cost.T).reshape(3 * S)
    # Row b of nxt/pr (as (B, 3*S)) is branch b, action-major.
    nxt = np.ascontiguousarray(next_idx.transpose(2, 1, 0)).reshape(-1)
    pr = np.ascontiguousarray(probs.transpose(2, 1, 0)).reshape(-1)
    gathered = np.empty(n_branches * 3 * S)
    branch_rows = gathered.reshape(n_branches, 3 * S)
    q = np.empty(3 * S)
    q_rows = q.reshape(3, S)
    wins = np.empty(S, dtype=bool)
    values[T] = 0.0
    for t in range(T - 1, -1, -1):
        best, pick = values[t], actions[t]
        np.take(values[t + 1], nxt, out=gathered, mode="wrap")
        np.multiply(gathered, pr, out=gathered)
        # Reducing axis 0 of the C-contiguous (B, 3*S) block adds row after
        # row to 0.0, in branch order. Were the branch axis NumPy's inner
        # loop, 8 or more rows would be summed pairwise, in another order, so
        # the sum is exact only while B < 8 (the solver's B is 2 or 4).
        np.add.reduce(branch_rows, axis=0, out=q, initial=0.0)
        if discount != 1.0:
            np.multiply(q, discount, out=q)
        np.add(cost, q, out=q)
        best.fill(np.inf)
        pick.fill(-1)
        for a in _PRIORITY:
            np.less(q_rows[a], best, out=wins)
            np.copyto(best, q_rows[a], where=wins)
            np.copyto(pick, a, where=wins)
