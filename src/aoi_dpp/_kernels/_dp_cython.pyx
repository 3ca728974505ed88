# cython: boundscheck=False, wraparound=False, initializedcheck=False, cdivision=True
"""Compiled backward-DP inner loop.

Reference semantics: the plain-Python `loop_kernel` in tests/test_kernels.py
mirrors this loop statement for statement, and the NumPy kernel (_dp_numpy)
reproduces it bit for bit.
"""

from libc.math cimport INFINITY


def solve_backward(
    double[:, ::1] cost_const,
    double[:, ::1] cost_z,
    unsigned char[:, ::1] feasible,
    Py_ssize_t[:, :, ::1] next_idx,
    double[:, :, ::1] probs,
    double frozen_z,
    double discount,
    double[:, ::1] values,
    signed char[:, ::1] actions,
):
    """Fill `values` ((T+1, S)) and `actions` ((T, S)) in place."""
    cdef Py_ssize_t T = actions.shape[0]
    cdef Py_ssize_t S = cost_const.shape[0]
    cdef Py_ssize_t NB = probs.shape[2]
    cdef Py_ssize_t t, s, k, b, a
    cdef double acc, q, best
    cdef signed char best_a
    # Tie-break order: USER2, USER1, IDLE.
    cdef Py_ssize_t[3] order
    order[0] = 1
    order[1] = 0
    order[2] = 2

    for s in range(S):
        values[T, s] = 0.0
    for t in range(T - 1, -1, -1):
        for s in range(S):
            best = INFINITY
            best_a = -1
            for k in range(3):
                a = order[k]
                if not feasible[s, a]:
                    continue
                acc = 0.0
                for b in range(NB):
                    acc = acc + probs[s, a, b] * values[t + 1, next_idx[s, a, b]]
                q = cost_const[s, a] + frozen_z * cost_z[s, a] + discount * acc
                if q < best:
                    best = q
                    best_a = <signed char> a
            values[t, s] = best
            actions[t, s] = best_a
