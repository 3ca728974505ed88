"""Kernel checks: the compiled core and the NumPy fallback must agree bit for
bit, so a run is reproducible no matter which kernel carried it, and the
solver must take its kernel from `_kernels.get_solver` at construction."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import reference_cfg, reference_model, random_instance

from aoi_dpp import _kernels
from aoi_dpp.model import FrameConfig
from aoi_dpp.solver import FrameSolver

needs_cython = pytest.mark.skipif(
    _kernels._dp_cython is None, reason="compiled kernel not built"
)


def kernel_tables(kernel, solver: FrameSolver, z: float):
    """Run one kernel on the solver's arrays; returns (values, actions)."""
    T, S = solver.cfg.T, solver.space.n_states
    values = np.empty((T + 1, S))
    actions = np.empty((T, S), dtype=np.int8)
    kernel(
        solver.cost_const,
        solver.cost_z,
        solver.feasible,
        solver.next_idx,
        solver.probs,
        z,
        solver.cfg.discount,
        values,
        actions,
    )
    return values, actions


def loop_kernel(cost_const, cost_z, feasible, next_idx, probs, frozen_z, discount,
                values, actions):
    """Plain-Python mirror of `_dp_cython.solve_backward`: branches accumulate
    in order, infeasible actions are skipped, and a strictly smaller q wins in
    USER2, USER1, IDLE order."""
    T, S, n_branches = actions.shape[0], cost_const.shape[0], probs.shape[2]
    cc, cz, ok = cost_const.tolist(), cost_z.tolist(), feasible.tolist()
    nxt, pr = next_idx.tolist(), probs.tolist()
    vnext = [0.0] * S
    values[T] = vnext
    for t in range(T - 1, -1, -1):
        vt, at = [0.0] * S, [0] * S
        for s in range(S):
            best, best_a = math.inf, -1
            for a in (1, 0, 2):
                if not ok[s][a]:
                    continue
                acc = 0.0
                for b in range(n_branches):
                    acc = acc + pr[s][a][b] * vnext[nxt[s][a][b]]
                q = cc[s][a] + frozen_z * cz[s][a] + discount * acc
                if q < best:
                    best, best_a = q, a
            vt[s], at[s] = best, best_a
        values[t], actions[t] = vt, at
        vnext = vt


def assert_kernels_agree(solver: FrameSolver, z: float) -> None:
    cy_values, cy_actions = kernel_tables(_kernels._dp_cython.solve_backward, solver, z)
    np_values, np_actions = kernel_tables(_kernels._dp_numpy.solve_backward, solver, z)
    assert np.array_equal(cy_values, np_values)
    assert np.array_equal(cy_actions, np_actions)


def test_backend_matches_extension():
    built = _kernels._dp_cython is not None
    assert _kernels.BACKEND == ("cython" if built else "numpy")
    module = _kernels._dp_cython if built else _kernels._dp_numpy
    assert _kernels.get_solver() is module.solve_backward


def test_frame_solver_uses_get_solver(monkeypatch):
    calls = []
    kernel = _kernels.get_solver()

    def recording_kernel(*args):
        calls.append(len(args))
        kernel(*args)

    monkeypatch.setattr(_kernels, "get_solver", lambda: recording_kernel)
    solver = FrameSolver(reference_cfg(5.0), reference_model())
    solver.solve(0.0)
    solver.solve(2.5)
    assert calls == [9, 9]


@needs_cython
def test_backends_bit_identical_reference_scenario():
    solver = FrameSolver(reference_cfg(5.0), reference_model())
    for z in (0.0, 0.3, 1.7, 12.9, 250.0):
        assert_kernels_agree(solver, z)


@needs_cython
def test_backends_bit_identical_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(40):
        cfg, model, _, z = random_instance(rng)
        assert_kernels_agree(FrameSolver(cfg, model), z)


def test_numpy_kernel_matches_loop_contract():
    # Runs without the compiled kernel: the NumPy fallback must equal the
    # compiled loop's semantics bit for bit, on arrays typed as it expects.
    # Channels with 0/1 probabilities and V = z = 0 instances make ties.
    rng = np.random.default_rng(7)
    for i in range(60):
        cfg, model, _, z = random_instance(rng)
        discount = (1.0, 0.9, 0.5)[i % 3]
        cfg = FrameConfig(cfg.T + 2, cfg.K, cfg.q, cfg.A_max + 1, cfg.V, discount)
        if i % 2:
            params = [float(rng.choice([0.0, 1.0, p])) for p in dataclasses.astuple(model)]
            model = type(model)(*params)
            z += float(rng.random())
        solver = FrameSolver(cfg, model)
        for name, dtype in (("cost_const", np.float64), ("cost_z", np.float64),
                            ("feasible", np.uint8), ("next_idx", np.intp),
                            ("probs", np.float64)):
            array = getattr(solver, name)
            assert array.dtype == dtype and array.flags.c_contiguous, name
        loop_values, loop_actions = kernel_tables(loop_kernel, solver, z)
        np_values, np_actions = kernel_tables(_kernels._dp_numpy.solve_backward, solver, z)
        assert np.array_equal(loop_values, np_values)
        assert np.array_equal(loop_actions, np_actions)


def test_solve_is_repeatable():
    cfg = reference_cfg(5.0)
    solver = FrameSolver(cfg, reference_model())
    a = solver.solve(3.7)
    b = solver.solve(3.7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.actions, b.actions)
