"""Kernel checks: the compiled core and the NumPy fallback must agree bit for
bit, so a run is reproducible no matter which kernel carried it, and the
solver must take its kernel from `_kernels.get_solver` at construction."""

import numpy as np
import pytest

from conftest import reference_cfg, reference_model, random_instance

from aoi_dpp import _kernels
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


def test_solve_is_repeatable():
    cfg = reference_cfg(5.0)
    solver = FrameSolver(cfg, reference_model())
    a = solver.solve(3.7)
    b = solver.solve(3.7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.actions, b.actions)
