"""The backward-DP frame kernel (see _dp_numpy.solve_backward).

`BACKEND` names it and `get_solver` returns it; `FrameSolver` looks the
kernel up through `get_solver` at construction, so a test or a tracer can
substitute its own.
"""

from __future__ import annotations

from ._dp_numpy import solve_backward

BACKEND = "numpy"


def get_solver():
    """The frame kernel."""
    return solve_backward
