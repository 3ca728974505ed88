"""Backward-DP inner loops: compiled core with a NumPy fallback.

The kernel is chosen once, at import: the compiled extension when it built,
the NumPy fallback otherwise. `BACKEND` names the choice; there is no
per-call override. Both implementations share one contract (see
_dp_numpy.solve_backward) and produce bit-identical tables.
"""

from __future__ import annotations

from . import _dp_numpy

try:
    from . import _dp_cython
except ImportError:  # extension not built; NumPy path carries the load
    _dp_cython = None

BACKEND = "cython" if _dp_cython is not None else "numpy"


def get_solver():
    """The frame kernel selected at import."""
    return (_dp_cython or _dp_numpy).solve_backward
