"""Host-speed probe: a fixed computation timed between the measured calls.

The benchmark host is shared, and its speed drifts by tens of percent over
minutes, which is more than the changes the benchmark must resolve. The
probe runs the two kinds of work aoi_dpp does, timed separately: NumPy
gather arithmetic shaped like the frame kernel, and interpreter-bound
integer updates with float formatting, like the slot loop and the CSV
writers. Neither part calls aoi_dpp, so a change to the program leaves the
probe alone. A call's wall time divided by the host factor from the probes
around it estimates the call's wall time on the host at nominal speed.
"""

from __future__ import annotations

import io
from time import perf_counter

import numpy as np

#: Durations of the two parts on an unloaded reference host (2-core Xeon
#: VM, Python 3.11, NumPy 2.4); they only fix the scale of the factor.
NUMPY_NOMINAL_S = 0.05
PYTHON_NOMINAL_S = 0.10

_S, _BRANCHES = 1280, 4
_rng = np.random.default_rng(0)
_NEXT = _rng.integers(0, _S, size=(_S, 3, _BRANCHES))
_PROB = _rng.random((_S, 3, _BRANCHES)) / _BRANCHES
_COST = _rng.random((_S, 3))


def _numpy_part() -> float:
    t0 = perf_counter()
    v = np.zeros(_S)
    for _ in range(300):
        cont = np.zeros((_S, 3))
        for b in range(_BRANCHES):
            cont = cont + _PROB[:, :, b] * v[_NEXT[:, :, b]]
        v = (_COST + cont).min(axis=1)
    return perf_counter() - t0


def _python_part() -> float:
    t0 = perf_counter()
    buf = io.StringIO()
    age, queue, debt = 1, 15, 0.0
    for t in range(60_000):
        age = age + 1 if t & 3 else 1
        queue = queue - 1 if queue > 0 else 15
        debt = max(debt + 0.6 - (t & 1), 0.0)
        buf.write(f"{t},{age},{debt!r},{queue}\n")
    return perf_counter() - t0


def measure() -> tuple[float, float]:
    """(NumPy part, Python part) durations relative to nominal."""
    return _numpy_part() / NUMPY_NOMINAL_S, _python_part() / PYTHON_NOMINAL_S


def host_factor(before: tuple[float, float], after: tuple[float, float],
                numpy_share: float) -> float:
    """Slowdown of the host over an interval bracketed by two probes, for
    work that spends `numpy_share` of its time in NumPy-bound code."""
    numpy_part = (before[0] + after[0]) / 2
    python_part = (before[1] + after[1]) / 2
    return numpy_share * numpy_part + (1.0 - numpy_share) * python_part
