"""Discrete-time wireless scheduling that minimizes one user's Age of
Information while guaranteeing a per-frame delivery floor for a
deadline-constrained user, via a virtual-queue drift-plus-penalty controller
whose per-frame problem is solved exactly by backward dynamic programming.

The package root exports the names in __all__; every other name is imported
from its submodule."""

from ._kernels import BACKEND
from .channel import GilbertElliotChannel, IIDChannel, NoUniqueStationaryError
from .config import ConfigError
from .lyapunov import InfeasibleError, bounds_report
from .model import FrameConfig, InfeasibleActionError
from .oracle import TooLargeError
from .sim import PolicyKind, run_simulation
from .solver import FrameSolver, UnknownStateError

__all__ = [
    "BACKEND",
    "ConfigError",
    "FrameConfig",
    "FrameSolver",
    "GilbertElliotChannel",
    "IIDChannel",
    "InfeasibleActionError",
    "InfeasibleError",
    "NoUniqueStationaryError",
    "PolicyKind",
    "TooLargeError",
    "UnknownStateError",
    "bounds_report",
    "run_simulation",
]

__version__ = "0.1.0"
