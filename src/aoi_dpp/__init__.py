"""Discrete-time wireless scheduling that minimizes one user's Age of
Information while guaranteeing a per-frame delivery floor for a
deadline-constrained user, via a virtual-queue drift-plus-penalty controller
whose per-frame problem is solved exactly by backward dynamic programming."""

from ._kernels import BACKEND
from .channel import (
    BAD,
    GOOD,
    GilbertElliotChannel,
    IIDChannel,
    NoUniqueStationaryError,
    stationary_good_prob,
    step_channel,
    success_prob,
)
from .config import ConfigError, ExperimentConfig, PRESETS, load_config, parse_config_text
from .lyapunov import (
    BoundHypothesisViolated,
    BoundsReport,
    InfeasibleError,
    bounds_report,
    convergence_time,
    drift_bound,
    performance_bounds,
    rate_stability_stat,
    slackness_epsilon,
    update_virtual_queue,
)
from .model import (
    Action,
    FrameConfig,
    Outcome,
    SystemState,
    feasible_actions,
    frame_offset,
    step_aoi,
    step_queue,
)
from .oracle import (
    EvaluationResult,
    TooLargeError,
    brute_force_optimal,
    evaluate_policy_exact,
    monte_carlo_value,
    stationary_aoi_mean,
)
from .sim import Metrics, PolicyKind, baseline_decision, run_simulation
from .solver import (
    FrameSolver,
    InfeasibleActionError,
    PolicyTable,
    StateSpace,
    UnknownStateError,
    backward_solve,
    build_kernel,
    stage_cost,
)

__version__ = "0.1.0"
