"""Virtual-queue mechanics and the controller's analytic guarantees.

The per-frame delivery constraint is tracked by a scalar debt process Z that
grows by the per-slot target rho = q/T every slot and drains by each delivery.
Keeping Z rate-stable is equivalent to meeting the constraint, and
`bounds_report` turns the quadratic drift of Z into the bounds that every
run summary reports.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .channel import ChannelModel, mean_success_prob
from .model import FrameConfig


class InfeasibleError(RuntimeError):
    """No slackness certificate: serving user 2 every slot cannot meet q."""

    def __init__(self, epsilon: float, message: str):
        super().__init__(message)
        self.epsilon = epsilon


def update_virtual_queue(z: float, d2: int, rho: float) -> float:
    """One slot of debt dynamics: Z <- max(Z - d2, 0) + rho. Applied every slot.

    `sim.run_simulation` inlines this law twice: in `sim._debts`, the one
    pass over the user-2 deliveries that writes every policy's debt
    trajectory after its actions are picked, and in the controller's slot
    loop, which keeps a running debt only to key each frame's table
    lookup. This function is their specification:
    `tests/test_sim.py` checks every slot of the trajectory against it bit
    for bit, and every lookup key against the trajectory.
    """
    return max(z - d2, 0.0) + rho


def slackness_epsilon(model: ChannelModel, T: int, q: float) -> float:
    """Constraint slack of the always-serve-user-2 policy, per slot.

    epsilon = (T*pbar2 - q)/T with pbar2 user 2's long-run per-slot success
    probability. A positive value certifies the delivery floor is strictly
    achievable; otherwise InfeasibleError carries the raw (non-positive) value.
    """
    pbar2 = mean_success_prob(model, 2)
    epsilon = (T * pbar2 - q) / T
    if epsilon <= 0.0:
        raise InfeasibleError(
            epsilon,
            f"q={q} not certifiably feasible: always serving user 2 yields "
            f"{T * pbar2:.6g} expected deliveries per frame (epsilon={epsilon:.6g})",
        )
    return epsilon


def bounds_report(cfg: FrameConfig, model: ChannelModel) -> dict[str, float | None]:
    """The scenario's analytic bounds: the `bounds` block of `summary.json`.

    Drift-plus-penalty bounds of the controller that solves every frame
    exactly (Neely, *Stochastic Network Optimization*, 2010, ch. 4), with
    rho = q/T and epsilon from `slackness_epsilon`:

    - drift_slot_rate: B = T*(rho^2 + 1)/2 + T*(T - 1)/2, the constant that
      bounds the expected per-frame quadratic drift under the per-slot
      arrival rho the virtual queue uses. It feeds both bounds below.
    - drift_frame_quota: (T*q^2 + T*(T - 1))/2, the published closed form,
      which plugs the whole frame quota q into the per-slot bound. It is
      echoed only; nothing relies on it.
    - epsilon: the slack of always serving user 2.
    - z_bound: (B + V*(A_max - 1)) / (epsilon*T), meant to cap the long-run
      mean of Z at frame starts.
    - aoi_bound_offset: B / (V*T); the AoI bound is this offset + A_opt,
      with A_opt supplied by the caller. Which optimum A_opt must be for
      the bound to hold is an open question. Infinite, so None, at V = 0.
    - mix_prob: the weight an approximate frame solver's bound puts on its
      optimality gap. Every frame is solved exactly, so it is always 0.0.

    What the bounds guarantee is less than they claim. epsilon ignores the
    K-packet cap: a frame delivers at most K packets, so the true slack is
    (E[min(K, S)] - q)/T with S the frame's user-2 successes, 0.1388 and not
    0.2571 in the reference scenario. So z_bound falls below the measured
    mean frame-start Z at V = 100 (409 against 678) and V = 150 (594
    against 1017), and targets q in (14.78, 17.14] are certified though no
    policy meets them. A corrected epsilon would change every run summary,
    so these values are kept as they are for now.

    Non-finite values are None, since JSON has no Infinity. Raises
    InfeasibleError when no slackness certificate exists.
    """
    T, q, V = cfg.T, cfg.q, cfg.V
    rho = q / T
    slot_rate = T * (rho * rho + 1.0) / 2.0 + T * (T - 1) / 2.0
    eps = slackness_epsilon(model, T, q)
    report = {
        "drift_frame_quota": (T * q * q + T * (T - 1)) / 2.0,
        "drift_slot_rate": slot_rate,
        "epsilon": eps,
        "z_bound": (slot_rate + V * (cfg.A_max - 1)) / (eps * T),
        "aoi_bound_offset": slot_rate / (V * T) if V > 0 else math.inf,
        "mix_prob": 0.0,
    }
    return {k: (v if math.isfinite(v) else None) for k, v in report.items()}


def rate_stability_stat(z_trajectory: Sequence[float] | np.ndarray) -> float:
    """Final Z(t)/t; vanishing values certify the debt process is rate stable."""
    n = len(z_trajectory)
    if n == 0:
        raise ValueError("empty trajectory")
    if n == 1:
        return float(z_trajectory[0])
    return float(z_trajectory[-1]) / (n - 1)


def convergence_time(
    z_trajectory: Sequence[float] | np.ndarray, factor: float = 2.0
) -> int:
    """Slots until Z first enters the factor band around its long-run mean.

    The long-run mean m is taken over the trajectory's second half; returned
    is the first index t with m/factor <= Z(t) <= factor*m. Starting from
    Z(0) = 0 the debt climbs toward its plateau, so this measures how long the
    controller needs to stabilize the virtual queue (an overshooting
    trajectory is likewise caught on the way down through factor*m).
    """
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    z = np.asarray(z_trajectory, dtype=float)
    if z.size < 2:
        raise ValueError("trajectory too short")
    m = float(z[z.size // 2 :].mean())
    inside = (z >= m / factor) & (z <= m * factor)
    hits = np.nonzero(inside)[0]
    if hits.size == 0:
        return z.size - 1
    return int(hits[0])
