"""Virtual-queue mechanics and the controller's analytic guarantees.

The per-frame delivery constraint is tracked by a scalar debt process Z that
grows by the per-slot target rho = q/T every slot and drains by each delivery.
Keeping Z rate-stable is equivalent to meeting the constraint, and the
quadratic-drift machinery below turns that into checkable bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import ChannelModel, mean_success_prob
from .model import FrameConfig


class InfeasibleError(RuntimeError):
    """No slackness certificate: serving user 2 every slot cannot meet q."""

    def __init__(self, epsilon: float, message: str):
        super().__init__(message)
        self.epsilon = epsilon


class DriftBound(NamedTuple):
    """Quadratic-drift constants under the two arrival conventions.

    frame_quota plugs the whole per-frame quota q into the per-slot bound (the
    published closed form); slot_rate re-derives it with the per-slot arrival
    q/T actually used by the virtual queue, which is the constant all checks
    here rely on.
    """

    frame_quota: float
    slot_rate: float


class PerformanceBounds(NamedTuple):
    z_bound: float
    aoi_bound_offset: float


@dataclass(frozen=True)
class BoundsReport:
    """Analytics bundle serialized into each run summary.

    mix_prob is the weight the bound of an approximate per-frame solver puts
    on its optimality gap. Every frame here is solved exactly, so it is 0.0;
    it stays so that run summaries keep their fields.
    """

    drift_frame_quota: float
    drift_slot_rate: float
    epsilon: float
    z_bound: float
    aoi_bound_offset: float
    mix_prob: float = 0.0

    def to_dict(self) -> dict[str, float | None]:
        # JSON has no Infinity; non-finite entries serialize as null.
        return {
            k: (v if math.isfinite(v) else None)
            for k, v in self.__dict__.items()
        }


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


def drift_bound(T: int, q: float) -> DriftBound:
    """Finite constants bounding the expected per-frame quadratic drift."""
    if T < 1 or q < 0:
        raise ValueError(f"need T >= 1 and q >= 0, got T={T}, q={q}")
    rho = q / T
    frame_quota = (T * q * q + T * (T - 1)) / 2.0
    slot_rate = T * (rho * rho + 1.0) / 2.0 + T * (T - 1) / 2.0
    return DriftBound(frame_quota, slot_rate)


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


def performance_bounds(
    drift_const: float, epsilon: float, T: int, V: float, A_max: int
) -> PerformanceBounds:
    """Guarantees of the controller that solves each frame exactly.

    z_bound caps the long-run mean of Z at frame starts; the AoI guarantee is
    aoi_bound_offset + A_opt with A_opt supplied externally. Requires
    epsilon > 0; the offset is +inf when V = 0.
    """
    if V < 0 or not epsilon > 0:
        raise ValueError(f"need V >= 0 and epsilon > 0, got V={V}, epsilon={epsilon}")
    z_bound = (drift_const + V * (A_max - 1)) / (epsilon * T)
    aoi_bound_offset = drift_const / (V * T) if V > 0 else math.inf
    return PerformanceBounds(z_bound, aoi_bound_offset)


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


def bounds_report(cfg: FrameConfig, model: ChannelModel) -> BoundsReport:
    """Assemble the full analytics bundle for a scenario.

    Raises InfeasibleError when no slackness certificate exists.
    """
    db = drift_bound(cfg.T, cfg.q)
    eps = slackness_epsilon(model, cfg.T, cfg.q)
    perf = performance_bounds(db.slot_rate, eps, cfg.T, cfg.V, cfg.A_max)
    return BoundsReport(
        drift_frame_quota=db.frame_quota,
        drift_slot_rate=db.slot_rate,
        epsilon=eps,
        z_bound=perf.z_bound,
        aoi_bound_offset=perf.aoi_bound_offset,
    )
