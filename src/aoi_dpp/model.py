"""Core state dynamics: AoI evolution, the deadline queue with per-frame
refill/drop, the frame clock, and action feasibility."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Action(enum.IntEnum):
    """Scheduler decision for one slot: at most one user transmits."""

    USER1 = 0
    USER2 = 1
    IDLE = 2


ACTION_LABELS = {Action.USER1: "u1", Action.USER2: "u2", Action.IDLE: "idle"}


@dataclass(frozen=True)
class FrameConfig:
    """Scalar parameters of one scenario.

    T: slots per frame; K: packets arriving at each frame start; q: required
    expected deliveries per frame; A_max: AoI cap; V: penalty weight trading
    freshness against the delivery guarantee; discount: Bellman discount
    (1.0 = undiscounted per-frame objective, the default).
    """

    T: int
    K: int
    q: float
    A_max: int
    V: float
    discount: float = 1.0

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0 < self.K <= self.T:
            raise ValueError(f"K must satisfy 0 < K <= T, got K={self.K}, T={self.T}")
        if not 0 <= self.q <= self.K:
            raise ValueError(f"q must satisfy 0 <= q <= K, got q={self.q}, K={self.K}")
        if self.A_max < 1:
            raise ValueError(f"A_max must be >= 1, got {self.A_max}")
        if not 0 <= self.V < math.inf:
            raise ValueError(f"V must be finite and >= 0, got {self.V}")
        if not 0 < self.discount <= 1:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")

    @property
    def rho(self) -> float:
        """Per-slot delivery target q/T, in [0, 1]."""
        return self.q / self.T


@dataclass(frozen=True)
class SystemState:
    """State seen by the scheduler at a slot boundary.

    channel_mem is the previous slot's realized per-user channel pair
    (Good=1/Bad=0) under delayed CSI; None for the memoryless channel.
    """

    aoi: int
    queue: int
    channel_mem: tuple[int, int] | None = None


@dataclass(frozen=True)
class Outcome:
    """Delivery indicators for one slot; d_i can be 1 only if user i was scheduled."""

    d1: int
    d2: int


def frame_offset(t: int, T: int) -> int:
    """Slots elapsed since the current frame started; 0 marks a frame start."""
    if t < 0 or T < 1:
        raise ValueError(f"need t >= 0 and T >= 1, got t={t}, T={T}")
    return t % T


def step_aoi(aoi: int, d1: int, a_max: int) -> int:
    """Age resets to 1 on a user-1 delivery, otherwise grows by 1 up to the cap."""
    if d1:
        return 1
    return min(a_max, aoi + 1)


def step_queue(queue: int, d2: int, next_slot_is_frame_start: bool, k: int) -> int:
    """Deadline-queue update for one slot.

    At a frame boundary the queue refills to k (leftover packets are dropped);
    the last slot's service is still counted by the caller's metrics. Mid-frame
    the queue shrinks by the delivery indicator, clamped at zero.
    """
    if next_slot_is_frame_start:
        return k
    return max(queue - d2, 0)


def feasible_actions(state: SystemState) -> tuple[Action, ...]:
    """USER1 and IDLE are always allowed; USER2 only with packets queued."""
    if state.queue > 0:
        return (Action.USER1, Action.USER2, Action.IDLE)
    return (Action.USER1, Action.IDLE)
