"""Core state dynamics: AoI evolution, the deadline queue with per-frame
refill/drop, and action feasibility."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Action(enum.IntEnum):
    """Scheduler decision for one slot: at most one user transmits."""

    USER1 = 0
    USER2 = 1
    IDLE = 2


#: CSV label of each action, indexed by its value.
ACTION_LABELS = ("u1", "u2", "idle")


@dataclass(frozen=True)
class FrameConfig:
    """Scalar parameters of one scenario.

    T: slots per frame; K: packets arriving at each frame start; q: required
    expected deliveries per frame; A_max: AoI cap; V: penalty weight trading
    freshness against the delivery guarantee. The frame objective weighs
    every slot alike. A broken invariant raises ValueError("<field> must ...").
    """

    T: int
    K: int
    q: float
    A_max: int
    V: float

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0 < self.K <= self.T:
            raise ValueError(f"K must satisfy 0 < K <= T, got K={self.K}, T={self.T}")
        if not 0 <= self.q <= self.K:
            raise ValueError(f"q must satisfy 0 <= q <= K, got q={self.q}, K={self.K}")
        if self.A_max < 1:
            raise ValueError(f"A_max must be >= 1, got {self.A_max}")
        # A frame's penalty reaches V * A_max * T, which must stay a finite float.
        if not (self.V >= 0 and math.isfinite(self.V * self.A_max * self.T)):
            raise ValueError(f"V must be >= 0 with V * A_max * T finite, got {self.V}")

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


class InfeasibleActionError(ValueError):
    """A policy picks an action its state does not allow (user 2 with an
    empty queue), or a solved frame table holds a non-finite value."""


def feasible_actions(state: SystemState) -> tuple[Action, ...]:
    """USER1 and IDLE are always allowed; USER2 only with packets queued."""
    if state.queue > 0:
        return (Action.USER1, Action.USER2, Action.IDLE)
    return (Action.USER1, Action.IDLE)
