"""Channel processes: i.i.d. Bernoulli and two-state Gilbert-Elliot models.

Delayed-CSI convention: the scheduler's channel memory is the previous slot's
realized state for both users, and a transmission in the current slot succeeds
exactly when that user's chain lands in Good this slot. Both chains advance
every slot, scheduled or not (sensing is independent of scheduling).
step_channel advances many independent pairs at once under either model;
i.i.d. links are the case whose landing law ignores the previous state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOOD = 1
BAD = 0


class NoUniqueStationaryError(ValueError):
    """The two-state chain has no unique stationary distribution."""


@dataclass(frozen=True)
class IIDChannel:
    """Memoryless channels: user i succeeds with probability p_i per slot."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        _check_prob("p1", self.p1)
        _check_prob("p2", self.p2)


@dataclass(frozen=True)
class GilbertElliotChannel:
    """Per-user two-state Markov fading: p11_i = P(Good -> Good), p01_i = P(Bad -> Good)."""

    p11_1: float
    p01_1: float
    p11_2: float
    p01_2: float

    def __post_init__(self) -> None:
        for name in ("p11_1", "p01_1", "p11_2", "p01_2"):
            _check_prob(name, getattr(self, name))

    def params(self, user: int) -> tuple[float, float]:
        """(p11, p01) of the given user's chain."""
        if user == 1:
            return self.p11_1, self.p01_1
        if user == 2:
            return self.p11_2, self.p01_2
        raise ValueError(f"user must be 1 or 2, got {user}")

    def good_prob(self, user: int, prev: int) -> float:
        """P(Good this slot | previous slot's state)."""
        p11, p01 = self.params(user)
        return p11 if prev == GOOD else p01


ChannelModel = IIDChannel | GilbertElliotChannel


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


def step_channel(
    model: ChannelModel, mem: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Advance both users' chains one slot, independently, in each row of an
    (n, 2) memory array: user u lands Good when a fresh uniform falls below
    P(Good | its previous state). i.i.d. links ignore the memory."""
    if isinstance(model, IIDChannel):
        good = np.array([[model.p1] * 2, [model.p2] * 2])
    else:
        good = np.array([[model.good_prob(u, h) for h in (BAD, GOOD)] for u in (1, 2)])
    return np.where(rng.random(mem.shape) < good[[0, 1], mem], GOOD, BAD)


def stationary_good_prob(p11: float, p01: float) -> float:
    """Stationary probability of Good for a two-state chain.

    Solves pi = pi*p11 + (1-pi)*p01. Raises NoUniqueStationaryError for the
    periodic/degenerate case 1 - p11 + p01 = 0.
    """
    denom = 1.0 - p11 + p01
    if denom == 0.0:
        raise NoUniqueStationaryError(
            f"chain with p11={p11}, p01={p01} has no unique stationary distribution"
        )
    return p01 / denom


def stationary_state(
    model: GilbertElliotChannel, rng: np.random.Generator
) -> tuple[int, int]:
    """Draw an initial (h1, h2) memory pair from the per-user stationary laws."""
    u = rng.random(2)
    h1 = GOOD if u[0] < stationary_good_prob(model.p11_1, model.p01_1) else BAD
    h2 = GOOD if u[1] < stationary_good_prob(model.p11_2, model.p01_2) else BAD
    return (h1, h2)


def mean_success_prob(model: ChannelModel, user: int) -> float:
    """Long-run per-slot success probability when `user` transmits every slot."""
    if isinstance(model, IIDChannel):
        return model.p1 if user == 1 else model.p2
    p11, p01 = model.params(user)
    return stationary_good_prob(p11, p01)
