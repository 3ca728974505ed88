import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoi_dpp.model import (
    Action,
    FrameConfig,
    SystemState,
    feasible_actions,
    step_aoi,
    step_queue,
)


def test_step_aoi():
    assert step_aoi(5, 1, 20) == 1
    assert step_aoi(20, 0, 20) == 20
    assert step_aoi(3, 0, 20) == 4


@given(st.integers(1, 50), st.integers(1, 50))
def test_step_aoi_reset_and_monotone(a, b):
    a_max = 50
    assert step_aoi(a, 1, a_max) == 1
    if a <= b:
        assert step_aoi(a, 0, a_max) <= step_aoi(b, 0, a_max)
    assert 1 <= step_aoi(a, 0, a_max) <= a_max


def test_step_queue():
    assert step_queue(5, 1, False, 15) == 4
    assert step_queue(2, 0, True, 15) == 15
    assert step_queue(0, 0, False, 15) == 0


@given(st.integers(0, 15), st.integers(0, 1), st.booleans())
def test_step_queue_stays_in_range(queue, d2, boundary):
    k = 15
    nxt = step_queue(queue, d2, boundary, k)
    assert 0 <= nxt <= k
    if boundary:
        assert nxt == k
    else:
        assert nxt == max(queue - d2, 0)


def test_feasible_actions():
    assert feasible_actions(SystemState(3, 4)) == (Action.USER1, Action.USER2, Action.IDLE)
    assert feasible_actions(SystemState(3, 0)) == (Action.USER1, Action.IDLE)
    assert feasible_actions(SystemState(20, 15)) == (
        Action.USER1,
        Action.USER2,
        Action.IDLE,
    )


def test_frame_config_validation():
    FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    with pytest.raises(ValueError):
        FrameConfig(T=10, K=15, q=12.0, A_max=20, V=5.0)  # K > T
    with pytest.raises(ValueError):
        FrameConfig(T=20, K=15, q=16.0, A_max=20, V=5.0)  # q > K
    with pytest.raises(ValueError):
        FrameConfig(T=20, K=15, q=12.0, A_max=0, V=5.0)
    with pytest.raises(ValueError):
        FrameConfig(T=20, K=15, q=12.0, A_max=20, V=-1.0)
    with pytest.raises(ValueError):
        FrameConfig(T=20, K=0, q=0.0, A_max=20, V=5.0)


@pytest.mark.parametrize("v", [float("nan"), float("inf")])
def test_frame_config_rejects_non_finite_v(v):
    with pytest.raises(ValueError, match="finite"):
        FrameConfig(T=20, K=15, q=12.0, A_max=20, V=v)


def test_frame_config_rejects_overflowing_v():
    # A frame's costs reach V * A_max * T = 4e309, which overflows a float.
    with pytest.raises(ValueError, match="^V must .*finite"):
        FrameConfig(T=20, K=15, q=12.0, A_max=20, V=1e307)
    FrameConfig(T=1, K=1, q=1.0, A_max=1, V=1e307)


def test_rho():
    assert FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0).rho == pytest.approx(0.6)
    assert 0 <= FrameConfig(T=3, K=2, q=1.7, A_max=4, V=0.0).rho <= 1


def test_queue_cannot_empty_before_slot_k():
    # With K packets and one service per slot, Q(t) >= K - offset within a frame.
    k, t_frame = 15, 20
    queue = k
    for j in range(t_frame):
        if j < k:
            assert queue >= k - j
        queue = step_queue(queue, 1, j == t_frame - 1, k)
    assert queue == k
