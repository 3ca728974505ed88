import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoi_dpp.channel import GilbertElliotChannel, IIDChannel
from aoi_dpp.lyapunov import (
    InfeasibleError,
    bounds_report,
    convergence_time,
    drift_bound,
    performance_bounds,
    rate_stability_stat,
    slackness_epsilon,
    update_virtual_queue,
)
from aoi_dpp.model import FrameConfig


def test_update_virtual_queue():
    assert update_virtual_queue(2.0, 1, 0.6) == pytest.approx(1.6)
    assert update_virtual_queue(0.3, 1, 0.6) == pytest.approx(0.6)
    assert update_virtual_queue(0.0, 0, 0.6) == pytest.approx(0.6)


@given(
    st.floats(0, 100, allow_nan=False),
    st.integers(0, 1),
    st.floats(0, 1, allow_nan=False),
)
def test_update_bounded_increments(z, d2, rho):
    nxt = update_virtual_queue(z, d2, rho)
    assert nxt >= 0.0
    assert abs(nxt - z) <= max(1.0, rho) + 1e-12


def test_drift_bound_reference_scenario():
    b = drift_bound(20, 12.0)
    assert b.frame_quota == pytest.approx(1630.0, abs=1e-9)
    assert b.slot_rate == pytest.approx(203.6, abs=1e-9)


def test_drift_bound_degenerate():
    b = drift_bound(1, 0.0)
    assert b.frame_quota == 0.0
    assert b.slot_rate == pytest.approx(0.5)  # the d2^2 <= 1 term survives


def test_slackness_epsilon_ge():
    model = GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
    # (20 * 6/7 - 12) / 20 = 9/35
    assert slackness_epsilon(model, 20, 12.0) == pytest.approx(9 / 35, abs=1e-12)


def test_slackness_epsilon_infeasible():
    with pytest.raises(InfeasibleError) as exc:
        slackness_epsilon(IIDChannel(0.5, 0.5), 20, 12.0)
    assert exc.value.epsilon == pytest.approx(-0.1)
    with pytest.raises(InfeasibleError) as exc:
        slackness_epsilon(IIDChannel(1.0, 1.0), 20, 20.0)
    assert exc.value.epsilon == 0.0


def test_performance_bounds_reference_numbers():
    eps = 9 / 35
    b = performance_bounds(203.6, eps, 20, 5.0, 20)
    # (203.6 + 5*19) / (20 * 9/35), computed independently
    assert b.z_bound == pytest.approx(298.6 * 7 / 36, abs=1e-9)
    assert b.z_bound == pytest.approx(58.061, abs=1e-3)
    assert b.aoi_bound_offset == pytest.approx(2.036, abs=1e-12)


def test_performance_bounds_v_zero():
    b = performance_bounds(203.6, 0.25, 20, 0.0, 20)
    assert math.isinf(b.aoi_bound_offset)
    assert b.z_bound == pytest.approx(203.6 / 5.0)


@pytest.mark.parametrize("eps, v", [(0.0, 5.0), (-0.1, 5.0), (float("nan"), 5.0), (0.25, -1.0)])
def test_performance_bounds_need_slack_and_nonnegative_v(eps, v):
    with pytest.raises(ValueError):
        performance_bounds(203.6, eps, 20, v, 20)


def test_rate_stability_stat():
    assert rate_stability_stat(np.zeros(10_000)) == 0.0
    traj = np.zeros(100_001)
    traj[-1] = 50.0
    assert rate_stability_stat(traj) == pytest.approx(5e-4)
    t = np.arange(1000, dtype=float)
    assert rate_stability_stat(0.1 * t) == pytest.approx(0.1, rel=1e-2)
    with pytest.raises(ValueError):
        rate_stability_stat([])


def test_convergence_time_band_entry():
    # climb to a plateau of 10: mean of second half ~10, band entry at z >= 5
    z = np.concatenate([np.linspace(0, 10, 101), np.full(400, 10.0)])
    t = convergence_time(z)
    assert z[t] >= 0.5 * z[len(z) // 2 :].mean()
    assert t == 50
    # an overshooting trajectory is caught dropping through 2x the mean
    z2 = np.concatenate([np.full(50, 30.0), np.full(450, 10.0)])
    assert convergence_time(z2) == 50


def test_bounds_report_roundtrip():
    cfg = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    model = GilbertElliotChannel(0.9, 0.6, 0.9, 0.6)
    rep = bounds_report(cfg, model)
    assert rep.epsilon == pytest.approx(9 / 35)
    assert rep.drift_slot_rate == pytest.approx(203.6)
    d = rep.to_dict()
    assert set(d) == {
        "drift_frame_quota",
        "drift_slot_rate",
        "epsilon",
        "z_bound",
        "aoi_bound_offset",
        "mix_prob",
    }
    assert all(v is None or math.isfinite(v) for v in d.values())
    assert d["mix_prob"] == 0.0  # the exact solver's value


def test_bounds_report_infeasible():
    cfg = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    with pytest.raises(InfeasibleError):
        bounds_report(cfg, IIDChannel(0.9, 0.5))
