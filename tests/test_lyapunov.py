import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_cfg, reference_model

from aoi_dpp.channel import GilbertElliotChannel, IIDChannel
from aoi_dpp.lyapunov import (
    InfeasibleError,
    bounds_report,
    convergence_time,
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
    b = bounds_report(reference_cfg(5.0), reference_model())
    assert b["drift_frame_quota"] == pytest.approx(1630.0, abs=1e-9)
    assert b["drift_slot_rate"] == pytest.approx(203.6, abs=1e-9)


def test_drift_bound_degenerate():
    b = bounds_report(FrameConfig(T=1, K=1, q=0.0, A_max=2, V=1.0), IIDChannel(0.5, 0.5))
    assert b["drift_frame_quota"] == 0.0
    assert b["drift_slot_rate"] == pytest.approx(0.5)  # the d2^2 <= 1 term survives


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
    b = bounds_report(reference_cfg(5.0), reference_model())
    # (203.6 + 5*19) / (20 * 9/35), computed independently
    assert b["z_bound"] == pytest.approx(298.6 * 7 / 36, abs=1e-9)
    assert b["z_bound"] == pytest.approx(58.061, abs=1e-3)
    assert b["aoi_bound_offset"] == pytest.approx(2.036, abs=1e-12)


def test_performance_bounds_v_zero():
    b = bounds_report(reference_cfg(0.0), reference_model())
    assert b["aoi_bound_offset"] is None  # infinite
    assert b["z_bound"] == pytest.approx(203.6 / (20 * 9 / 35))


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


#: float.hex of every bounds_report value. A reordered float expression
#: changes a summary.json byte, and fails here.
BOUNDS_HEX = {
    "reference-V0": ("0x1.9780000000000p+10", "0x1.9733333333333p+7",
                     "0x1.0750750750753p-2", "0x1.3cb60b60b60b3p+5", None, "0x0.0p+0"),
    "reference-V5": ("0x1.9780000000000p+10", "0x1.9733333333333p+7",
                     "0x1.0750750750753p-2", "0x1.d07d27d27d279p+5",
                     "0x1.049ba5e353f7dp+1", "0x0.0p+0"),
    "reference-V150": ("0x1.9780000000000p+10", "0x1.9733333333333p+7",
                       "0x1.0750750750753p-2", "0x1.28e0b60b60b5dp+9",
                       "0x1.15fb5b9d265dap-4", "0x0.0p+0"),
    "iid": ("0x1.3428f5c28f5c3p+2", "0x1.2ce81b4e81b4fp+2", "0x1.5555555555553p-2",
            "0x1.4681b4e81b4ecp+2", "0x1.f582d82d82d82p+3", "0x0.0p+0"),
}

BOUNDS_CASES = {
    "reference-V0": (reference_cfg(0.0), reference_model()),
    "reference-V5": (reference_cfg(5.0), reference_model()),
    "reference-V150": (reference_cfg(150.0), reference_model()),
    # chosen so that regrouping any of the bounds' float expressions shows
    "iid": (FrameConfig(T=3, K=2, q=1.1, A_max=5, V=0.1), IIDChannel(0.9, 0.7)),
}


@pytest.mark.parametrize("case", sorted(BOUNDS_CASES))
def test_bounds_report_pins_every_value(case):
    b = bounds_report(*BOUNDS_CASES[case])
    assert list(b) == ["drift_frame_quota", "drift_slot_rate", "epsilon",
                       "z_bound", "aoi_bound_offset", "mix_prob"]
    assert tuple(None if v is None else float.hex(v) for v in b.values()) == BOUNDS_HEX[case]


def test_bounds_report_roundtrip():
    # the report is the summary.json block: strict JSON, no Infinity or NaN
    for cfg, model in BOUNDS_CASES.values():
        b = bounds_report(cfg, model)
        assert json.loads(json.dumps(b, allow_nan=False)) == b


def test_bounds_report_infeasible():
    cfg = FrameConfig(T=20, K=15, q=12.0, A_max=20, V=5.0)
    with pytest.raises(InfeasibleError):
        bounds_report(cfg, IIDChannel(0.9, 0.5))
