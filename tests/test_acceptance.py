"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line each (run with -s to see them as they complete).

The five full-horizon scenario runs are shared across criteria through a
module-level cache, so the whole suite costs six half-million-slot
simulations plus the randomized oracle sweep.
"""

import filecmp
import json
import math
import time

import numpy as np

from conftest import reference_cfg, reference_model, random_instance

from aoi_dpp.cli import main
from aoi_dpp.lyapunov import (
    convergence_time,
    drift_bound,
    performance_bounds,
    slackness_epsilon,
)
from aoi_dpp.oracle import brute_force_optimal, evaluate_policy_exact
from aoi_dpp.sim import PolicyKind, run_simulation
from aoi_dpp.solver import FrameSolver

HORIZON = 500_000
SEED = 1

_runs: dict = {}


def scenario_run(v: float, policy=PolicyKind.DRIFT_PLUS_PENALTY):
    """Full-horizon reference-scenario run, cached per (V, policy)."""
    key = (v, policy)
    if key not in _runs:
        t0 = time.perf_counter()
        metrics = run_simulation(reference_cfg(v), reference_model(), policy, HORIZON, SEED)
        _runs[key] = (metrics, time.perf_counter() - t0)
    return _runs[key]


def check(n: int, description: str, ok: bool) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {n}: {description}"


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_gap = worst_replay = 0.0
    for _ in range(100):
        cfg, model, state, z = random_instance(rng)
        table = FrameSolver(cfg, model).solve(z)
        dp_value = table.value(0, state)
        brute_value, _ = brute_force_optimal(state, z, cfg, model)
        worst_gap = max(worst_gap, abs(dp_value - brute_value))
        replay = evaluate_policy_exact(table, state, z, cfg, model).expected_cost
        worst_replay = max(worst_replay, abs(replay - dp_value))
    elapsed = time.perf_counter() - t0
    check(
        1,
        f"100 random instances: |DP - brute force| <= 1e-9 (worst {worst_gap:.2e}), "
        f"policy replay <= 1e-9 (worst {worst_replay:.2e}), {elapsed:.1f}s < 10s",
        worst_gap <= 1e-9 and worst_replay <= 1e-9 and elapsed < 10.0,
    )


def test_criterion_2_constraint_satisfaction():
    metrics, elapsed = scenario_run(5.0)
    delivered = metrics.delivery_mean
    stat = metrics.rate_stability
    check(
        2,
        f"V=5: deliveries/frame {delivered:.4f} >= 12 within 1%, "
        f"rate stat {stat:.2e} <= 1e-3, run {elapsed:.0f}s < 600s",
        delivered >= 12.0 * 0.99 and stat <= 1e-3 and elapsed < 600.0,
    )


def test_criterion_3_v0_behavior():
    metrics, _ = scenario_run(0.0)
    mode = 1 + int(np.argmax(metrics.aoi_histogram))
    u1_early = float(metrics.schedule_fractions[:15, 0].max())
    check(
        3,
        f"V=0: AoI histogram mode {mode} == A_max=20, "
        f"user-1 fraction in frame slots 0-14 == 0 (max {u1_early})",
        mode == 20 and u1_early == 0.0,
    )


def test_criterion_4_aoi_concentration():
    masses = {}
    for v in (5.0, 10.0, 100.0):
        metrics, _ = scenario_run(v)
        hist = metrics.aoi_histogram
        masses[v] = float(hist[:5].sum() / hist.sum())
    m5 = scenario_run(5.0)[0].mean_aoi
    m100 = scenario_run(100.0)[0].mean_aoi
    rel = abs(m5 - m100) / m5
    check(
        4,
        f"mass in [1,5]: " + ", ".join(f"V={v:g}: {m:.3f}" for v, m in masses.items())
        + f" all >= 0.70; mean AoI V=5 {m5:.3f} vs V=100 {m100:.3f} "
        f"differ {100 * rel:.2f}% < 10%",
        all(m >= 0.70 for m in masses.values()) and rel < 0.10,
    )


def test_criterion_5_convergence_speed_ordering():
    t5 = convergence_time(scenario_run(5.0)[0].z_trajectory)
    t150 = convergence_time(scenario_run(150.0)[0].z_trajectory)
    check(
        5,
        f"slots to stabilize Z within a factor 2 of its long-run mean: "
        f"V=150 takes {t150} > V=5 takes {t5}",
        t150 > t5,
    )


def test_criterion_6_performance_bound_check():
    metrics, _ = scenario_run(5.0)
    cfg = metrics.cfg
    b = drift_bound(cfg.T, cfg.q).slot_rate
    eps = slackness_epsilon(reference_model(), cfg.T, cfg.q)
    bounds = performance_bounds(b, eps, cfg.T, cfg.V, cfg.A_max)
    z_mean = float(metrics.frame_start_z[:-1].mean())
    greedy, _ = scenario_run(5.0, PolicyKind.AOI_GREEDY)
    a_opt_est = min(greedy.mean_aoi, metrics.mean_aoi)
    aoi_cap = bounds.aoi_bound_offset + a_opt_est
    check(
        6,
        f"frame-start mean Z {z_mean:.2f} <= z_bound {bounds.z_bound:.2f}; "
        f"mean AoI {metrics.mean_aoi:.3f} <= offset {bounds.aoi_bound_offset:.3f} "
        f"+ A_opt estimate {a_opt_est:.3f}",
        z_mean <= bounds.z_bound and metrics.mean_aoi <= aoi_cap,
    )


def test_criterion_7_drift_inequality():
    metrics, _ = scenario_run(5.0)
    cfg = metrics.cfg
    assert metrics.frames >= 10_000
    b = drift_bound(cfg.T, cfg.q).slot_rate
    zs = metrics.frame_start_z
    increments = 0.5 * (zs[1:] ** 2 - zs[:-1] ** 2)
    g_hat = zs[:-1] * (cfg.q - metrics.per_frame_deliveries)
    x = increments - g_hat
    mean = float(x.mean())
    se = float(x.std(ddof=1) / math.sqrt(len(x)))
    check(
        7,
        f"{metrics.frames} frames: mean Lyapunov increment minus empirical "
        f"debt-weighted shortfall {mean:.3f} <= {b} + 3*SE ({3 * se:.3f})",
        mean <= b + 3 * se,
    )


def test_criterion_8_determinism(tmp_path, monkeypatch):
    # identical invocations from two working directories, default out dir
    args = ["--preset", "fig6", "--v-list", "0 5", "--horizon", "2000",
            "--seed", "11"]
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / sub)
        assert main(args) == 0
    out_a = tmp_path / "a" / "runs"
    out_b = tmp_path / "b" / "runs"
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    mismatched = []
    for rel in files_a:
        a, b = out_a / rel, out_b / rel
        if rel.name == "summary.json":
            # wall-clock is the one legitimately nondeterministic field
            da, db = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
            da.pop("wall_clock_s"), db.pop("wall_clock_s")
            if da != db:
                mismatched.append(str(rel))
        elif not filecmp.cmp(a, b, shallow=False):
            mismatched.append(str(rel))
    check(
        8,
        f"preset rerun with the same seed: {len(files_a)} output files "
        f"byte-identical (mismatches: {mismatched or 'none'})",
        not mismatched,
    )
