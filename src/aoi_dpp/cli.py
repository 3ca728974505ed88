"""Experiment runner CLI: presets or config files in, CSV/JSON artifacts out.

Per (V, seed) cell the runner writes slots.csv, frames.csv, aoi_hist.csv,
sched_fractions.csv and summary.json into its own subdirectory, then
aggregates a mean-AoI-vs-V table at the output root. AOI_DPP_THREADS caps the
worker pool (0 or unset = sequential).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import lyapunov
from ._kernels import BACKEND
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    preset,
    with_overrides,
)
from .model import ACTION_LABELS, Action
from .sim import Metrics, PolicyKind, run_simulation
from .solver import FrameSolver


@dataclass
class RunSummary:
    """One cell's aggregate results, serialized as summary.json."""

    config: dict
    V: float
    seed: int
    frames: int
    mean_aoi: float
    per_frame_delivery_mean: float
    rate_stability_stat: float
    bounds: dict | None
    warnings: list[str]
    wall_clock_s: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def line(self) -> str:
        return (
            f"V={self.V:g} seed={self.seed} mean_aoi={self.mean_aoi:.4f} "
            f"deliveries/frame={self.per_frame_delivery_mean:.4f} "
            f"rate_stat={self.rate_stability_stat:.3e}"
        )


def emit_outputs(
    metrics: Metrics,
    summary: RunSummary,
    out_dir: str | Path,
    thin: int = 1,
) -> list[Path]:
    """Write the per-cell artifact files; returns the paths written."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = [
            _write_slots(metrics, out / "slots.csv", thin),
            _write_frames(metrics, out / "frames.csv"),
            _write_hist(metrics, out / "aoi_hist.csv"),
            _write_fractions(metrics, out / "sched_fractions.csv"),
            _write_summary(summary, out / "summary.json"),
        ]
    except OSError as err:
        raise OSError(f"writing outputs under {out}: {err}") from err
    return paths


def _write_slots(metrics: Metrics, path: Path, thin: int) -> Path:
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,A,Z,action,d1,d2\n")
        for t in range(0, metrics.horizon_slots, thin):
            fh.write(
                f"{t},{metrics.aoi[t]},{float(metrics.z_trajectory[t])!r},"
                f"{ACTION_LABELS[Action(metrics.actions[t])]},"
                f"{metrics.d1[t]},{metrics.d2[t]}\n"
            )
    return path


def _write_frames(metrics: Metrics, path: Path) -> Path:
    z_starts = metrics.frame_start_z
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame_index,deliveries,Z_at_frame_start\n")
        for m in range(metrics.frames):
            fh.write(f"{m},{metrics.per_frame_deliveries[m]},{float(z_starts[m])!r}\n")
    return path


def _write_hist(metrics: Metrics, path: Path) -> Path:
    total = metrics.aoi_histogram.sum()
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("aoi_value,count,fraction\n")
        for value, count in enumerate(metrics.aoi_histogram, start=1):
            fh.write(f"{value},{count},{float(count / total)!r}\n")
    return path


def _write_fractions(metrics: Metrics, path: Path) -> Path:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot_in_frame,frac_u1,frac_u2,frac_idle\n")
        for j in range(metrics.cfg.T):
            u1, u2, idle = (float(x) for x in metrics.schedule_fractions[j])
            fh.write(f"{j},{u1!r},{u2!r},{idle!r}\n")
    return path


def _write_summary(summary: RunSummary, path: Path) -> Path:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_policy_dump(cfg, model, out: Path) -> Path:
    """Frame-0 policy table (solved at Z = 0), for debugging."""
    table = FrameSolver(cfg, model).solve(0.0)
    path = out / "policy_frame0.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("slot,aoi,queue,h1,h2,action,value\n")
        for slot, state, action, value in table.rows():
            h1, h2 = state.channel_mem if state.channel_mem else ("", "")
            fh.write(
                f"{slot},{state.aoi},{state.queue},{h1},{h2},"
                f"{ACTION_LABELS[action]},{value!r}\n"
            )
    return path


def _cell_bounds(cfg: ExperimentConfig, v: float) -> dict | None:
    try:
        return lyapunov.bounds_report(cfg.frame_config(v), cfg.channel).to_dict()
    except lyapunov.InfeasibleError:
        return None


def _run_cell(cfg: ExperimentConfig, v: float, seed: int, out_root: str,
              thin: int, dump_policy: bool) -> tuple[float, int, float, str]:
    """Run one (V, seed) cell and write its artifacts. Worker-safe."""
    t0 = time.perf_counter()
    frame_cfg = cfg.frame_config(v)
    metrics = run_simulation(
        frame_cfg,
        cfg.channel,
        cfg.policy,
        cfg.horizon_slots,
        seed,
        warmup_slots=cfg.warmup_slots,
        z_cache_bucket=cfg.z_cache_bucket,
    )
    summary = RunSummary(
        config=cfg.echo(),
        V=v,
        seed=seed,
        frames=metrics.frames,
        mean_aoi=metrics.mean_aoi,
        per_frame_delivery_mean=metrics.delivery_mean,
        rate_stability_stat=metrics.rate_stability,
        bounds=_cell_bounds(cfg, v),
        warnings=list(metrics.warnings),
        wall_clock_s=time.perf_counter() - t0,
    )
    cell_dir = Path(out_root) / f"V{v:g}_seed{seed}"
    emit_outputs(metrics, summary, cell_dir, thin=thin)
    if dump_policy and cfg.policy == PolicyKind.DRIFT_PLUS_PENALTY:
        _write_policy_dump(frame_cfg, cfg.channel, cell_dir)
    return v, seed, metrics.mean_aoi, summary.line()


def _write_aoi_tables(results: list[tuple[float, int, float]], out_root: Path) -> None:
    with (out_root / "aoi_vs_v.csv").open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("V,seed,mean_aoi\n")
        for v, seed, mean_aoi in results:
            fh.write(f"{v!r},{seed},{mean_aoi!r}\n")
    pooled: dict[float, list[float]] = {}
    for v, _, mean_aoi in results:
        pooled.setdefault(v, []).append(mean_aoi)
    with (out_root / "aoi_vs_v_pooled.csv").open(
        "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write("V,mean_aoi,n_seeds\n")
        for v in sorted(pooled):
            means = pooled[v]
            fh.write(f"{v!r},{sum(means) / len(means)!r},{len(means)}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-dpp",
        description="Run AoI-vs-deadline scheduling experiments and write CSV/JSON artifacts.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="experiment config file")
    source.add_argument(
        "--preset",
        metavar="NAME",
        help="built-in scenario: fig4a, fig4bc, fig5, fig6, fig7",
    )
    parser.add_argument("--seed", type=int, help="base seed override")
    parser.add_argument("--horizon", type=int, help="horizon override, in slots")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: runs)")
    parser.add_argument(
        "--v-list", metavar="VALUES", help='override V values, e.g. "0 5 10"'
    )
    parser.add_argument(
        "--thin", type=int, default=1, metavar="N", help="write every Nth slots.csv row"
    )
    parser.add_argument(
        "--strict-feasibility",
        action="store_true",
        help="exit 2 when the delivery target has no slackness certificate",
    )
    parser.add_argument(
        "--dump-policy",
        action="store_true",
        help="also dump the frame-0 policy table per cell",
    )
    return parser


def run_cli(args: argparse.Namespace) -> int:
    try:
        if args.thin < 1:
            raise ValueError(f"--thin must be >= 1, got {args.thin}")
        cfg = preset(args.preset) if args.preset else load_config(args.config)
        v_list = None
        if args.v_list is not None:
            v_list = tuple(float(tok) for tok in args.v_list.replace(",", " ").split())
            if not v_list:
                raise ConfigError("empty value", "V")
        cfg = with_overrides(
            cfg,
            seed=args.seed,
            horizon=args.horizon,
            out_dir=args.out,
            v_list=v_list,
        )
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    infeasible = [v for v in cfg.V if _cell_bounds(cfg, v) is None]
    if infeasible:
        msg = (
            f"delivery target q={cfg.q:g} has no slackness certificate for this channel"
        )
        if args.strict_feasibility:
            print(f"error: {msg}", file=sys.stderr)
            return 2
        print(f"warning: {msg}; running anyway", file=sys.stderr)

    out_root = Path(cfg.out_dir or "runs")
    out_root.mkdir(parents=True, exist_ok=True)
    cells = cfg.cells()
    workers = int(os.environ.get("AOI_DPP_THREADS", "0") or 0)
    results: list[tuple[float, int, float, str]] = []
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_cell, cfg, v, seed, str(out_root), args.thin,
                            args.dump_policy)
                for v, seed in cells
            ]
            results = [f.result() for f in futures]
    else:
        for v, seed in cells:
            results.append(
                _run_cell(cfg, v, seed, str(out_root), args.thin, args.dump_policy)
            )

    for _, _, _, line in results:
        print(line)
    _write_aoi_tables([(v, s, m) for v, s, m, _ in results], out_root)
    print(f"wrote {len(cells)} run(s) under {out_root} (kernel backend: {BACKEND})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cli(args)


if __name__ == "__main__":
    raise SystemExit(main())
