"""Experiment runner CLI: presets or config files in, CSV/JSON artifacts out.

Per (V, seed) cell the runner writes slots.csv, frames.csv, aoi_hist.csv,
sched_fractions.csv and summary.json into its own subdirectory, then
aggregates a mean-AoI-vs-V table at the output root. AOI_DPP_THREADS, an
integer >= 0, asks for a worker pool (0, 1 or unset = sequential); the pool
never exceeds the number of cells or of CPUs.

The cells run as tasks, inline or in the pool: inline, one task per V runs
its seeds in order; in a pool, each V's seeds are split into one contiguous
run per worker (at least one seed each). The controller cells of a task
share one `sim.FrameTables`, so each frame table is solved once per task
rather than once per cell; with --dump-policy the task's first cell formats
its frame-0 table as policy_frame0.csv and the others copy the file. The
artifacts are the same bytes however the seeds are split; only the
`diagnostics` block of summary.json, which counts how the cell found its
frame tables, depends on the split.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import lyapunov
from ._kernels import BACKEND
from .config import (
    ExperimentConfig,
    load_config,
    parse_v_list,
    preset,
    v_dir,
    with_overrides,
)
from .model import ACTION_LABELS
from .sim import FrameTables, Metrics, PolicyKind, run_simulation
from .solver import PolicyTable


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
    #: Metrics.diagnostics: nondeterministic across sharing, like wall_clock_s.
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    def line(self) -> str:
        return (
            f"V={self.V:g} seed={self.seed} mean_aoi={self.mean_aoi:.4f} "
            f"deliveries/frame={self.per_frame_delivery_mean:.4f} "
            f"rate_stat={self.rate_stability_stat:.3e}"
        )


#: Rows converted from NumPy to Python objects, formatted and written at a
#: time when writing a long table; whole 100k-slot columns would raise the
#: peak memory of a run.
BLOCK_ROWS = 1024

POLICY_DUMP = "policy_frame0.csv"

#: The `action,d1,d2\n` tail of a slots.csv row, indexed by 4*action + 2*d1 + d2.
_SLOT_TAILS = tuple(f"{label},{d1},{d2}\n" for label in ACTION_LABELS
                    for d1 in (0, 1) for d2 in (0, 1))


class _TailCodes:
    """The _SLOT_TAILS index of a run's slots, computed for the rows asked for."""

    def __init__(self, metrics: Metrics):
        self.metrics = metrics

    def __getitem__(self, rows: slice) -> np.ndarray:
        m = self.metrics
        return 4 * m.actions[rows] + 2 * m.d1[rows] + m.d2[rows]


class _Reprs(dict):
    """float -> repr(float), filled on first lookup. Zeros and NaN are never
    stored: 0.0 == -0.0 though their reprs differ, and NaN never finds itself.
    Make one per block, so it holds at most one block's distinct values."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x and x == x:
            self[x] = text
        return text


def _write(path: Path, head: str, blocks: Iterable[str] = ()) -> Path:
    """Write one artifact file: UTF-8 with `\\n` newlines, `head` (a CSV header,
    or the whole summary.json) and a newline, then each of `blocks` with one
    `write` call. A block is the text of consecutive table rows (at most
    BLOCK_ROWS, or one slot of the policy dump), each ending in a newline,
    joined into one string. Rows write floats as `repr`, the shortest
    round-trip form."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + "\n")
        fh.writelines(blocks)
    return path


def _column_blocks(n: int, *columns: np.ndarray, thin: int = 1) -> Iterator[tuple]:
    """(row indices, list of each column's values) for each block of at most
    BLOCK_ROWS of every `thin`-th of the first n rows. A column is an array,
    or any object whose slices are arrays."""
    step = BLOCK_ROWS * thin
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n), thin)
        yield (range(n)[rows], *(col[rows].tolist() for col in columns))


def emit_outputs(
    metrics: Metrics,
    summary: RunSummary,
    out_dir: str | Path,
    thin: int = 1,
    policy: PolicyTable | Path | None = None,
) -> list[Path]:
    """Write the per-cell artifact files, plus policy_frame0.csv when given a
    `policy`; returns the paths written. The `policy` is the run's frame-0
    table, to format, or an earlier cell's policy_frame0.csv of the same
    table, to copy.

    Tables are formatted a block of BLOCK_ROWS rows at a time, each block
    joined into one string and written in one call. The Z columns of
    slots.csv and frames.csv repeat values, so each block formats them
    through a fresh `_Reprs` memo; its size is bounded by the block, never by
    the horizon. The action, d1 and d2 fields of a slots.csv row come from
    one tuple lookup. The bytes are those of formatting every row on its own.
    """
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    out = Path(out_dir)
    hist = metrics.aoi_histogram
    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = [
            _write(out / "slots.csv", "t,A,Z,action,d1,d2", (
                "".join([
                    f"{t},{aoi},{reprs[z]},{_SLOT_TAILS[c]}"
                    for t, aoi, z, c in zip(rows, aois, zs, codes)
                ])
                for rows, aois, zs, codes in _column_blocks(
                    metrics.horizon_slots, metrics.aoi, metrics.z_trajectory,
                    _TailCodes(metrics), thin=thin,
                )
                for reprs in (_Reprs(),)
            )),
            _write(out / "frames.csv", "frame_index,deliveries,Z_at_frame_start", (
                "".join([f"{m},{d},{reprs[z]}\n" for m, d, z in zip(rows, ds, zs)])
                for rows, ds, zs in _column_blocks(
                    metrics.frames, metrics.per_frame_deliveries, metrics.frame_start_z
                )
                for reprs in (_Reprs(),)
            )),
            _write(out / "aoi_hist.csv", "aoi_value,count,fraction", (
                "".join([f"{i + 1},{count},{frac!r}\n"
                         for i, count, frac in zip(rows, counts, fracs)])
                for rows, counts, fracs in _column_blocks(hist.size, hist, hist / hist.sum())
            )),
            _write(out / "sched_fractions.csv", "slot_in_frame,frac_u1,frac_u2,frac_idle", (
                "".join([f"{j},{u1!r},{u2!r},{idle!r}\n"
                         for j, u1, u2, idle in zip(*block)])
                for block in _column_blocks(metrics.cfg.T, *metrics.schedule_fractions.T)
            )),
            _write(out / "summary.json",
                   json.dumps(summary.to_dict(), indent=2, sort_keys=True)),
        ]
        if isinstance(policy, PolicyTable):
            paths.append(_write_policy_dump(policy, out))
        elif policy is not None:
            paths.append(Path(shutil.copyfile(policy, out / POLICY_DUMP)))
        return paths
    except OSError as err:
        raise OSError(f"writing outputs under {out}: {err}") from err


def _write_policy_dump(table: PolicyTable, out: Path) -> Path:
    """Frame-0 policy table (solved at Z = 0), for debugging. Each slot of the
    table is one block: its rows are joined into one string, and its values
    are formatted through a fresh `_Reprs` memo: at Z = 0 they repeat across
    queue levels (about 55 distinct values among the reference scenario's
    1,280 states per slot)."""
    # "aoi,queue,h1,h2,action," of every state, for each action
    prefixes = []
    for state in table.space.states():
        h1, h2 = state.channel_mem or ("", "")
        prefixes.append(
            [f"{state.aoi},{state.queue},{h1},{h2},{label}," for label in ACTION_LABELS]
        )
    return _write(out / POLICY_DUMP, "slot,aoi,queue,h1,h2,action,value", (
        "".join([f"{slot},{prefix[a]}{reprs[v]}\n"
                 for prefix, a, v in zip(prefixes, actions, table.values[slot].tolist())])
        for slot, actions in enumerate(table.actions.tolist())
        for reprs in (_Reprs(),)
    ))


def _cell_dir(out_root: str | Path, v: float, seed: int) -> Path:
    return Path(out_root) / f"{v_dir(v)}_seed{seed}"


def _run_seeds(cfg: ExperimentConfig, v: float, seeds: list[int], out_root: str,
               thin: int, dump_policy: bool) -> list[RunSummary]:
    """Run the cells (v, seed) of `seeds`, in order, and write their
    artifacts. Worker-safe. The cells share one bounds report and, under the
    controller, one FrameTables; with `dump_policy` the first cell formats
    its `frame0` table as the policy dump and the others copy that file."""
    frame_cfg = cfg.frame_config(v)
    try:
        bounds = lyapunov.bounds_report(frame_cfg, cfg.channel).to_dict()
    except lyapunov.InfeasibleError:
        bounds = None
    tables = (FrameTables(frame_cfg, cfg.channel)
              if cfg.policy == PolicyKind.DRIFT_PLUS_PENALTY else None)
    policy = tables.frame0 if dump_policy and tables is not None else None
    summaries = []
    for seed in seeds:
        t0 = time.perf_counter()
        metrics = run_simulation(
            frame_cfg,
            cfg.channel,
            cfg.policy,
            cfg.horizon_slots,
            seed,
            warmup_slots=cfg.warmup_slots,
            z_cache_bucket=cfg.z_cache_bucket,
            tables=tables,
        )
        if seed == seeds[-1]:
            tables = None  # free the memo; `policy` keeps the dump's table
        summary = RunSummary(
            config=cfg.echo(),
            V=v,
            seed=seed,
            frames=metrics.frames,
            mean_aoi=metrics.mean_aoi,
            per_frame_delivery_mean=metrics.delivery_mean,
            rate_stability_stat=metrics.rate_stability,
            bounds=bounds,
            warnings=list(metrics.warnings),
            wall_clock_s=time.perf_counter() - t0,
            diagnostics=metrics.diagnostics,
        )
        cell = _cell_dir(out_root, v, seed)
        emit_outputs(metrics, summary, cell, thin=thin, policy=policy)
        if isinstance(policy, PolicyTable):
            policy = cell / POLICY_DUMP
        del metrics  # before the next cell allocates its own
        summaries.append(summary)
    return summaries


def _write_aoi_tables(summaries: list[RunSummary], out_root: Path) -> None:
    _write(out_root / "aoi_vs_v.csv", "V,seed,mean_aoi", (
        f"{s.V!r},{s.seed},{s.mean_aoi!r}\n" for s in summaries
    ))
    pooled: dict[float, list[float]] = {}
    for s in summaries:
        pooled.setdefault(s.V, []).append(s.mean_aoi)
    _write(out_root / "aoi_vs_v_pooled.csv", "V,mean_aoi,n_seeds", (
        f"{v!r},{sum(means) / len(means)!r},{len(means)}\n"
        for v, means in sorted(pooled.items())
    ))


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


def _requested_workers() -> int:
    raw = os.environ.get("AOI_DPP_THREADS", "").strip() or "0"
    if not raw.isdecimal():
        raise ValueError(f"AOI_DPP_THREADS: must be an integer >= 0, got {raw!r}")
    return int(raw)


def run_cli(args: argparse.Namespace) -> int:
    try:
        if args.thin < 1:
            raise ValueError(f"--thin must be >= 1, got {args.thin}")
        requested = _requested_workers()
        cfg = preset(args.preset) if args.preset else load_config(args.config)
        cfg = with_overrides(
            cfg,
            seed=args.seed,
            horizon=args.horizon,
            out_dir=args.out,
            v_list=None if args.v_list is None else parse_v_list(args.v_list),
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    # Feasibility depends on the channel, T and q only, not on V.
    try:
        lyapunov.slackness_epsilon(cfg.channel, cfg.T, cfg.q)
    except lyapunov.InfeasibleError:
        msg = (
            f"delivery target q={cfg.q:g} has no slackness certificate for this channel"
        )
        if args.strict_feasibility:
            print(f"error: {msg}", file=sys.stderr)
            return 2
        print(f"warning: {msg}; running anyway", file=sys.stderr)

    out_root = Path(cfg.out_dir or "runs")
    try:
        out_root.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: out_dir: {err}", file=sys.stderr)
        return 1
    cells = cfg.cells()
    workers = min(requested, len(cells), os.cpu_count() or 1)
    # The seeds of each V, in contiguous runs: one per V inline, one per
    # worker in a pool, so each V's work spreads over every worker however
    # much it costs.
    runs = max(1, min(workers, cfg.replications))
    seeds = np.arange(cfg.seed, cfg.seed + cfg.replications)
    tasks = [(cfg, v, part.tolist(), str(out_root), args.thin, args.dump_policy)
             for v in cfg.V for part in np.array_split(seeds, runs)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_seeds, *task) for task in tasks]
            results = [f.result() for f in futures]
    else:
        results = [_run_seeds(*task) for task in tasks]
    summaries = [summary for result in results for summary in result]

    for summary in summaries:
        print(summary.line())
    _write_aoi_tables(summaries, out_root)
    print(f"wrote {len(cells)} run(s) under {out_root} (kernel backend: {BACKEND})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_cli(args)


if __name__ == "__main__":
    raise SystemExit(main())
