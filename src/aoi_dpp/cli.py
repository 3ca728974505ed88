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
from collections.abc import Callable, Iterable, Sequence
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


#: Rows formatted and written at a time when writing a table; whole 100k-slot
#: columns would raise the peak memory of a run.
BLOCK_ROWS = 4096

#: Distinct floats that a float column's memo holds (see `_float_encoder`).
FLOAT_MEMO = 4096

POLICY_DUMP = "policy_frame0.csv"


def _texts(strings: Iterable[str]) -> np.ndarray:
    """ASCII strings as the rows of a uint8 matrix, each padded with NULs to
    the longest."""
    return _chars(np.array([s.encode("ascii") for s in strings], dtype=bytes))


def _chars(texts: np.ndarray) -> np.ndarray:
    """A bytes array as the rows of a uint8 matrix."""
    return texts.view(np.uint8).reshape(texts.size, texts.itemsize)


def _digit_groups() -> np.ndarray:
    """The 3-digit groups 0..999 as uint8 rows of a NUL and three digits,
    three times over: rows 0-999 zero-filled ("007"), for a group with a
    nonzero group left of it; rows 1000-1999 with their leading zeros NUL
    and 0 all NUL, for a number's leading groups; rows 2000-2999 likewise,
    but with 0 as "0", for a number's last group."""
    n = np.arange(1000)[:, None]
    places = np.array([1000, 100, 10, 1])
    digits = np.where(places < 1000, n // places % 10 + ord("0"), 0)
    leading = np.where(n < places, 0, digits)
    last = leading.copy()
    last[0, -1] = ord("0")
    return np.concatenate([digits, leading, last]).astype(np.uint8)


_GROUPS = _digit_groups()

#: A table column (see `_write_table`): a separator; a `range` of ints, such
#: as the row numbers; an array of non-negative ints or of floats; or a
#: lookup, a `_texts` table with its row indices as an array or as a
#: function of the block's row numbers.
_Column = (bytes | range | np.ndarray
           | tuple[np.ndarray, np.ndarray | Callable[[np.ndarray], np.ndarray]])

#: A column's encoder: the width of its widest row, and the function that
#: encodes the rows of a block, given their row numbers.
_Encoder = tuple[int, Callable[[np.ndarray], np.ndarray]]


def _int_encoder(top: int, values: Callable[[np.ndarray], np.ndarray]) -> _Encoder:
    """Encoder of the ints `values(rows)`, each in 0..top, as `str` writes
    them, right-aligned with NULs. Below 1,000 each value is a row of one
    lookup table of 0..top. Above, a value is split into 3-digit groups, and
    each group is a row of `_GROUPS`, taken four bytes at a time."""
    width = len(str(top))
    if top < 1000:
        table = _GROUPS[2000:2001 + top, 4 - width:].copy()
        return width, lambda rows: table.take(values(rows), axis=0)
    groups = -(-width // 3)
    words = _GROUPS.view(np.uint32).reshape(-1)

    def encode(rows: np.ndarray) -> np.ndarray:
        index = np.empty((rows.size, groups), dtype=np.intp)
        rest = values(rows)
        for g in range(groups - 1, 0, -1):
            rest, index[:, g] = np.divmod(rest, 1000)
            index[:, g] += (rest == 0) * (2000 if g == groups - 1 else 1000)
        index[:, 0] = rest + 1000
        return words.take(index).view(np.uint8)

    return 4 * groups, encode


def _float_encoder(values: np.ndarray) -> _Encoder:
    """Encoder of floats as `repr` writes them, left-aligned with NULs.

    Each distinct 64-bit pattern is formatted once per table, not once per
    block: comparing bits, not values, keeps 0.0 apart from -0.0 and lets a
    NaN find itself. The memo holds the patterns sorted, with their texts.
    A block whose new patterns would take it past FLOAT_MEMO entries clears
    it first and refills it with its own, so a column of distinct floats
    holds one block's texts, never a horizon's."""
    keys = np.empty(0, dtype=np.int64)
    texts = np.empty(0, dtype="S24")  # '-2.2250738585072014e-308' is a longest repr

    def encode(rows: np.ndarray) -> np.ndarray:
        nonlocal keys, texts
        bits = values[rows].view(np.int64)
        at = keys.searchsorted(bits)
        missing = bits[keys.take(at, mode="clip") != bits] if keys.size else bits
        if missing.size:
            new = _distinct(missing)
            if keys.size + new.size > FLOAT_MEMO:
                keys, texts, new = keys[:0], texts[:0], _distinct(bits)
            keys = np.concatenate([keys, new])
            reprs = map(str.encode, map(repr, new.view(np.float64).tolist()))
            texts = np.concatenate([texts, np.fromiter(reprs, texts.dtype, new.size)])
            order = keys.argsort()
            keys, texts = keys[order], texts[order]
            at = keys.searchsorted(bits)
        return _chars(texts.take(at))

    return texts.itemsize, encode


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, sorted (`np.unique` hashes, and
    is slower on a block)."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _encoder(column: _Column) -> _Encoder:
    """The encoder of one column, set up once per table."""
    if isinstance(column, bytes):
        rows_of = np.broadcast_to(np.frombuffer(column, np.uint8), (BLOCK_ROWS, len(column)))
        return len(column), lambda rows: rows_of[:rows.size]
    if isinstance(column, tuple):
        table, index = column
        pick = index if callable(index) else index.__getitem__
        return table.shape[1], lambda rows: table.take(pick(rows), axis=0)
    if isinstance(column, range):
        return _int_encoder(column[-1] if column else 0,
                            lambda rows: column.start + column.step * rows)
    if column.dtype.kind == "f":
        return _float_encoder(np.asarray(column, dtype=np.float64))
    return _int_encoder(int(column.max(initial=0)), column.__getitem__)


def _write_table(path: Path, head: str, n: int = 0, columns: Sequence[_Column] = (),
                 thin: int = 1) -> Path:
    """Write an artifact file: the `head` line (a CSV header, or the whole
    summary.json), then every `thin`-th of table rows 0..n-1.

    Each column gets one encoder (`_encoder`) for the whole table, so a
    separator, an int column's lookup table and a float column's memo are
    set up once, not once per block. Rows are then written a block of at
    most BLOCK_ROWS at a time: each encoder gives the block's column as one
    NUL-padded uint8 row per table row, the columns are copied side by side
    into a buffer the table reuses, and every NUL is dropped. No artifact
    holds a NUL, so the bytes are those of formatting each row on its own,
    with ints as `str` and floats as `repr`, the shortest round-trip form."""
    encoders = [_encoder(column) for column in columns]
    step = BLOCK_ROWS * thin
    most = min(BLOCK_ROWS, len(range(0, n, thin)))
    width = sum(width for width, _ in encoders)
    buffer = bytearray(most * width)
    text = np.frombuffer(buffer, dtype=np.uint8).reshape(most, width)
    with path.open("wb") as fh:
        fh.write(head.encode("utf-8") + b"\n")
        for start in range(0, n, step):
            rows = np.arange(start, min(start + step, n), thin)
            block = text[:rows.size]
            np.concatenate([encode(rows) for _, encode in encoders], axis=1, out=block)
            used = buffer if block.size == len(buffer) else buffer[:block.size]
            fh.write(used.translate(None, b"\0"))
    return path


#: The action labels, indexed by action.
_ACTIONS = _texts(ACTION_LABELS)

#: The `action,d1,d2\n` tail of a slots.csv row, indexed by 4*action + 2*d1 + d2.
_SLOT_TAILS = _texts(f"{label},{d1},{d2}\n" for label in ACTION_LABELS
                     for d1 in (0, 1) for d2 in (0, 1))


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
    table, to copy. Every table goes through `_write_table`."""
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    out = Path(out_dir)
    m = metrics
    hist = m.aoi_histogram
    fractions = m.schedule_fractions

    def slot_tails(rows: np.ndarray) -> np.ndarray:
        return 4 * m.actions[rows] + 2 * m.d1[rows] + m.d2[rows]

    try:
        out.mkdir(parents=True, exist_ok=True)
        paths = [
            _write_table(out / "slots.csv", "t,A,Z,action,d1,d2", m.horizon_slots, (
                range(m.horizon_slots), b",", m.aoi, b",", m.z_trajectory, b",",
                (_SLOT_TAILS, slot_tails)), thin=thin),
            _write_table(out / "frames.csv", "frame_index,deliveries,Z_at_frame_start", m.frames, (
                range(m.frames), b",", m.per_frame_deliveries, b",", m.frame_start_z, b"\n")),
            _write_table(out / "aoi_hist.csv", "aoi_value,count,fraction", hist.size, (
                range(1, hist.size + 1), b",", hist, b",", hist / hist.sum(), b"\n")),
            _write_table(out / "sched_fractions.csv", "slot_in_frame,frac_u1,frac_u2,frac_idle",
                         m.cfg.T, (range(m.cfg.T), b",", fractions[:, 0], b",",
                                   fractions[:, 1], b",", fractions[:, 2], b"\n")),
            _write_table(out / "summary.json",
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
    """Frame-0 policy table (solved at Z = 0), for debugging: one row per
    (slot, state), slot-major; h1 and h2 are empty for i.i.d. links."""
    space, T = table.space, table.cfg.T
    aoi, queue, mem = (np.tile(part, T) for part in (space.aoi, space.queue, space.mem))
    memories = _texts(",".join(map(str, pair or ("", ""))) for pair in space.memories)
    actions = table.actions.reshape(-1)
    return _write_table(
        out / POLICY_DUMP, "slot,aoi,queue,h1,h2,action,value", T * space.n_states, (
            np.repeat(np.arange(T), space.n_states), b",", aoi, b",", queue, b",",
            (memories, mem), b",", (_ACTIONS, actions), b",",
            table.values[:T].reshape(-1), b"\n",
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
        bounds = lyapunov.bounds_report(frame_cfg, cfg.channel)
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
    _write_table(out_root / "aoi_vs_v.csv", "V,seed,mean_aoi", len(summaries), (
        np.array([s.V for s in summaries], dtype=float), b",",
        np.array([s.seed for s in summaries], dtype=np.int64), b",",
        np.array([s.mean_aoi for s in summaries], dtype=float), b"\n",
    ))
    pooled: dict[float, list[float]] = {}
    for s in summaries:
        pooled.setdefault(s.V, []).append(s.mean_aoi)
    pooled = dict(sorted(pooled.items()))
    _write_table(out_root / "aoi_vs_v_pooled.csv", "V,mean_aoi,n_seeds", len(pooled), (
        np.array(list(pooled), dtype=float), b",",
        np.array([sum(means) / len(means) for means in pooled.values()], dtype=float), b",",
        np.array([len(means) for means in pooled.values()], dtype=np.int64), b"\n",
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
        # Imported here, so that a sequential run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

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
