#!/usr/bin/env python3
"""End-to-end benchmark of the aoi-dpp experiment runner.

    python3 perfbench/run.py --workload dpp_sweep --seed 3 --seconds 30 --trace 0

Run from the repository root. Each workload is a real CLI invocation, made
in-process through `aoi_dpp.cli.main(argv)` with the sources under `src`,
repeated back to back (one client, closed loop, sequential cells:
AOI_DPP_THREADS is unset) until `--seconds` have passed. After every call
each output file is hashed and compared with the reference digest recorded
in `perfbench/digests/<workload>.json`; a cell whose files differ, or whose
call raised, counts as failed.

Workloads (the input sizes are per CLI call):

* dpp_sweep: `--preset fig4bc --horizon 3000`, 5 cells (V in 0, 5, 10, 100,
  150) of 150 frames. The paper's figure sweep, shortened; the frame DP
  kernel does most of the work, so solver and kernel changes show here.
* baseline_long: the reference Gilbert-Elliot scenario under the
  deadline_first baseline, 4 replications of 100,000 slots. No solver runs;
  the per-slot loop and the CSV emission do the work, so loop and emission
  changes show here and solver changes must not.
* short_cells: `--preset fig4a --horizon 400 --dump-policy --v-list "0 150"`,
  10 cells of 20 frames plus one policy dump each. Solver construction and
  dump formatting dominate, so work moved into per-build set-up, or cost
  added to each solve that only pays off over many frames, shows here as a
  loss.

The `--seed n` argument selects CLI seed 1 + n mod 10, so every input has a
reference digest; `--held-out` runs CLI seed 101 instead, kept aside for
validating later claims.

With `--trace 0` the last line reports the end-to-end metrics:

* slots_per_s: simulated slots (cells x horizon) over the wall time of one
  whole CLI call, median over the calls of the run.
* setup_s: wall time for a fresh interpreter to import aoi_dpp.cli, median
  of one cold start after each call.

  Both are host-speed normalised: each sample is divided by the host factor
  that probes timed just before and after it report (probe.py), because the
  shared host drifts by more than the changes these metrics must resolve.
  The plain wall-clock medians are printed above the result line.
* peak_rss_mb: peak resident memory of this process (RUSAGE_SELF), which ran
  only this workload.
* ok_frac: 1 - fail_frac, the share of attempted cells that ran and matched
  the reference. It is reported as a complement so that it never reads 0;
  `attempted` and `failed` in the result line count cells.

With `--trace 1` calls alternate untraced and traced; the traced ones record
spans at each layer boundary (see tracer.py) and the last line reports the
per-layer metrics, as means per CLI call. The spans are written to
`.perfbench/trace-<workload>-seed<n>.json`. Only the NumPy kernel backend is
measured: a source checkout does not build the compiled (Cython) kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import probe
from stats import cell_of, count_failed_cells, fail_frac, tree_digests
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests"
# Relative to ROOT, the working directory of every call: summary.json echoes
# out_dir, so the output path is part of the digested bytes.
OUT = Path(".perfbench") / "out"

SEED_COUNT = 10
HELD_OUT_SEED = 101


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    horizon: int
    #: Share of the call's time in NumPy-bound code, which weights the host
    #: factor (see probe.py); it follows the traced layer split.
    numpy_share: float


WORKLOADS = {
    "dpp_sweep": Workload(("--preset", "fig4bc"), 3000, 0.65),
    "baseline_long": Workload(("--config", "perfbench/baseline_long.conf"), 100_000, 0.0),
    "short_cells": Workload(
        ("--preset", "fig4a", "--dump-policy", "--v-list", "0 150"), 400, 0.4
    ),
}


def cli_seed(seed: int, held_out: bool) -> int:
    return HELD_OUT_SEED if held_out else 1 + seed % SEED_COUNT


def cli_argv(workload: Workload, seed: int) -> list[str]:
    return [*workload.args, "--horizon", str(workload.horizon),
            "--seed", str(seed), "--out", str(OUT)]


def reference_digests(name: str, seed: int) -> dict[str, str]:
    table = json.loads((DIGESTS / f"{name}.json").read_text(encoding="utf-8"))
    try:
        return table[str(seed)]
    except KeyError:
        raise SystemExit(f"error: no reference digests for {name} seed {seed}") from None


def clean_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("AOI_DPP_THREADS", None)
    env["PYTHONPATH"] = "src"
    return env


def cold_start() -> float:
    """Wall time of a fresh interpreter importing aoi_dpp.cli."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import aoi_dpp.cli"], env=clean_env(),
                   cwd=ROOT, check=True)
    return perf_counter() - t0


def run_call(argv: list[str], tracer=None) -> tuple[float, bool]:
    """One CLI call into a fresh output directory: (wall seconds, completed)."""
    from aoi_dpp import cli

    shutil.rmtree(OUT, ignore_errors=True)
    gc.collect()
    rc = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracer.installed())
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
        wall = perf_counter() - t0
    return wall, rc == 0


def normalised_median(walls: list[float], factors: list[float]) -> float:
    """Median wall time, each sample divided by the host factor around it."""
    return statistics.median(w / f for w, f in zip(walls, factors))


def machine_context() -> dict:
    import numpy

    import aoi_dpp

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": aoi_dpp.BACKEND,
        "git_rev": rev,
        "note": "only the NumPy kernel backend is measured; the compiled "
                "(Cython) kernel is not built in a source checkout",
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help=f"run the held-out CLI seed {HELD_OUT_SEED}")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not (SRC / "aoi_dpp" / "cli.py").is_file():
        print(f"error: aoi_dpp sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = cli_seed(args.seed, args.held_out)
    reference = reference_digests(args.workload, seed)
    slots_per_call = len({cell_of(p) for p in reference} - {None}) * workload.horizon

    if not args.trace:
        cold_start()  # untimed: writes the bytecode cache

    os.environ.pop("AOI_DPP_THREADS", None)
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else None
    argv_cli = cli_argv(workload, seed)
    plain: list[float] = []
    traced: list[float] = []
    setup: list[float] = []
    # Probes bracket every call and every cold start: probe, call, probe,
    # cold start, probe, call, ...
    probes = [] if args.trace else [probe.measure()]
    costs: list[float] = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        c0 = perf_counter()
        use_tracer = tracer if args.trace and len(plain) > len(traced) else None
        wall, completed = run_call(argv_cli, use_tracer)
        (traced if use_tracer else plain).append(wall)
        if not args.trace:
            # one cold start per call spreads the set-up samples over the run
            probes.append(probe.measure())
            setup.append(cold_start())
            probes.append(probe.measure())
        cells, bad = count_failed_cells(reference, tree_digests(OUT) if completed else {})
        attempted += cells
        failed += bad
        costs.append(perf_counter() - c0)
        done = len(plain) + len(traced)
        if done >= 1 + args.trace and perf_counter() - start + statistics.median(costs) > args.seconds:
            break
    shutil.rmtree(OUT, ignore_errors=True)

    context = machine_context()
    print(f"context: {json.dumps(context)}")
    print(f"workload {args.workload}: CLI seed {seed}, argv {' '.join(argv_cli[:-2])}, "
          f"{slots_per_call} slots per call")
    print(f"untraced calls: {len(plain)}, wall s: {[round(w, 4) for w in plain]}")
    if setup:
        print(f"cold starts: {len(setup)}, wall s: {[round(w, 4) for w in setup]}")
        call_factors = [probe.host_factor(probes[2 * i], probes[2 * i + 1], workload.numpy_share)
                        for i in range(len(plain))]
        setup_factors = [probe.host_factor(probes[2 * i + 1], probes[2 * i + 2], 0.0)
                         for i in range(len(setup))]
        print(f"host factors around calls: {[round(f, 3) for f in call_factors]}")
        print(f"wall-clock medians: {slots_per_call / statistics.median(plain):.6g} slots/s, "
              f"set-up {statistics.median(setup):.4f} s")
    if args.trace:
        print(f"traced calls: {len(traced)}, wall s: {[round(w, 4) for w in traced]}")
    print(f"cells attempted {attempted}, failed {failed}, "
          f"fail_frac {fail_frac(attempted, failed):.4f}")

    if args.trace:
        metrics = tracer.layer_metrics(slots_per_call)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
        tracer.dump(
            WORK / f"trace-{args.workload}-seed{seed}.json",
            {"workload": args.workload, "seed": seed, "argv": argv_cli,
             "context": context,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        )
        print("kernel.gflop and kernel.mb_moved are computed from array shapes "
              "and the feasibility mask, not measured")
    else:
        metrics = {
            "slots_per_s": (slots_per_call / normalised_median(plain, call_factors), "1/s"),
            "setup_s": (normalised_median(setup, setup_factors), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (1.0 - fail_frac(attempted, failed), "frac"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
