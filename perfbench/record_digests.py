#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record_digests.py [workload ...]

Runs each workload once per CLI seed it can use (1..10 and the held-out
seed) and writes perfbench/digests/<workload>.json. Run it only at a commit
whose outputs are known good: every later run is compared with these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from stats import tree_digests


def main(names: list[str]) -> int:
    os.environ.pop("AOI_DPP_THREADS", None)
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    for name in names or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        table = {}
        for seed in [*range(1, run.SEED_COUNT + 1), run.HELD_OUT_SEED]:
            _, completed = run.run_call(run.cli_argv(workload, seed))
            if not completed:
                print(f"error: {name} seed {seed} failed", file=sys.stderr)
                return 1
            table[str(seed)] = tree_digests(run.OUT)
            print(f"{name} seed {seed}: {len(table[str(seed)])} files", flush=True)
        run.DIGESTS.mkdir(exist_ok=True)
        path = run.DIGESTS / f"{name}.json"
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(run.OUT, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
