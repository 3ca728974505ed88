"""Arithmetic of the benchmark: span self times, percentiles, output digests
and failure counting. Pure functions, so the tests can feed them synthetic
inputs."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: summary.json keys that hold run-to-run noise (wall clock, timing
#: diagnostics); they are dropped before hashing so the digest covers only
#: the deterministic results.
MASKED_SUMMARY_KEYS = ("wall_clock_s", "diagnostics")

#: A tail percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10


@dataclass
class Span:
    """One timed call at a layer boundary; `parent` indexes the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    cell: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = _union_length(
            [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        )
        out.append(span.duration - covered)
    return out


def tail_percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank q-quantile (0 < q < 1), or None when fewer than
    MIN_TAIL_SAMPLES samples lie above it."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < MIN_TAIL_SAMPLES:
        return None
    return xs[rank - 1]


def file_digest(path: Path) -> str:
    """sha256 of an output file; summary.json is hashed without its masked keys."""
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        for key in MASKED_SUMMARY_KEYS:
            summary.pop(key, None)
        data = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    """{relative posix path: digest} for every file under root."""
    return {
        p.relative_to(root).as_posix(): file_digest(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def cell_of(relpath: str) -> str | None:
    """The cell directory a file belongs to; None for the run-level tables."""
    head, sep, _ = relpath.partition("/")
    return head if sep else None


def count_failed_cells(
    reference: dict[str, str], actual: dict[str, str]
) -> tuple[int, int]:
    """(cells attempted, cells failed) of one CLI call.

    A cell fails when one of its reference files is missing or differs. The
    run-level tables aggregate every cell, so a mismatch there fails them
    all. Files the reference does not name are ignored.
    """
    cells = {cell_of(p) for p in reference} - {None}
    bad = {cell_of(p) for p, d in reference.items() if actual.get(p) != d}
    failed = len(cells) if None in bad else len(bad)
    return len(cells), failed


def kernel_work(T: int, S: int, branches: int, n_feasible: int) -> tuple[int, int]:
    """Computed (flop, bytes moved) of one backward pass over T stages.

    Counts useful work only, from the array shapes and the feasibility mask:
    per feasible (state, action) pair and stage, `branches` multiply-adds,
    one discount multiply and one cost add; plus forming the frozen-debt
    cost once. Bytes are the minimum traffic: cost, cost_z and feasible
    read once; per stage, next index (8 B), probability (8 B) and gathered
    value (8 B) per feasible branch, cost (8 B) per feasible pair, and the
    value (8 B) and action (1 B) written per state. Cache misses are not
    counted.
    """
    flop = 2 * n_feasible + T * n_feasible * (2 * branches + 2)
    nbytes = 3 * S * 17 + T * (n_feasible * (24 * branches + 8) + 9 * S)
    return flop, nbytes


def fail_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    return failed / attempted
