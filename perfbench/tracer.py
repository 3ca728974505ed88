"""Span recording around the public callables at each aoi_dpp layer boundary.

`Tracer.installed()` temporarily wraps FrameSolver.__init__ and
FrameSolver.solve (solver), the kernel that `_kernels.get_solver` returns
(_kernels), and cli.run_simulation and cli.emit_outputs (sim, cli). The
program itself is not edited; the spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from stats import Span, kernel_work, self_times, tail_percentile

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.cell: str | None = None
        self.kernel_flop = 0
        self.kernel_bytes = 0
        self.emit_bytes = 0

    @contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.cell)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _wrap_simulation(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            self.cell = f"V{bound['cfg'].V:g}_seed{bound['seed']}"
            with self.span("sim.run_simulation"):
                return fn(*args, **kwargs)

        return traced

    def _wrap_emit(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("cli.emit_outputs"):
                paths = fn(*args, **kwargs)
            self.emit_bytes += sum(Path(p).stat().st_size for p in paths)
            return paths

        return traced

    def _wrap_kernel(self, kernel):
        # Kernel contract (see aoi_dpp._kernels._dp_numpy.solve_backward):
        # cost_const, cost_z, feasible, next_idx, probs, frozen_z, discount,
        # values, actions.
        @functools.wraps(kernel)
        def traced(*args):
            with self.span("kernel"):
                kernel(*args)
            cost_const, _, feasible, _, probs = args[:5]
            flop, nbytes = kernel_work(
                args[-1].shape[0],
                cost_const.shape[0],
                probs.shape[2],
                int(np.count_nonzero(feasible)),
            )
            self.kernel_flop += flop
            self.kernel_bytes += nbytes

        return traced

    @contextmanager
    def installed(self):
        from aoi_dpp import _kernels, cli, solver

        get_solver = _kernels.get_solver
        patches = [
            (solver.FrameSolver, "__init__",
             self._wrap("solver.build", solver.FrameSolver.__init__)),
            (solver.FrameSolver, "solve",
             self._wrap("solver.solve", solver.FrameSolver.solve)),
            (_kernels, "get_solver",
             functools.wraps(get_solver)(
                 lambda *a, **k: self._wrap_kernel(get_solver(*a, **k)))),
            (cli, "run_simulation", self._wrap_simulation(cli.run_simulation)),
            (cli, "emit_outputs", self._wrap_emit(cli.emit_outputs)),
        ]
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, wrapped in patches:
                setattr(obj, attr, wrapped)
            yield self
        finally:
            for obj, attr, original in originals:
                setattr(obj, attr, original)

    def layer_metrics(self, slots_per_call: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as means per traced CLI call (percentiles pool
        every solve). Self time excludes the time of nested spans."""
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self_times(self.spans)):
            count[span.name] += 1
            total[span.name] += span.duration
            own[span.name] += self_s
        calls = count[ROOT_SPAN]
        if calls < 1:
            raise ValueError("no traced CLI call recorded")
        solve_ms = [s.duration * 1e3 for s in self.spans if s.name == "solver.solve"]
        wall = total[ROOT_SPAN]
        solver_self = own["solver.build"] + own["solver.solve"]

        def per_call(x: float) -> float:
            return x / calls

        return {
            "solver.builds": (per_call(count["solver.build"]), "count"),
            "solver.build_s": (per_call(total["solver.build"]), "s"),
            "solver.solves": (per_call(count["solver.solve"]), "count"),
            "solver.solve_s": (per_call(total["solver.solve"]), "s"),
            "solver.solve_ms_p50": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
            "solver.solve_ms_p95": (tail_percentile(solve_ms, 0.95) or 0.0, "ms"),
            "solver.self_s": (per_call(solver_self), "s"),
            "kernel.calls": (per_call(count["kernel"]), "count"),
            "kernel.s": (per_call(total["kernel"]), "s"),
            "kernel.reuse_ratio": (
                1.0 - count["kernel"] / count["solver.solve"] if count["solver.solve"] else 0.0,
                "frac",
            ),
            "kernel.gflop": (per_call(self.kernel_flop) / 1e9, "GFLOP"),
            "kernel.gflop_per_s": (
                self.kernel_flop / 1e9 / total["kernel"] if total["kernel"] else 0.0,
                "GFLOP/s",
            ),
            "kernel.mb_moved": (per_call(self.kernel_bytes) / 1e6, "MB"),
            "sim.calls": (per_call(count["sim.run_simulation"]), "count"),
            "sim.s": (per_call(total["sim.run_simulation"]), "s"),
            "sim.loop_s": (per_call(own["sim.run_simulation"]), "s"),
            "sim.loop_us_per_slot": (
                per_call(own["sim.run_simulation"]) / slots_per_call * 1e6, "us/slot"),
            "cli.emit_s": (per_call(total["cli.emit_outputs"]), "s"),
            "cli.emit_us_per_slot": (
                per_call(total["cli.emit_outputs"]) / slots_per_call * 1e6, "us/slot"),
            "cli.emit_mb": (per_call(self.emit_bytes) / 1e6, "MB"),
            "cli.self_s": (per_call(own[ROOT_SPAN]), "s"),
            "share.kernel": (own["kernel"] / wall, "frac"),
            "share.solver": (solver_self / wall, "frac"),
            "share.sim": (own["sim.run_simulation"] / wall, "frac"),
            "share.emit": (own["cli.emit_outputs"] / wall, "frac"),
            "share.cli": (own[ROOT_SPAN] / wall, "frac"),
            "trace.wall_s": (per_call(wall), "s"),
        }

    def dump(self, path: Path, header: dict) -> None:
        """Write the header and every span as JSON."""
        spans = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "cell": s.cell}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}) + "\n", encoding="utf-8")
