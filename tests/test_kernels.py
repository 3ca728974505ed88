"""Kernel checks: the NumPy kernel must equal the plain-Python `loop_kernel`
bit for bit, and the solver must take its kernel from `_kernels.get_solver`
at construction."""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_cfg, reference_model, random_instance

from aoi_dpp import _kernels
from aoi_dpp.channel import GilbertElliotChannel, IIDChannel
from aoi_dpp.cli import main
from aoi_dpp.model import FrameConfig
from aoi_dpp.solver import FrameSolver


def kernel_tables(kernel, solver: FrameSolver, z: float, layout=lambda array: array):
    """Run one kernel on the solver's arrays, each passed through `layout`;
    returns (values, actions, margins)."""
    T, S = solver.cfg.T, solver.space.n_states
    margins = np.empty(T)
    values = np.empty((T + 1, S))
    actions = np.empty((T, S), dtype=np.int8)
    kernel(
        layout(solver.cost_const),
        layout(solver.cost_z),
        layout(solver.feasible),
        layout(solver.next_idx),
        layout(solver.probs),
        z,
        _kernels.work_buffers(T, S, solver.probs.shape[2]),
        margins,
        values,
        actions,
    )
    return values, actions, margins


def nan_max(x: float, y: float) -> float:
    """np.maximum on two floats: NaN if either is NaN."""
    return x if x != x else y if y != y else max(x, y)


def nan_min(x: float, y: float) -> float:
    """np.minimum on two floats: NaN if either is NaN."""
    return x if x != x else y if y != y else min(x, y)


def loop_kernel(cost_const, cost_z, feasible, next_idx, probs, frozen_z,
                work, margins, values, actions):
    """The kernel contract's reference semantics, one state, action and branch
    at a time (`work` is unused): branches accumulate in order, an infeasible
    action costs +inf, and a strictly smaller q wins in USER2, USER1, IDLE
    order. The margin of a state is its second-smallest q, kept as
    min(second, max(q, best)) over the actions after the first, minus its
    smallest; margins[t] is the smallest over the states, NaN if any is."""
    T, S, n_branches = actions.shape[0], cost_const.shape[0], probs.shape[2]
    cc, cz, ok = cost_const.tolist(), cost_z.tolist(), feasible.tolist()
    nxt, pr = next_idx.tolist(), probs.tolist()
    vnext = [0.0] * S
    values[T] = vnext
    for t in range(T - 1, -1, -1):
        vt, at, gaps = [0.0] * S, [0] * S, []
        for s in range(S):
            best, best_a, second = math.inf, -1, math.inf
            for k, a in enumerate((1, 0, 2)):
                acc = 0.0
                for b in range(n_branches):
                    acc = acc + pr[s][a][b] * vnext[nxt[s][a][b]]
                cost = cc[s][a] + frozen_z * cz[s][a] if ok[s][a] else math.inf
                q = cost + acc
                if k:
                    second = nan_min(second, nan_max(q, best))
                if q < best:
                    best, best_a = q, a
            vt[s], at[s] = best, best_a
            gaps.append(second - best)
        values[t], actions[t] = vt, at
        margins[t] = math.nan if any(g != g for g in gaps) else min(gaps)
        vnext = vt


def assert_same_tables(expected, actual) -> None:
    """Bitwise equality of two (values, actions, margins) triples.
    `np.array_equal` calls -0.0 and 0.0 equal, but a sign flip changes the
    text policy_frame0.csv writes, so the values and margins are compared as
    their int64 bit patterns."""
    (expected_values, expected_actions, expected_margins) = expected
    (values, actions, margins) = actual
    assert np.array_equal(expected_values.view(np.int64), values.view(np.int64))
    assert np.array_equal(expected_actions, actions)
    assert np.array_equal(expected_margins.view(np.int64), margins.view(np.int64))


def test_backend_is_numpy():
    assert _kernels.BACKEND == "numpy"
    assert _kernels.get_solver() is _kernels.solve_backward


def test_frame_solver_uses_get_solver(monkeypatch):
    calls = []
    kernel = _kernels.get_solver()

    def recording_kernel(*args):
        calls.append(len(args))
        kernel(*args)

    monkeypatch.setattr(_kernels, "get_solver", lambda: recording_kernel)
    solver = FrameSolver(reference_cfg(5.0), reference_model())
    solver.solve(0.0)
    solver.solve(2.5)
    assert calls == [10, 10]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TINY_CONTROLLER_RUN = """\
T = 3
K = 1
q = 0.5
A_max = 3
V = 1 7
channel.type = iid
channel.p1 = 0.9
channel.p2 = 0.8
horizon_slots = 60
"""


def test_benchmark_tracer_reads_the_kernel_contract(tmp_path, monkeypatch):
    # The benchmark's tracer wraps the kernel `get_solver` returns and reads
    # its arguments by position (the arrays first, the actions last); a
    # change of the contract must keep every solve traced and counted.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("AOI_DPP_THREADS", raising=False)  # keep the cells in process
    from tracer import Tracer

    config = tmp_path / "exp.cfg"
    config.write_text(TINY_CONTROLLER_RUN, encoding="utf-8")
    tracer = Tracer()
    with tracer.installed():
        assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0
    names = [span.name for span in tracer.spans]
    assert names.count("kernel") == names.count("solver.solve") > 0
    assert tracer.kernel_flop > 0


def test_numpy_kernel_matches_loop_contract():
    # The NumPy kernel must equal the loop semantics bit for bit, on arrays
    # typed as it expects and stored action-major, the layout it reads
    # without a copy.
    # Channels with 0/1 probabilities and V = z = 0 instances make ties.
    rng = np.random.default_rng(7)
    for i in range(60):
        cfg, model, _, z = random_instance(rng)
        cfg = FrameConfig(cfg.T + 2, cfg.K, cfg.q, cfg.A_max + 1, cfg.V)
        if i % 2:
            params = [float(rng.choice([0.0, 1.0, p])) for p in dataclasses.astuple(model)]
            model = type(model)(*params)
            z += float(rng.random())
        solver = FrameSolver(cfg, model)
        for name, dtype in (("cost_const", np.float64), ("cost_z", np.float64),
                            ("feasible", np.uint8), ("next_idx", np.intp),
                            ("probs", np.float64)):
            array = getattr(solver, name)
            assert array.dtype == dtype and array.T.flags.c_contiguous, name
        assert_same_tables(
            kernel_tables(loop_kernel, solver, z),
            kernel_tables(_kernels.solve_backward, solver, z),
        )


def test_numpy_kernel_matches_loop_on_copied_layout():
    # Inputs stored state-major, as C-contiguous (S, 3) and (S, 3, B) copies,
    # take the kernel's copying path; the tables stay bit for bit the same.
    rng = np.random.default_rng(13)
    for _ in range(20):
        cfg, model, _, z = random_instance(rng)
        cfg = FrameConfig(cfg.T + 1, cfg.K, cfg.q, cfg.A_max + 1, cfg.V)
        solver = FrameSolver(cfg, model)
        assert_same_tables(
            kernel_tables(loop_kernel, solver, z),
            kernel_tables(_kernels.solve_backward, solver, z, np.ascontiguousarray),
        )


def test_solvers_of_one_size_keep_their_own_buffers(monkeypatch):
    # Two Gilbert-Elliot solvers with the same T, S and B but different
    # layouts (A_max 2, K 3 against A_max 4, K 1, so USER2 is infeasible in
    # different states) solve in turn. Every table must be the one a fresh
    # solver on the loop kernel writes: no kernel state is shared by shape.
    margins = []

    def recording(kernel):
        def recorded(*args):
            kernel(*args)
            margins.append(args[-3].copy())

        return lambda: recorded

    model = GilbertElliotChannel(p11_1=0.9, p01_1=0.6, p11_2=0.8, p01_2=0.3)
    cfgs = (FrameConfig(T=4, K=3, q=2.0, A_max=2, V=5.0),
            FrameConfig(T=4, K=1, q=0.5, A_max=4, V=5.0))
    monkeypatch.setattr(_kernels, "get_solver", recording(_kernels.solve_backward))
    solvers = [FrameSolver(cfg, model) for cfg in cfgs]
    assert [solver.space.n_states for solver in solvers] == [32, 32]
    monkeypatch.setattr(_kernels, "get_solver", recording(loop_kernel))
    for z in (0.0, 3.5, 0.0, 12.0, 3.5):
        for cfg, solver in zip(cfgs, solvers):
            table = solver.solve(z)
            kept = margins.pop()
            fresh = FrameSolver(cfg, model).solve(z)
            assert_same_tables((fresh.values, fresh.actions, margins.pop()),
                               (table.values, table.actions, kept))
            assert table.radius == fresh.radius


probabilities = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def kernel_instances(draw):
    """A small solver and frozen debt: both channel models, 0/1 probabilities
    and V = z = 0 ties."""
    T = draw(st.integers(1, 4))
    K = draw(st.integers(1, min(T, 2)))
    cfg = FrameConfig(
        T=T,
        K=K,
        q=draw(st.floats(0.0, K)),
        A_max=draw(st.integers(1, 5)),
        V=draw(st.sampled_from([0.0, 1.0, 5.0]) | st.floats(0.0, 50.0)),
    )
    if draw(st.booleans()):
        model = IIDChannel(draw(probabilities), draw(probabilities))
    else:
        model = GilbertElliotChannel(*(draw(probabilities) for _ in range(4)))
    z = draw(st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 100.0))
    return FrameSolver(cfg, model), z


@settings(max_examples=150, deadline=None)
@given(kernel_instances())
def test_numpy_kernel_equals_loop_kernel_bitwise(instance):
    solver, z = instance
    assert_same_tables(
        kernel_tables(loop_kernel, solver, z),
        kernel_tables(_kernels.solve_backward, solver, z),
    )


def order_sensitive_instance(rng: np.random.Generator, S: int = 256):
    """Kernel arrays, 4 branches, whose branch sums change in the last bits
    when the branches are added in another order. Every action of a state
    costs the same constant c_s, so a 2-slot solve has values[1] = c; the c_s
    span 20 orders of magnitude with both signs, and each (s, a) mixes four
    of them."""
    c = rng.choice([-1.0, 1.0], S) * rng.random(S) * 10.0 ** rng.integers(-3, 17, S)
    return (
        np.repeat(c[:, None], 3, axis=1),
        np.zeros((S, 3)),
        np.ones((S, 3), dtype=np.uint8),
        rng.integers(S, size=(S, 3, 4)).astype(np.intp),
        rng.random((S, 3, 4)),
    )


def test_numpy_kernel_sums_branches_in_index_order():
    arrays = order_sensitive_instance(np.random.default_rng(5))
    T, S = 2, arrays[0].shape[0]

    def tables(kernel, next_idx, probs):
        margins = np.empty(T)
        values = np.empty((T + 1, S))
        actions = np.empty((T, S), dtype=np.int8)
        work = _kernels.work_buffers(T, S, probs.shape[2])
        kernel(*arrays[:3], next_idx, probs, 0.0, work, margins, values, actions)
        return values, actions, margins

    next_idx, probs = arrays[3:]
    expected = tables(loop_kernel, next_idx, probs)
    # Summing the four products in reverse order moves many values' last bits.
    reordered = tables(loop_kernel, next_idx[..., ::-1].copy(), probs[..., ::-1].copy())
    moved = expected[0][0].view(np.int64) != reordered[0][0].view(np.int64)
    assert moved.sum() > S // 8
    assert_same_tables(expected, tables(_kernels.solve_backward, next_idx, probs))


def test_solve_is_repeatable():
    cfg = reference_cfg(5.0)
    solver = FrameSolver(cfg, reference_model())
    a = solver.solve(3.7)
    b = solver.solve(3.7)
    assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
    assert np.array_equal(a.actions, b.actions)
    assert a.radius == b.radius


#: sha256 of `values.tobytes()` and `actions.tobytes()` for the reference
#: scenario solved at (V, z), recorded with the column-wise argmin kernel that
#: the action-major one replaced; they pin the benchmark scenario's tables.
GOLDEN_TABLES = {
    (0.0, 0.0): ("2ec3a6d3c0274e885a97dda06c53eb2e4d02aeaed87ff502d7435a8efc3fe7a9",
        "77348364124ea35b0bdd32d7048fff634464df57c7f1cd7af2f93b592bb97cbe"),
    (0.0, 0.3): ("391f4519a29eb4a1f2b4208e39603a2a4c2af5f0fe61e7b928ea56c16f3ff728",
        "77348364124ea35b0bdd32d7048fff634464df57c7f1cd7af2f93b592bb97cbe"),
    (0.0, 1.7): ("2989be00aaa912f330d7ac5cfd75e28ae452416fe2b3352fb4795b84538ba138",
        "77348364124ea35b0bdd32d7048fff634464df57c7f1cd7af2f93b592bb97cbe"),
    (0.0, 12.9): ("408183cb8c9a1c259a7d798f817bbf91f786e729947725232dd1a5ce2bde32fa",
        "77348364124ea35b0bdd32d7048fff634464df57c7f1cd7af2f93b592bb97cbe"),
    (0.0, 250.0): ("fe41fecf951e3c10d47b9eaebcc08a8ea3ac0a3f5d08ca4e96bdd652346b6029",
        "77348364124ea35b0bdd32d7048fff634464df57c7f1cd7af2f93b592bb97cbe"),
    (0.0, 1000.2): ("45c0d01c7cd16edc363719e0402b9bbf9f2255748933c759ef186fd7ec85a118",
        "77348364124ea35b0bdd32d7048fff634464df57c7f1cd7af2f93b592bb97cbe"),
    (5.0, 0.0): ("2f58d11b289dfa7f17e284c740f7649c3ebeed9c65bf6c6433a5cb3cbec89048",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (5.0, 0.3): ("b75f4c3e01ffd45359496cd8d307d3c714ac762b685cc9b8d07ca98dbcda2b2d",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (5.0, 1.7): ("66c6cd653e19db26623ea37513d66ba04b1995459b1386ff04a460024ccd6192",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (5.0, 12.9): ("aa8f446c9a494200b02c963070bc153cdcfa5d9af5e1b45f374e723feb989a76",
        "e0e42d703b84ce6eb804554bff1d83ff397f1c3bfacfade5b153936cd8bd3ec7"),
    (5.0, 250.0): ("5d57146e6a522b646220ae32251bf3c6c1a6f952ccbd8e77a3bad6b378b71c0d",
        "f49ac4018919e98d887db405f2666b1a8fc17784c462c222d1db0c96a8d2a225"),
    (5.0, 1000.2): ("75fa8281278f067113b943b5a10be357a928b61f7028749e88ece36399b2e712",
        "f42f05e951539ef799191cab79ae01933eb5d0c304584c76f9912cf1c25190ed"),
    (150.0, 0.0): ("00c57f6b9abeadfb5837757e8cf84386feaa86f5e890674ca60be6b280b81721",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (150.0, 0.3): ("3f2415d344d6d2ef09ded4cd79d89c159cd4b52979ae16e9fa9a894ce1eab7cd",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (150.0, 1.7): ("bfd08ff76a7c51d69791c0c57ad18958852e4fe3227cb341ad4c69df1c359dad",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (150.0, 12.9): ("754372183f2aba1dfed6418ddbc3535509663a57da4bda9cec4959d9eefa4310",
        "c65206769723a13afe80c0d925531639ceef9c2eb97eee3b1b542739ec40597f"),
    (150.0, 250.0): ("7f674bcac9acc4f592383db2bf4f4355150e96d614559118a2fb2693edea7082",
        "080017b5fca57614098fda2cf924088e2e09ff1b4d4b2be08384986a169ded84"),
    (150.0, 1000.2): ("292a79b211a52f82d53c8d70c896f2a6832c635eca3d617d74430317bf34e5bb",
        "dea1c07d667bb3b40be51239208c196c2fcd943781f2c0cebdf43b942c11eb62"),
}


def test_reference_tables_match_golden():
    digests = {}
    for v in (0.0, 5.0, 150.0):
        solver = FrameSolver(reference_cfg(v), reference_model())
        for z in (0.0, 0.3, 1.7, 12.9, 250.0, 1000.2):
            table = solver.solve(z)
            digests[v, z] = (
                hashlib.sha256(table.values.tobytes()).hexdigest(),
                hashlib.sha256(table.actions.tobytes()).hexdigest(),
            )
    assert digests == GOLDEN_TABLES
