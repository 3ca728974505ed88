"""Block formatting of the per-cell tables, checked on synthetic runs.

`cli.emit_outputs` writes every table through `cli._write_table`, which sets
up one encoder per column and then encodes a block of rows at a time as
NumPy byte columns. These tests check the encoders against `str` and `repr`,
across blocks and across resets of the float memo, and build `Metrics` and
frame-0 tables directly, so no solver runs: every written row must be the
row formatted on its own (floats as `repr`), and the memory must stay
bounded by the block, never by the horizon.
"""

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_dpp import cli
from aoi_dpp.channel import IIDChannel
from aoi_dpp.model import ACTION_LABELS, FrameConfig
from aoi_dpp.sim import Metrics, PolicyKind
from aoi_dpp.solver import PolicyTable, StateSpace

CFG = FrameConfig(T=2, K=2, q=1.0, A_max=12, V=1.0)
SPACE = StateSpace(CFG, IIDChannel(0.5, 0.5))

#: Floats whose encoded repr could go wrong: zeros of both signs (equal, with
#: different reprs), NaN (never equal to itself), infinities, subnormals and
#: values past the range where repr switches to exponent form.
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-320,
           1e16, -1e16, 1e-05, 1.7976931348623157e308, 0.1, 0.30000000000000004]


def synthetic_run(z: np.ndarray, values: np.ndarray,
                  rng: np.random.Generator) -> tuple[Metrics, PolicyTable]:
    """A run of len(z) - 1 slots with debt trajectory z (whose first values
    also fill the schedule fractions), and a frame-0 table with the given
    values."""
    n, T = z.size - 1, CFG.T
    actions = rng.integers(3, size=n).astype(np.int8)
    d1 = ((actions == 0) & (rng.random(n) < 0.5)).astype(np.int8)
    d2 = ((actions == 1) & (rng.random(n) < 0.5)).astype(np.int8)
    aoi = rng.integers(1, CFG.A_max + 1, size=n).astype(np.int32)
    frames = n // T
    table = PolicyTable(CFG, SPACE, 0.0, values,
                        rng.integers(3, size=(T, SPACE.n_states)).astype(np.int8))
    return Metrics(
        cfg=CFG, policy=PolicyKind.DRIFT_PLUS_PENALTY, seed=0, horizon_slots=n,
        warmup_slots=0, frames=frames, aoi=aoi, queue=np.zeros(n, dtype=np.int32),
        actions=actions, d1=d1, d2=d2, z_trajectory=z,
        per_frame_deliveries=d2[: frames * T].reshape(frames, T).sum(axis=1).astype(np.int32),
        aoi_histogram=np.bincount(aoi, minlength=CFG.A_max + 1)[1:],
        schedule_fractions=np.resize(z, (T, 3)),
    ), table


def summary_of(m: Metrics) -> cli.RunSummary:
    return cli.RunSummary(config={}, V=CFG.V, seed=m.seed, frames=m.frames, mean_aoi=0.0,
                          per_frame_delivery_mean=0.0, rate_stability_stat=0.0,
                          bounds=None, warnings=[], wall_clock_s=0.0)


def rows_one_at_a_time(m: Metrics, table: PolicyTable, thin: int) -> dict[str, list[str]]:
    """The table rows of `m` and of its frame-0 `table`, each formatted on its
    own from Python values."""
    aoi, z, a, d1, d2 = (x.tolist() for x in (m.aoi, m.z_trajectory, m.actions, m.d1, m.d2))
    frame_z, deliveries = m.frame_start_z.tolist(), m.per_frame_deliveries.tolist()
    counts = m.aoi_histogram.tolist()
    total = sum(counts)
    fractions = [count / total for count in counts]
    return {
        "slots.csv": [f"{t},{aoi[t]},{z[t]!r},{ACTION_LABELS[a[t]]},{d1[t]},{d2[t]}"
                      for t in range(0, m.horizon_slots, thin)],
        "frames.csv": [f"{i},{deliveries[i]},{frame_z[i]!r}" for i in range(m.frames)],
        "aoi_hist.csv": [f"{i + 1},{counts[i]},{fractions[i]!r}" for i in range(len(counts))],
        "sched_fractions.csv": [f"{j},{u1!r},{u2!r},{idle!r}"
                                for j, (u1, u2, idle) in enumerate(m.schedule_fractions.tolist())],
        "policy_frame0.csv": [
            f"{slot},{s.aoi},{s.queue},,,{ACTION_LABELS[table.actions[slot, i]]},"
            f"{table.values[slot, i].item()!r}"
            for slot in range(CFG.T) for i, s in enumerate(SPACE.states())
        ],
    }


def column_rows(path: Path, column, n: int) -> list[str]:
    """The n rows of a one-column table as `cli._write_table` writes them."""
    cli._write_table(path, "head", n, (column, b"\n"))
    return path.read_text(encoding="ascii").splitlines()[1:]


#: 0, 2**31 - 1 and both sides of every power of ten between them.
INTS = [0, 1, *(10**k + d for k in range(1, 10) for d in (-1, 0)), 2**31 - 1]


def test_ints_encode_as_str(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 5)
    path = tmp_path / "ints.csv"
    for values in (INTS, INTS[::-1]):
        for dtype in (np.int64, np.int32):
            column = np.array(values, dtype=dtype)
            assert column_rows(path, column, len(values)) == [str(v) for v in values]
    for v in INTS:  # alone, each value sets the width, and below 1,000 the lookup
        assert column_rows(path, np.array([v]), 1) == [str(v)]
    # The largest lookup table (0..999), the smallest grouped columns just
    # above it, and zero groups in the middle and at the end of a value.
    for top in (999, 1000, 1001):
        values = np.arange(top, -1, -1)
        assert column_rows(path, values, values.size) == [str(v) for v in values.tolist()]
    values = np.array([1_000_000, 1_000_001, 1_001_000, 999_999, 100, 0])
    assert column_rows(path, values, values.size) == [str(v) for v in values.tolist()]


def test_row_numbers_encode_as_str(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    for numbers in (range(1003), range(1, 11), range(999_990, 1_000_010), range(0, 3000, 7)):
        assert column_rows(tmp_path / "rows.csv", numbers, len(numbers)) == \
            [str(v) for v in numbers]


#: NaNs with other payloads and signs than `math.nan`.
NANS = np.array([0x7FF0000000000001, 0x7FF8000000000001, 0x7FFFFFFFFFFFFFFF,
                 0xFFF8000000000000, 0xFFF0000000000001], dtype=np.uint64).view(np.float64)


def test_floats_encode_as_repr(tmp_path, monkeypatch):
    bits = np.random.default_rng(0).integers(0, 2**64, size=4000, dtype=np.uint64)
    values = np.concatenate([SPECIAL, NANS, bits.view(np.float64), SPECIAL[::-1], NANS,
                             np.resize(SPECIAL, 100)])
    # SPECIAL recurs across blocks and, with the small memos, across resets
    # of the memo, one of them smaller than a block.
    for block, memo in ((cli.BLOCK_ROWS, cli.FLOAT_MEMO), (5, 8), (5, 3)):
        monkeypatch.setattr(cli, "BLOCK_ROWS", block)
        monkeypatch.setattr(cli, "FLOAT_MEMO", memo)
        assert column_rows(tmp_path / "floats.csv", values, values.size) == \
            [repr(x) for x in values.tolist()]


def test_each_table_formats_its_floats_afresh(tmp_path, monkeypatch):
    # Each distinct bit pattern is formatted once per table, however many
    # blocks repeat it; writing the same column again formats it all again,
    # so no text outlives its table.
    formatted = []

    def counting_repr(x):
        formatted.append(x)
        return repr(x)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    values = np.resize(np.array(SPECIAL + [0.5, 1.5]), 3 * cli.BLOCK_ROWS + 17)
    for name in ("first.csv", "second.csv"):
        assert column_rows(tmp_path / name, values, values.size) == \
            [repr(x) for x in values.tolist()]
    assert len(formatted) == 2 * np.unique(values.view(np.int64)).size


@st.composite
def float_arrays(draw, size: int) -> np.ndarray:
    """`size` floats drawn from SPECIAL and a few arbitrary floats, so values
    repeat, with SPECIAL in order first: both zeros share the first block."""
    pool = SPECIAL + draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=max(size - len(SPECIAL), 0))
    return np.array(pool + [pool[i] for i in picks])[:size]


@pytest.mark.parametrize("block, memo", [(cli.BLOCK_ROWS, cli.FLOAT_MEMO), (5, 7)],
                         ids=["block-default", "block-5"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(CFG.T, 2600), thin=st.integers(1, 3))
def test_memoised_fields_equal_repr(block, memo, data, n, thin):
    z = data.draw(float_arrays(n + 1))
    values = data.draw(float_arrays((CFG.T + 1) * SPACE.n_states)).reshape(CFG.T + 1, -1)
    m, table = synthetic_run(z, values, np.random.default_rng(n))
    saved = cli.BLOCK_ROWS, cli.FLOAT_MEMO
    cli.BLOCK_ROWS, cli.FLOAT_MEMO = block, memo
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cli.emit_outputs(m, summary_of(m), tmp, thin=thin, policy=table)
            written = {name: (Path(tmp) / name).read_text(encoding="utf-8").splitlines()[1:]
                       for name in ("slots.csv", "frames.csv", "aoi_hist.csv",
                                    "sched_fractions.csv", "policy_frame0.csv")}
    finally:
        cli.BLOCK_ROWS, cli.FLOAT_MEMO = saved
    assert written == rows_one_at_a_time(m, table, thin)


def test_emit_memory_is_bounded_by_the_block(tmp_path):
    # 200,000 slots whose Z values are all distinct: a memo kept for the whole
    # run would hold 200,001 reprs, 33.7 MB traced. The traced peak of this
    # call was 0.10 MB with the row-at-a-time writer and 0.29 MB with one
    # string and one repr memo per block. With per-table encoders, a float
    # memo of 4,096 patterns and the NULs dropped from a reused block buffer,
    # it is 0.44 MB at 1,024 rows a block, 0.57 MB at 2,048, 0.86 MB at 4,096
    # and 1.72 MB at 8,192. The bound is ten times the row-at-a-time peak.
    n = 200_000
    z = np.cumsum(np.random.default_rng(0).random(n + 1))
    m, table = synthetic_run(z, np.zeros((CFG.T + 1, SPACE.n_states)), np.random.default_rng(1))
    cli.emit_outputs(m, summary_of(m), tmp_path / "warm", policy=table)
    tracemalloc.start()
    try:
        cli.emit_outputs(m, summary_of(m), tmp_path, policy=table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.0e6
