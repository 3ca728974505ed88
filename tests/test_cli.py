import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from aoi_dpp import cli
from aoi_dpp.cli import main
from aoi_dpp.config import parse_config_text, render_config, with_overrides
from aoi_dpp.solver import FrameSolver

SMALL = """\
T = 4
K = 2
q = 1.0
A_max = 5
V = 0 2
channel.type = gilbert_elliot
channel.p11_1 = 0.9
channel.p01_1 = 0.6
channel.p11_2 = 0.9
channel.p01_2 = 0.6
horizon_slots = 400
seed = 3
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL, encoding="utf-8")
    return path


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def test_end_to_end_outputs(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--config", str(small_cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("mean_aoi=") == 2  # one RunSummary line per cell

    for v in ("0", "2"):
        cell = out / f"V{v}_seed3"
        slots = read(cell / "slots.csv").splitlines()
        assert slots[0] == "t,A,Z,action,d1,d2"
        assert len(slots) == 1 + 400
        frames = read(cell / "frames.csv").splitlines()
        assert frames[0] == "frame_index,deliveries,Z_at_frame_start"
        assert len(frames) == 1 + 100
        hist = read(cell / "aoi_hist.csv").splitlines()
        assert hist[0] == "aoi_value,count,fraction"
        assert len(hist) == 1 + 5
        fracs = read(cell / "sched_fractions.csv").splitlines()
        assert fracs[0] == "slot_in_frame,frac_u1,frac_u2,frac_idle"
        for row in fracs[1:]:
            parts = row.split(",")
            assert sum(float(x) for x in parts[1:]) == pytest.approx(1.0)
        summary = json.loads(read(cell / "summary.json"))
        assert summary["seed"] == 3
        assert summary["bounds"] is not None
        assert summary["wall_clock_s"] >= 0

    table = read(out / "aoi_vs_v.csv").splitlines()
    assert table[0] == "V,seed,mean_aoi"
    assert len(table) == 3
    pooled = read(out / "aoi_vs_v_pooled.csv").splitlines()
    assert pooled[0] == "V,mean_aoi,n_seeds"


def test_summary_config_echo_roundtrips(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["--config", str(small_cfg), "--out", str(out)])
    summary = json.loads(read(out / "V0_seed3" / "summary.json"))
    echoed = summary["config"]
    lines = []
    for key, value in echoed.items():
        if isinstance(value, list):
            value = " ".join(repr(float(x)) for x in value)
        lines.append(f"{key} = {value}")
    reparsed = parse_config_text("\n".join(lines) + "\n")
    # the echo reflects the executed config, i.e. with the --out override
    executed = with_overrides(parse_config_text(SMALL), out_dir=str(out))
    assert reparsed == executed
    assert parse_config_text(render_config(reparsed)) == executed


def test_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
    assert "missing.cfg" in capsys.readouterr().err


def test_bad_config_names_key(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL + "mystery = 4\n", encoding="utf-8")
    assert main(["--config", str(path)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_strict_feasibility_exit_code(tmp_path, capsys):
    text = SMALL.replace("q = 1.0", "q = 2.0").replace(
        "channel.p01_1 = 0.6", "channel.p01_1 = 0.6"
    ).replace("channel.p11_2 = 0.9", "channel.p11_2 = 0.1").replace(
        "channel.p01_2 = 0.6", "channel.p01_2 = 0.1"
    )
    path = tmp_path / "infeasible.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "o1"),
                 "--strict-feasibility"]) == 2
    assert "no slackness certificate" in capsys.readouterr().err
    # without the flag it warns and completes
    assert main(["--config", str(path), "--out", str(tmp_path / "o2")]) == 0
    err = capsys.readouterr().err
    assert "warning" in err
    summary = json.loads(read(tmp_path / "o2" / "V0_seed3" / "summary.json"))
    assert summary["bounds"] is None
    assert summary["warnings"]


def test_thin_decimation(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["--config", str(small_cfg), "--out", str(out), "--thin", "50",
          "--v-list", "2"])
    slots = read(out / "V2_seed3" / "slots.csv").splitlines()
    assert len(slots) == 1 + 400 // 50


def test_v_list_override(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["--config", str(small_cfg), "--out", str(out), "--v-list", "7"])
    assert (out / "V7_seed3").is_dir()
    assert not (out / "V0_seed3").exists()


def test_dump_policy(small_cfg, tmp_path):
    out = tmp_path / "out"
    main(["--config", str(small_cfg), "--out", str(out), "--v-list", "2",
          "--dump-policy"])
    dump = read(out / "V2_seed3" / "policy_frame0.csv").splitlines()
    assert dump[0] == "slot,aoi,queue,h1,h2,action,value"
    # T slots x (A_max * (K+1) * 4 memory pairs) rows
    assert len(dump) == 1 + 4 * (5 * 3 * 4)


def test_dump_policy_builds_one_solver_per_cell(small_cfg, tmp_path, monkeypatch):
    # the dump is the table the simulation solved in its first frame
    monkeypatch.delenv("AOI_DPP_THREADS", raising=False)
    builds = []
    init = FrameSolver.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FrameSolver, "__init__", counting_init)
    out = tmp_path / "out"
    assert main(["--config", str(small_cfg), "--out", str(out), "--dump-policy"]) == 0
    assert len(builds) == 2
    assert (out / "V0_seed3" / "policy_frame0.csv").is_file()


@pytest.mark.parametrize("dump", [False, True])
def test_emit_outputs_returns_every_cell_file(small_cfg, tmp_path, monkeypatch, dump):
    # the policy dump is one of the files emit_outputs writes and returns
    monkeypatch.delenv("AOI_DPP_THREADS", raising=False)
    returned = []
    emit = cli.emit_outputs

    def recording_emit(*args, **kwargs):
        paths = emit(*args, **kwargs)
        returned.append(paths)
        return paths

    monkeypatch.setattr(cli, "emit_outputs", recording_emit)
    out = tmp_path / "out"
    assert main(["--config", str(small_cfg), "--out", str(out)]
                + ["--dump-policy"] * dump) == 0
    for paths in returned:
        cell_dir = paths[0].parent
        assert sorted(p.name for p in paths) == sorted(p.name for p in cell_dir.iterdir())
        assert ("policy_frame0.csv" in {p.name for p in paths}) == dump
    assert len(returned) == 2


def test_preset_with_overrides_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--preset", "fig6", "--horizon", "800", "--v-list", "0 5",
                 "--seed", "9", "--out", str(out)]) == 0
    assert (out / "V0_seed9").is_dir() and (out / "V5_seed9").is_dir()
    summary = json.loads(read(out / "V5_seed9" / "summary.json"))
    assert summary["config"]["horizon_slots"] == 800
    assert summary["config"]["T"] == 20


def test_unknown_preset_fails(capsys):
    assert main(["--preset", "fig99"]) == 1
    assert "fig99" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--v-list", "nan"], "V"),
        (["--v-list", "inf"], "V"),
        (["--thin", "0"], "--thin"),
        (["--seed", "-1"], "seed"),
        (["--v-list", ","], "V"),
        (["--out", "out#1"], "out_dir"),
        (["--out", "out "], "out_dir"),
        (["--v-list", "2 2.0"], "V"),
        (["--v-list", "1e307"], "error: V:"),
    ],
    ids=["v-nan", "v-inf", "thin-zero", "seed-negative", "v-empty", "out-hash",
         "out-space", "v-duplicate", "v-overflow"],
)
def test_bad_arguments_fail_before_compute(small_cfg, tmp_path, monkeypatch, capsys,
                                           flags, named):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main(["--config", str(small_cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == [small_cfg.name]


@pytest.mark.parametrize("out", ["blocker", "blocker/x"], ids=["file", "under-file"])
def test_uncreatable_out_dir_fails_before_compute(small_cfg, tmp_path, monkeypatch, capsys,
                                                  out):
    # --out names a regular file, or a path below one
    (tmp_path / "blocker").write_text("", encoding="utf-8")
    monkeypatch.setattr(cli, "run_simulation", None)  # any cell run would fail
    assert main(["--config", str(small_cfg), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out_dir: ") and len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", small_cfg.name]


@pytest.mark.parametrize("user", [1, 2])
def test_frozen_channel_fails_before_compute(tmp_path, monkeypatch, capsys, user):
    # p11 = 1 and p01 = 0: the chain never moves, so no stationary start exists
    frozen = SMALL.replace(f"channel.p11_{user} = 0.9", f"channel.p11_{user} = 1")
    frozen = frozen.replace(f"channel.p01_{user} = 0.6", f"channel.p01_{user} = 0")
    path = tmp_path / "frozen.cfg"
    path.write_text(frozen, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: channel.p11_{user}:")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_parallel_matches_sequential(small_cfg, tmp_path, monkeypatch):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    main(["--config", str(small_cfg), "--out", str(seq)])
    monkeypatch.setenv("AOI_DPP_THREADS", "2")
    main(["--config", str(small_cfg), "--out", str(par)])
    for cell in ("V0_seed3", "V2_seed3"):
        for name in ("slots.csv", "frames.csv", "aoi_hist.csv", "sched_fractions.csv"):
            assert read(seq / cell / name) == read(par / cell / name)


SWEEP_CELLS = [(v, seed) for v in ("0", "2") for seed in (3, 4, 5)]
CELL_FILES = ("slots.csv", "frames.csv", "aoi_hist.csv", "sched_fractions.csv",
              "policy_frame0.csv")


def summary_without(path: Path, *keys: str) -> dict:
    summary = json.loads(read(path))
    for key in ("wall_clock_s", "diagnostics", *keys):
        del summary[key]
    return summary


def test_sweep_is_the_same_shared_pooled_or_cell_by_cell(tmp_path, monkeypatch):
    # 2 V x 3 seeds with policy dumps. Inline, the cells of a V share one
    # FrameTables (one solver build per V) and copy the first cell's dump;
    # a pool of 2 splits each V's seeds into the runs [3, 4] and [5], each
    # with its own tables; one CLI call per cell solves its own. The files
    # are the same bytes in all three.
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text(SMALL + "replications = 3\n", encoding="utf-8")
    one_cell = tmp_path / "cell.cfg"
    one_cell.write_text(SMALL, encoding="utf-8")

    def run(name: str, config: Path, *flags: str) -> Path:
        # in a directory of its own: summary.json echoes the relative out_dir
        (tmp_path / name).mkdir(parents=True)
        monkeypatch.chdir(tmp_path / name)
        assert main(["--config", str(config), "--out", "out", "--dump-policy", *flags]) == 0
        return tmp_path / name / "out"

    monkeypatch.delenv("AOI_DPP_THREADS", raising=False)
    builds = []
    init = FrameSolver.__init__

    def counting_init(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(FrameSolver, "__init__", counting_init)
    shared = run("shared", sweep)
    assert len(builds) == 2
    monkeypatch.setenv("AOI_DPP_THREADS", "2")
    pooled = run("pooled", sweep)
    with monkeypatch.context() as m:
        m.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        m.setattr(InlinePool, "sizes", [])
        m.setattr(InlinePool, "tasks", [])
        m.setattr(os, "cpu_count", lambda: 8)
        run("inline_pool", sweep)
        assert InlinePool.sizes == [2]
        assert [task[1:3] for task in InlinePool.tasks] == [
            (0.0, [3, 4]), (0.0, [5]), (2.0, [3, 4]), (2.0, [5])]
    assert len(builds) == 2 + 4
    monkeypatch.delenv("AOI_DPP_THREADS")
    by_cell = tmp_path / "by_cell"
    for v, seed in SWEEP_CELLS:
        run(f"by_cell/{v}-{seed}", one_cell, "--v-list", v, "--seed", str(seed))

    tables = ("aoi_vs_v.csv", "aoi_vs_v_pooled.csv")
    assert sorted(p.name for p in shared.iterdir()) == sorted(
        [f"V{v}_seed{seed}" for v, seed in SWEEP_CELLS] + list(tables))
    for name in tables:
        assert read(shared / name) == read(pooled / name)
    rows = read(shared / "aoi_vs_v.csv").splitlines()
    for i, (v, seed) in enumerate(SWEEP_CELLS):
        cell = f"V{v}_seed{seed}"
        alone = by_cell / f"{v}-{seed}" / "out"
        for name in CELL_FILES:
            assert read(shared / cell / name) == read(pooled / cell / name), (cell, name)
            assert read(shared / cell / name) == read(alone / cell / name), (cell, name)
        summary = summary_without(shared / cell / "summary.json")
        assert summary == summary_without(pooled / cell / "summary.json")
        del summary["config"]  # the echo names the sweep's V list and seed
        assert summary == summary_without(alone / cell / "summary.json", "config")
        assert read(alone / "aoi_vs_v.csv").splitlines()[1] == rows[1 + i]
        # every frame start is counted once; the later seeds of a V find
        # the shared frame-0 table. In the pool, seed 4 shares seed 3's
        # tables and seed 5 starts a run, as if alone.
        diagnostics = json.loads(read(shared / cell / "summary.json"))["diagnostics"]
        assert sum(diagnostics.values()) == 100
        assert diagnostics["exact_hits"] >= (seed > 3)
        pooled_diagnostics = json.loads(read(pooled / cell / "summary.json"))["diagnostics"]
        like = shared if seed < 5 else alone
        assert pooled_diagnostics == json.loads(read(like / cell / "summary.json"))["diagnostics"]


class InlinePool:
    """Stands in for concurrent.futures.ProcessPoolExecutor, which `run_cli`
    imports when it starts a pool: records max_workers and the arguments of
    each task, runs inline."""

    sizes: list[int] = []
    tasks: list[tuple] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize(
    "threads, cpus, pool_size",
    [("", 8, None), ("0", 8, None), ("1", 8, None), ("2", 8, 2), ("64", 8, 2),
     ("64", 1, None), (" 3 ", 8, 2)],
    ids=["unset", "zero", "one", "two", "above-cells", "one-cpu", "spaces"],
)
def test_thread_pool_capped(small_cfg, tmp_path, monkeypatch, threads, cpus, pool_size):
    # 2 cells: the pool never exceeds min(AOI_DPP_THREADS, #cells, #CPUs)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("AOI_DPP_THREADS", threads)
    out = tmp_path / "out"
    assert main(["--config", str(small_cfg), "--out", str(out)]) == 0
    assert InlinePool.sizes == ([] if pool_size is None else [pool_size])
    assert (out / "V0_seed3" / "summary.json").is_file()
    assert (out / "V2_seed3" / "summary.json").is_file()


@pytest.mark.parametrize("threads", ["x", "-1", "2.5", "+2", "1e3"])
def test_bad_thread_count_fails_before_compute(small_cfg, tmp_path, monkeypatch, capsys,
                                               threads):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setenv("AOI_DPP_THREADS", threads)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", str(small_cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: AOI_DPP_THREADS: ")
    assert [p.name for p in tmp_path.iterdir()] == [small_cfg.name]


def test_import_leaves_multiprocessing_unloaded():
    # Only a pooled run imports ProcessPoolExecutor, so a sequential run and
    # the cold start of the CLI never load multiprocessing.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, aoi_dpp.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
