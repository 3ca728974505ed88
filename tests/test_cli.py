import json
from pathlib import Path

import pytest

from aoi_dpp.cli import main
from aoi_dpp.config import parse_config_text, render_config, with_overrides

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
    ],
    ids=["v-nan", "v-inf", "thin-zero", "seed-negative"],
)
def test_bad_arguments_fail_before_compute(small_cfg, tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    assert main(["--config", str(small_cfg), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


def test_parallel_matches_sequential(small_cfg, tmp_path, monkeypatch):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    main(["--config", str(small_cfg), "--out", str(seq)])
    monkeypatch.setenv("AOI_DPP_THREADS", "2")
    main(["--config", str(small_cfg), "--out", str(par)])
    for cell in ("V0_seed3", "V2_seed3"):
        for name in ("slots.csv", "frames.csv", "aoi_hist.csv", "sched_fractions.csv"):
            assert read(seq / cell / name) == read(par / cell / name)
