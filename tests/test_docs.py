"""The README's key table, output table and export list match the code they
document."""

import re
from pathlib import Path

import aoi_dpp
from aoi_dpp.cli import main
from aoi_dpp.config import KNOWN_KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(heading: str) -> str:
    after = README.split(f"{heading}\n", 1)[1]
    return re.split(r"^#{2,} ", after, maxsplit=1, flags=re.MULTILINE)[0]


def test_readme_config_table_lists_known_keys():
    rows = [line for line in section("### Config files").splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([\w.]+)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    assert set(keys) == KNOWN_KEYS


def test_readme_library_exports_match_all():
    text = section("## Library").split("The package root exports exactly these names", 1)[1]
    bullets = text.split("\n\n")[1].splitlines()
    assert bullets and all(line.startswith("- ") for line in bullets)
    names = [name for line in bullets for name in re.findall(r"`(\w+)`", line.split(":")[0])]
    assert sorted(names) == sorted(aoi_dpp.__all__)
    assert all(hasattr(aoi_dpp, name) for name in aoi_dpp.__all__)


DUMP_RUN = """\
T = 2
K = 1
q = 0.5
A_max = 3
V = 1
channel.type = iid
channel.p1 = 0.9
channel.p2 = 0.8
horizon_slots = 8
"""


def test_readme_outputs_table_matches_a_dump_policy_run(tmp_path):
    rows = [line.split("|") for line in section("### Outputs").splitlines()
            if line.startswith("| `")]
    columns = {re.findall(r"`([^`]+)`", row[1])[0]: row[2] for row in rows}
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DUMP_RUN, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--dump-policy"]) == 0
    cell = out / "V1_seed1"
    assert sorted(columns) == sorted(p.name for p in cell.iterdir())
    for name, cell_text in columns.items():
        if name.endswith(".csv"):
            header = (cell / name).read_text(encoding="utf-8").splitlines()[0]
            assert re.findall(r"`([^`]+)`", cell_text)[0] == header
