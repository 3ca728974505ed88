"""The README's key table and export list match the code they document."""

import re
from pathlib import Path

import aoi_dpp
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
