"""Golden outputs of the CLI: every file a few small runs write, hashed.

The digests pin the artifact encoding byte for byte (CSV rows, float repr,
policy dump, summary.json layout, run-level tables) across refactors of the
writers. summary.json is hashed without its nondeterministic keys,
`wall_clock_s` and `diagnostics`, as `perfbench/stats.py` hashes it: parsed,
stripped and re-serialized the way the CLI writes it. A digest changes only
when an output byte changes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aoi_dpp import cli
from aoi_dpp.cli import main

GE = """\
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
replications = 2
"""

IID = """\
T = 4
K = 3
q = 1.5
A_max = 6
V = 5
channel.type = iid
channel.p1 = 0.7
channel.p2 = 0.6
horizon_slots = 203
warmup_slots = 20
seed = 11
"""

RUNS = {
    "ge-thin3-dump": (GE, ["--thin", "3", "--dump-policy"]),
    "iid-thin7-dump": (IID, ["--thin", "7", "--dump-policy"]),
    # 9001 slots: slots.csv spans several row blocks
    "ge-deadline_first": (
        GE + "policy = deadline_first\n",
        ["--v-list", "1", "--horizon", "9001", "--thin", "2", "--dump-policy"],
    ),
}

#: summary.json keys that differ between runs of the same config: the wall
#: clock, and the table lookups, which depend on how cells share tables.
MASKED_SUMMARY_KEYS = ("wall_clock_s", "diagnostics")


def run_digest(text: str, flags: list[str]) -> str:
    """Run the CLI in the current directory; summary.json echoes `out_dir`."""
    Path("exp.cfg").write_text(text, encoding="utf-8")
    assert main(["--config", "exp.cfg", "--out", "out", *flags]) == 0
    out = Path("out")
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            for key in MASKED_SUMMARY_KEYS:
                del summary[key]
            data = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
        h.update(f"{path.relative_to(out).as_posix()}\n".encode())
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


# Recorded with the per-file writers (one function per CSV, one NumPy scalar
# per field), so they also pin the block-formatted writer to their bytes.
GOLDEN = {
    "ge-thin3-dump": "6ea70d999a13c63f3dc51aa036bf6d791f139a84371d71b570497cac974cdb55",
    "iid-thin7-dump": "2158114558c92231d0ffda6908894e33aa33681384e8dce231fbfda5967ab499",
    "ge-deadline_first": "d49cabcb4b923af4fd8a4a032c8fbb1cf152b2ef7360deb40e43c8e348affbe9",
}


@pytest.mark.parametrize("block", [cli.BLOCK_ROWS, 5], ids=["block-default", "block-5"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_outputs_match_golden(tmp_path, monkeypatch, run, block):
    # the bytes must not depend on how many slots.csv rows are formatted at once
    monkeypatch.setattr(cli, "BLOCK_ROWS", block)
    monkeypatch.delenv("AOI_DPP_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_digest(*RUNS[run]) == GOLDEN[run]
