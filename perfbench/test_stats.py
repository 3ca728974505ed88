"""Tests of the benchmark's own arithmetic on synthetic inputs.

    python3 -m pytest -q perfbench
"""

import hashlib
import json

import pytest

from probe import host_factor
from stats import (
    Span,
    count_failed_cells,
    fail_frac,
    file_digest,
    kernel_work,
    self_times,
    tail_percentile,
)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("child", 1.0, 4.0, 0, "c0"),
        Span("grandchild", 2.0, 3.5, 1, "c0"),
        Span("child", 5.0, 6.0, 0, "c1"),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 5.0, 0, None),
        Span("b", 3.0, 7.0, 0, None),
        Span("c", 9.0, 12.0, 0, None),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_p95_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 201)]
    # nearest rank ceil(0.95 * 200) = 190, leaving exactly 10 samples above
    assert tail_percentile(samples, 0.95) == 190.0
    assert tail_percentile(samples[::-1], 0.95) == 190.0
    assert tail_percentile(samples[:199], 0.95) is None
    assert tail_percentile([], 0.95) is None


def test_summary_digest_masks_wall_clock(tmp_path):
    summary = {"V": 5.0, "mean_aoi": 3.25, "seed": 1, "wall_clock_s": 1.5}
    a = tmp_path / "a" / "summary.json"
    b = tmp_path / "b" / "summary.json"
    a.parent.mkdir()
    b.parent.mkdir()
    a.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    b.write_text(json.dumps({**summary, "wall_clock_s": 99.0}, indent=2, sort_keys=True) + "\n")
    assert file_digest(a) == file_digest(b)
    b.write_text(json.dumps({**summary, "mean_aoi": 3.2500000000000004}, indent=2,
                            sort_keys=True) + "\n")
    assert file_digest(a) != file_digest(b)


def test_csv_digest_is_plain_sha256(tmp_path):
    path = tmp_path / "slots.csv"
    path.write_bytes(b"t,A\n0,1\n")
    assert file_digest(path) == hashlib.sha256(b"t,A\n0,1\n").hexdigest()


def test_fail_frac_counts_cells():
    reference = {
        "aoi_vs_v.csv": "r",
        "V0_seed1/slots.csv": "a",
        "V0_seed1/summary.json": "b",
        "V5_seed1/slots.csv": "c",
        "V5_seed1/summary.json": "d",
        "V10_seed1/slots.csv": "e",
    }
    assert count_failed_cells(reference, dict(reference)) == (3, 0)
    # two bad files in one cell fail that cell once; extra files are ignored
    actual = {**reference, "V0_seed1/slots.csv": "x", "V0_seed1/summary.json": "y",
              "V0_seed1/extra.csv": "z"}
    assert count_failed_cells(reference, actual) == (3, 1)
    missing = {k: v for k, v in reference.items() if k != "V10_seed1/slots.csv"}
    assert count_failed_cells(reference, missing) == (3, 1)
    # a wrong run-level table fails every cell; so does a call with no output
    assert count_failed_cells(reference, {**reference, "aoi_vs_v.csv": "x"}) == (3, 3)
    assert count_failed_cells(reference, {}) == (3, 3)
    assert fail_frac(3, 1) == pytest.approx(1 / 3)
    assert fail_frac(40, 0) == 0.0
    with pytest.raises(ValueError):
        fail_frac(0, 0)


def test_kernel_work_counts_feasible_pairs():
    # one stage, one state, two feasible actions, two branches each
    flop, nbytes = kernel_work(T=1, S=1, branches=2, n_feasible=2)
    assert flop == 2 * 2 + 1 * 2 * (2 * 2 + 2)
    assert nbytes == 3 * 17 + 2 * (24 * 2 + 8) + 9


def test_host_factor_weights_the_probe_parts():
    # probes before and after an interval, as (numpy, python) slowdowns
    assert host_factor((1.0, 2.0), (3.0, 2.0), numpy_share=0.25) == pytest.approx(2.0)
    assert host_factor((1.0, 1.0), (1.0, 3.0), numpy_share=0.5) == pytest.approx(1.5)
    assert host_factor((4.0, 1.0), (4.0, 1.0), numpy_share=0.0) == pytest.approx(1.0)
