"""The scripts under ``tools/`` that build BENCH files, on their smallest inputs."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_compare  # noqa: E402

DECLARED = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def record(ops_per_s: float, digest: str = "d") -> dict:
    return {"env": {}, "metrics": {"ops_per_s": ops_per_s}, "output_sha256": digest}


def test_one_value_is_its_own_median_and_quartiles():
    assert bench_compare.spread([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5, "values": [3.5]}


def test_one_seed_pair_compares():
    result = bench_compare.compare("w", {7: record(1.0)}, {7: record(2.0)}, DECLARED)
    metric = result["metrics"]["ops_per_s"]
    assert (metric["before"]["median"], metric["after"]["median"]) == (1.0, 2.0)
    assert (metric["after_better_pairs"], metric["pairs"]) == (1, 1)
    assert result["output_digests_identical"]


def test_no_shared_seed_names_the_workload():
    with pytest.raises(SystemExit, match="star-ladder: no seed ran on both sides"):
        bench_compare.compare("star-ladder", {1: record(1.0)}, {2: record(1.0)}, DECLARED)
