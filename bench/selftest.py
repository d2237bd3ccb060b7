"""Self-test of the benchmark.

    python3 bench/selftest.py

1. A short run of every workload, untraced and traced, fails no op and
   reports exactly the metrics BENCHMARK.json names.
2. A corrupted expected answer is counted as failed ops, so the checker
   really compares.
3. In a directory that holds only BENCHMARK.json and bench/, run.py exits
   with a nonzero code and prints no result.

Exits 0 when all three hold.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def short_run(workload: str, trace: int) -> dict:
    """One run with a one-second window and no minimum pass count."""
    out = io.StringIO()
    saved, run.MIN_PASSES = run.MIN_PASSES, 1
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(
                ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            )
    finally:
        run.MIN_PASSES = saved
    assert code == 0, f"{workload}: exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_every_workload_reports_every_metric() -> None:
    names = {
        0: {m["name"] for m in SPEC["end_to_end"]},
        1: {m["name"] for m in SPEC["per_layer"]},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            result = short_run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert set(result["metrics"]) == names[trace], (workload, trace)
            if trace == 0:
                assert result["metrics"]["pass_rate"]["value"] == 1.0


def test_corrupted_answer_is_a_failure() -> None:
    build = workloads.build

    def corrupted(*args, **kwargs):
        plan = build(*args, **kwargs)
        ref = plan.refs["star5-0.gls"]
        ref.__dict__["states"] = ref.states[1:]  # one state short of the truth
        return plan

    workloads.build = corrupted
    try:
        result = short_run("star-ladder", 0)
    finally:
        workloads.build = build
    assert not result["correct"] and result["failed"] > 0, result
    assert result["metrics"]["pass_rate"]["value"] < 1.0


def test_refuses_a_directory_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "realized",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done


def main() -> int:
    for test in (
        test_every_workload_reports_every_metric,
        test_corrupted_answer_is_a_failure,
        test_refuses_a_directory_without_sources,
    ):
        test()
        print(f"ok  {test.__name__}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
