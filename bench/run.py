"""greechie benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload realized --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; greechie is imported from the
checkout's ``src/``.  The script writes the workload's seeded inputs to a
scratch directory under ``bench/out/``, times fresh interpreters importing
``greechie.cli`` (``setup_s``), runs the op list in a fresh worker process
(``worker.py``), checks every distinct output against ``oracle`` and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A readable table goes to stderr, and the full
record -- environment, sample counts, layer shares and the sha256 digest of
every op's output -- to ``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from worker import reference_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 8  # with 15 or more ops a pass, at least ten samples lie beyond p90
REFERENCE_MS = 2.5  # reference loop time that timings are scaled to; see end_to_end
SETUP_REPEATS = 11
WORKER_TIMEOUT = 160


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall and scaled times from starting a fresh interpreter to ``import greechie.cli`` done.

    The child prints ``time.perf_counter()`` once the import has returned; on
    Linux that clock is CLOCK_MONOTONIC, shared by all processes.  Interpreter
    exit is left out: it adds about 40 ms of thread teardown, in steps of
    about 50 ms, that no CLI run waits for before its output is complete.
    Each start is scaled like an op (see ``end_to_end``), by the reference
    loop run just before and just after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import greechie.cli, time; print(time.perf_counter())"]
    subprocess.run(command, env=env, check=True, timeout=60, capture_output=True)  # byte-compiles
    wall, scaled = [], []
    after = reference_ns()
    for _ in range(SETUP_REPEATS):
        before = after
        start = time.perf_counter()
        done = subprocess.run(
            command, env=env, check=True, timeout=60, capture_output=True, text=True
        )
        after = reference_ns()
        seconds = float(done.stdout) - start
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_MS * 1e6 / ((before + after) / 2))
    return wall, scaled


def run_worker(plan, workdir: Path, seconds: int, trace: int, spans: Path) -> dict:
    spec = {
        "src": str(SRC),
        "workdir": str(workdir),
        "ops": [op.spec() for op in plan.ops],
        "seconds": seconds,
        "min_passes": 0 if trace else MIN_PASSES,
        "trace": trace,
        "result": str(workdir / "result.json"),
        "spans": str(spans),
    }
    plan_file = workdir / "plan.json"
    plan_file.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_file)],
        check=True,
        timeout=WORKER_TIMEOUT,
    )
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def check_outputs(plan, result: dict, workdir: Path, validator) -> dict:
    """Check each distinct output once and count every execution's verdict."""
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    digests: dict[str, list[str]] = {}
    for op, record in zip(plan.ops, result["ops"]):
        untraced = sorted({o[1] for o in record["outcomes"] if o[0] != "traced"})
        verdicts: dict[str, list[str]] = {}
        for phase, digest, code, err, path, count in record["outcomes"]:
            attempted += count
            if digest not in verdicts:
                text = (workdir / path).read_text(encoding="utf-8")
                try:
                    if op.args:
                        ref = plan.refs[op.input]
                        verdicts[digest] = checks.check_cli(op.args, ref, text, validator)
                    else:
                        vectors = plan.vectors[op.input]
                        verdicts[digest] = checks.check_complete(vectors, text)
                except (KeyError, TypeError, ValueError) as exc:
                    verdicts[digest] = [f"malformed output: {exc!r}"]
            issues = list(verdicts[digest])
            if code != 0:
                issues.append(f"exit code {code}")
            if err:
                issues.append("stderr: " + err.strip().splitlines()[-1])
            if phase == "traced" and digest not in untraced:
                issues.append("traced output differs from the untraced output")
            if issues:
                failed += count
                problems.setdefault(op.id, issues)
        digests[op.id] = untraced
    return {"attempted": attempted, "failed": failed, "problems": problems, "digests": digests}


def end_to_end(
    result: dict, setup: list[float], setup_wall: list[float], verdict: dict
) -> tuple[dict, dict]:
    """Timings at reference speed, with wall-clock figures as counts beside them.

    A shared host runs the worker faster or slower from second to second and
    from minute to minute.  Each op's wall time is divided by the time of the
    reference loop run around it (``worker.reference_ns``) and multiplied by
    ``REFERENCE_MS``: the op's time on a host where that loop takes
    ``REFERENCE_MS``.  A change to greechie moves these figures as it moves
    wall time, while most of the host's drift cancels out.
    """
    scaled = [
        [ns / ref * REFERENCE_MS for ns, ref in zip(op["latency_ns"], op["reference_ns"])]
        for op in result["ops"]
    ]
    samples = sorted(x for op in scaled for x in op)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    pass_ms = sum(statistics.median(op) for op in scaled)
    wall = [[ns / 1e6 for ns in op["latency_ns"]] for op in result["ops"]]
    wall_samples = [x for op in wall for x in op]
    metrics = {
        "ops_per_s": len(scaled) / (pass_ms / 1e3),
        "latency_p50_ms": statistics.median(samples),
        "latency_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(setup),
        "pass_rate": 1 - verdict["failed"] / verdict["attempted"],
    }
    counts = {
        "latency_samples": len(samples),
        "samples_beyond_p90": sum(1 for x in samples if x > p90),
        "passes": sum(1 for p in result["passes"] if p["phase"] == "measure"),
        "setup_samples": len(setup),
        "fail_rate": verdict["failed"] / verdict["attempted"],
        "reference_median_ms": statistics.median(
            ns / 1e6 for op in result["ops"] for ns in op["reference_ns"]
        ),
        "wall_ops_per_s": len(wall) / (sum(statistics.median(op) for op in wall) / 1e3),
        "wall_latency_p50_ms": statistics.median(wall_samples),
        "wall_latency_p90_ms": statistics.quantiles(wall_samples, n=10, method="inclusive")[8],
        "wall_setup_s": statistics.median(setup_wall),
    }
    return metrics, counts


def per_layer(result: dict) -> tuple[dict, dict]:
    traced = [p for p in result["passes"] if p["phase"] == "traced"]
    measured = [p for p in result["passes"] if p["phase"] == "measure"]
    metrics = {
        name: statistics.median_low(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        p["ns"] for p in traced
    ) / statistics.median(p["ns"] for p in measured)
    total = metrics["trace.traced_s"]
    groups = {
        "gls+model": [k for k in metrics if k.split(".")[0] in ("gls", "model")],
        "search+rules+collapse": [
            "analysis.enumerate_s", "analysis.rules_s", "analysis.collapse_s"
        ],
        "cli.self": ["cli.self_s"],
    }
    shares = {
        group: sum(metrics[k] for k in keys if k.endswith("_s")) / total
        for group, keys in groups.items()
    }
    return metrics, {"passes": len(traced), "share_of_traced_time": shares}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "greechie" / "cli.py").is_file():
        print(f"error: no greechie sources at {SRC}", file=sys.stderr)
        return 2
    try:
        import jsonschema
    except ImportError:
        print("error: checking the JSON outputs needs the jsonschema package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    schema = json.loads((SRC / "greechie" / "schema" / "report.schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)

    name = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            plan = workloads.build(args.workload, args.seed, workdir, SRC / "greechie" / "corpus")
        except workloads.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        setup_wall, setup = ([], []) if args.trace else measure_setup()
        result = run_worker(plan, workdir, args.seconds, args.trace, OUT / f"{name}.spans.jsonl")
        verdict = check_outputs(plan, result, workdir, validator)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, counts = per_layer(result)
    else:
        metrics, counts = end_to_end(result, setup, setup_wall, verdict)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "metrics": metrics,
        "counts": counts,
        "op_wall_ms": {
            op["id"]: [ns / 1e6 for ns in op["latency_ns"]] for op in result["ops"]
        },
        "op_reference_ms": {
            op["id"]: [ns / 1e6 for ns in op["reference_ns"]] for op in result["ops"]
        },
        "setup_wall_s": setup_wall,
        "setup_scaled_s": setup,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "problems": verdict["problems"],
        "output_sha256": verdict["digests"],
    }
    (OUT / f"{name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )

    env = result["env"]
    print(
        f"{name} trace={args.trace}: python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}; {verdict['attempted']} ops, {verdict['failed']} failed",
        file=sys.stderr,
    )
    for key, value in {**metrics, **counts}.items():
        print(f"  {key:28} {value!s:>24} {units.get(key, '')}", file=sys.stderr)
    for op_id, issues in list(verdict["problems"].items())[:10]:
        print(f"  FAILED {op_id}: {'; '.join(issues)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": verdict["failed"] == 0,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
