"""Run one workload's op list in a fresh process and record what it measured.

    python bench/worker.py PLAN.json

``run.py`` writes the plan (source path, work directory, ops, run length,
trace flag) and reads the result file this script writes.  The worker is a
closed loop with one client: each op starts when the previous one has
returned.  An op is one in-process ``greechie.cli.main(argv)`` call with
stdout and stderr captured, or one ``analysis.complete_contexts`` call.

Pass 0 is a warm-up.  Then the worker runs measured passes until ``seconds``
have passed and at least ``min_passes`` measured passes are done.  In a
measured pass a fixed reference loop runs before the first op and after each
op; the mean of the two loop times around an op records how fast the host
ran the worker just then.  With
``trace`` set, every measured pass is followed by a traced pass, so the
tracing overhead is a comparison of neighbouring passes.  Every distinct
output of an op is written to the work directory once, under its sha256
digest, for ``run.py`` to check.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

MAX_MEASURE_SECONDS = 120
REFERENCE_ROUNDS = 6000


def reference_ns() -> int:
    """Wall time of a fixed pure-Python loop, with the garbage collector off.

    The loop does the kind of work greechie's ops do (small-integer
    arithmetic, tuples, dict lookups) and allocates nothing that outlives
    it, so its time follows the host's speed and nothing greechie holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    seen: dict[tuple[int, int], int] = {}
    for i in range(REFERENCE_ROUNDS):
        a, b = i % 17 - 8, i % 5 - 2
        key = (a * a + 2 * b * b, 2 * a * b)
        seen[key] = seen.get(key, 0) + 1
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def _runner(spec: dict, cli, analysis, Ray):
    """A no-argument callable that runs the op once: (ns, exit code, stdout, stderr)."""
    if "argv" in spec:
        argv = spec["argv"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter_ns()
                code = cli.main(argv)
                elapsed = time.perf_counter_ns() - start
            return elapsed, code, out.getvalue(), err.getvalue()

        return run

    pairs = []
    for line in Path(spec["vectors"]).read_text(encoding="utf-8").splitlines():
        label, *tokens = line.split()
        pairs.append((label, Ray.of(*tokens)))
    dimension = spec["dimension"]

    def run():
        start = time.perf_counter_ns()
        logic = analysis.complete_contexts(pairs, dimension)
        elapsed = time.perf_counter_ns() - start
        doc = {
            "atoms": [a.label for a in logic.atoms],
            "contexts": [list(c.members) for c in logic.contexts],
        }
        return elapsed, 0, json.dumps(doc), ""

    return run


def peak_rss_kb() -> int:
    """High-water resident set of this process image, in KiB (``VmHWM``).

    Not ``ru_maxrss``: Linux carries the parent's high-water mark over the
    exec that starts the worker, so it would report ``run.py``'s own peak,
    which holds the inputs and the reference answers.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    os.chdir(plan["workdir"])

    import numpy
    from greechie import analysis, cli
    from greechie.model import Ray
    from spans import Tracer

    ops = plan["ops"]
    runners = [_runner(spec, cli, analysis, Ray) for spec in ops]
    latencies: list[list[int]] = [[] for _ in ops]
    references: list[list[int]] = [[] for _ in ops]
    outcomes: list[dict[str, list]] = [{} for _ in ops]
    passes: list[dict] = []
    spans: list[list] = []

    def run_pass(phase: str, tracer: Tracer | None = None) -> None:
        gc.collect()
        total_ns = out_bytes = 0
        if tracer:
            tracer.install()
        before = reference_ns() if phase == "measure" else 0
        try:
            for i, run in enumerate(runners):
                if tracer:
                    tracer.op = ops[i]["id"]
                try:
                    ns, code, out, err = run()
                except Exception:
                    ns, code, out, err = 0, -1, "", traceback.format_exc()
                if phase == "measure":
                    after = reference_ns()
                    latencies[i].append(ns)
                    references[i].append((before + after) // 2)
                    before = after
                total_ns += ns
                data = out.encode("utf-8")
                out_bytes += len(data)
                digest = hashlib.sha256(data).hexdigest()
                key = f"{phase} {digest} {code}"
                if key not in outcomes[i]:
                    path = Path(f"out-{i}-{digest[:16]}.txt")
                    if not path.exists():
                        path.write_bytes(data)
                    outcomes[i][key] = [phase, digest, code, err[-2000:], str(path), 0]
                outcomes[i][key][5] += 1
        finally:
            if tracer:
                tracer.uninstall()
        record = {"phase": phase, "ns": total_ns}
        if tracer:
            record["layers"] = {**tracer.metrics(), "cli.output_bytes": out_bytes}
            n = len(passes)
            for span, self_ns in zip(tracer.spans, tracer.self_times()):
                spans.append([n, *span, self_ns])
        passes.append(record)

    run_pass("warmup")
    start = time.perf_counter()
    while True:
        run_pass("measure")
        if plan["trace"]:
            run_pass("traced", Tracer())
        elapsed = time.perf_counter() - start
        done = sum(1 for p in passes if p["phase"] == "measure")
        if elapsed >= MAX_MEASURE_SECONDS:
            break
        if elapsed >= plan["seconds"] and done >= plan["min_passes"]:
            break

    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
        "peak_rss_kb": peak_rss_kb(),
        "passes": passes,
        "ops": [
            {
                "id": spec["id"],
                "latency_ns": lat,
                "reference_ns": ref,
                "outcomes": list(out.values()),
            }
            for spec, lat, ref, out in zip(ops, latencies, references, outcomes)
        ],
    }
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    if plan["trace"]:
        with open(plan["spans"], "w", encoding="utf-8") as f:
            columns = ["pass", "name", "start_ns", "end_ns", "parent", "op", "leaf_ns", "self_ns"]
            f.write(json.dumps({"columns": columns}) + "\n")
            for row in spans:
                f.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
