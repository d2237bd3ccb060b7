"""Time one-shot ``greechie`` runs from two source trees in fresh interpreters.

    python3 tools/oneshot_compare.py --before PARENT/src --after CHANGE/src \
        --runs 21 --out oneshot.json

Each run is ``python -m greechie.cli check gamma3pair.gls``, the same with
``quantum``, or ``states --count-only gamma3pair.gls``, in a new interpreter,
started in the tree's corpus directory with ``PYTHONPATH`` set to that tree,
and timed in wall time from start to exit.  The two sides alternate, and
which one goes first alternates from round to round.  Both trees are
byte-compiled first, so neither side pays for compiling the package.  Per
subcommand the document gives each side's times in ms, their median and
quartiles, in how many rounds the after side was faster, and whether both
sides printed the same output with the same exit code.
``tools/bench_compare.py --oneshot`` embeds the document in a BENCH file.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from bench_compare import spread

COMMANDS = (
    ("check", "gamma3pair.gls"),
    ("quantum", "gamma3pair.gls"),
    ("states", "--count-only", "gamma3pair.gls"),
)


def run_once(src: Path, argv: tuple[str, ...]) -> tuple[float, str]:
    """Wall time in ms of one fresh run, and a digest of its exit code and output."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter_ns()
    result = subprocess.run(
        [sys.executable, "-m", "greechie.cli", *argv],
        cwd=src / "greechie" / "corpus",
        env=env,
        capture_output=True,
    )
    elapsed = (time.perf_counter_ns() - start) / 1e6
    digest = hashlib.sha256(b"%d\n" % result.returncode + result.stdout + result.stderr)
    return elapsed, digest.hexdigest()


def compare(before: Path, after: Path, argv: tuple[str, ...], runs: int) -> dict:
    times: dict[Path, list[float]] = {before: [], after: []}
    digests: dict[Path, set[str]] = {before: set(), after: set()}
    for round_ in range(runs):
        for src in (before, after) if round_ % 2 == 0 else (after, before):
            elapsed, digest = run_once(src, argv)
            times[src].append(elapsed)
            digests[src].add(digest)
    return {
        "argv": ["greechie", *argv],
        "unit": "ms",
        "before": spread(times[before]),
        "after": spread(times[after]),
        "after_better_pairs": sum(b < a for a, b in zip(times[before], times[after])),
        "pairs": runs,
        "output_identical": len(digests[before]) == 1 and digests[before] == digests[after],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="the parent's src/")
    parser.add_argument("--after", type=Path, required=True, help="the change's src/")
    parser.add_argument(
        "--runs", type=int, default=21, help="runs per side; a BENCH file wants at least 11"
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    before, after = args.before.resolve(), args.after.resolve()
    for src in (before, after):
        compileall.compile_dir(src, quiet=1)
    document = {
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "runs": {
            argv[0]: compare(before, after, argv, args.runs) for argv in COMMANDS
        },
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
