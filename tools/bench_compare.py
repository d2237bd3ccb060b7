"""Compare the benchmark records of two commits and write one BENCH document.

    python3 tools/bench_compare.py --before PARENT/bench/out --after CHANGE/bench/out \
        --before-commit 73ae60c --after-commit HEAD --out BENCH_11.json \
        --command "..." --command "..."

Each directory holds the ``<workload>-seed<N>-trace0.json`` records that
``python3 bench/run.py --workload W --seed N --seconds 30 --trace 0`` writes
in a checkout.  Per workload that both sides ran with the same seeds, the
document gives the seeds, each side's ``env``, and for every end-to-end
metric of ``BENCHMARK.json`` each side's values, median and quartiles, the
declared bound, and in how many seed pairs the after side is better.  It
also says whether every op's output digests matched seed by seed.  It
computes nothing that the records do not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def records(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> record, for the untraced runs in ``directory``."""
    found: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*-seed*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        found.setdefault(record["workload"], {})[record["seed"]] = record
    return found


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(before: dict[int, dict], after: dict[int, dict], declared: list[dict]) -> dict:
    seeds = sorted(set(before) & set(after))
    metrics = {}
    for metric in declared:
        name = metric["name"]
        old = [before[s]["metrics"][name] for s in seeds]
        new = [after[s]["metrics"][name] for s in seeds]
        higher = metric["better"] == "higher"
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "before": spread(old),
            "after": spread(new),
            "after_better_pairs": sum((b > a) if higher else (b < a) for a, b in zip(old, new)),
            "pairs": len(seeds),
        }
    return {
        "seeds": seeds,
        "env": {"before": before[seeds[0]]["env"], "after": after[seeds[0]]["env"]},
        "metrics": metrics,
        "output_digests_identical": all(
            before[s]["output_sha256"] == after[s]["output_sha256"] for s in seeds
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, required=True)
    parser.add_argument("--before-commit", required=True)
    parser.add_argument("--after-commit", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--command", action="append", default=[])
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    before, after = records(args.before), records(args.after)
    document = {
        "before": args.before_commit,
        "after": args.after_commit,
        "commands": args.command,
        "workloads": {
            workload: compare(before[workload], after[workload], declared)
            for workload in sorted(set(before) & set(after))
        },
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
