"""Run one benchmark workload in two checkouts, in alternating pairs.

Run from anywhere as
    python3 tools/bench_pairs.py --workload listing_maps --pairs 10 PARENT_DIR CHANGE_DIR

Pair i runs `python3 perfbench/run.py --workload W --seed i --seconds S
--trace 0` in each checkout, seeds 1..N; the parent runs first in odd pairs
and the change in even ones.  --seconds defaults to run_seconds of
BENCHMARK.json.  Each run's result line is printed as it arrives, then, for
every end-to-end metric of BENCHMARK.json, the parent's median and quartiles,
the change's median and its difference from the parent's, and how many pairs
the change won by the metric's `better`; then each side's failed operations
and passes.  Both checkouts are only read: the runs write no bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The benchmark's two last lines, the detail and the result, as one dict."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(
        command,
        cwd=checkout,
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    detail, result = proc.stdout.splitlines()[-2:]
    return {**json.loads(result), "passes": json.loads(detail)["passes"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric, then one per side: failed operations
    and the median number of passes.  parent[i] and change[i] are pair i."""
    lines = []
    for metric in end_to_end:
        name = metric["name"]
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        lower = metric["better"] == "lower"
        wins = sum(a < b if lower else a > b for b, a in zip(before, after))
        med, (q1, q3) = statistics.median(before), quartiles(before)
        med_after = statistics.median(after)
        rel = (med_after - med) / med if med else 0.0
        lines.append(
            f"{name:<12} parent {med:.4g} [{q1:.4g}, {q3:.4g}]  change {med_after:.4g} ({rel:+.1%})"
            f"  change won {wins}/{len(before)} ({metric['better']} is better)"
        )
    for side, results in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        passes = statistics.median(r["passes"] for r in results)
        lines.append(f"{side} failed {failed} of {attempted}, median passes {passes:g}")
    return lines


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Alternating benchmark pairs of two checkouts.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            result = run_once(dirs[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {seed} {side}: {json.dumps(result)}", flush=True)
    print("\n".join(summarize(benchmark["end_to_end"], runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
