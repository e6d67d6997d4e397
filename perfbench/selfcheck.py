"""Checks of the benchmark itself.

Run from the root of a checkout:
    python3 perfbench/selfcheck.py [--seed N]

1. BENCHMARK.json lists exactly the per-layer metrics of tracing.PER_LAYER.
2. reference.json has a digest for every request any pass can send.
3. Seeded faults: pass 0 of each workload, run with a public function
   rebound to a wrong version (worker.FAULTS), must report failures, and the
   same pass without the fault must report none.  series_verify makes no map
   or enumeration calls and listing_maps no series calls, so each is paired
   with the faults in the layers it loads; cli_mix must catch all three.
   enumerate_order keeps every count, set and round trip right, so only the
   check of inner results (outputs.py) catches it on listing_maps.
4. Two traced runs of pass 0 give identical deterministic counts.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads
from run import count_failures, run_pass
from tracing import COUNTS, PER_LAYER

FAULTS_CAUGHT = {
    "series_verify": ("gf_class",),
    "listing_maps": ("c_to_b", "enumerate_order"),
    "cli_mix": ("gf_class", "c_to_b", "enumerate_order"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    reference = workloads.load_reference()
    problems = []

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    if listed != [(name, unit) for name, unit, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")

    possible = workloads.every_series_request() + [list(r) for r in workloads.LISTING_REQUESTS]
    possible += [["cli", argv] for pool in reference["pools"].values() for argv in pool]
    missing = [r for r in possible if workloads.request_key(r) not in reference["digests"]]
    if missing:
        problems.append(f"{len(missing)} requests have no reference digest, e.g. {missing[0]}")

    for workload, faults in FAULTS_CAUGHT.items():
        requests = workloads.pass_requests(workload, seed, 0, reference)
        for fault in (None,) + faults:
            failed = count_failures(requests, run_pass(requests, reference, False, fault), reference)
            print(f"{workload:14} fault={fault or '-':15} failed {failed}/{len(requests)}")
            if (failed > 0) != (fault is not None):
                problems.append(f"{workload} with fault {fault}: {failed} failed")

        layers = [run_pass(requests, reference, True)["layers"] for _ in range(2)]
        counts = [
            {k: v for k, v in run.items() if k.rpartition(".")[2] in COUNTS} for run in layers
        ]
        print(f"{workload:14} traced twice: {len(counts[0])} deterministic counts "
              f"{'identical' if counts[0] == counts[1] else 'DIFFER'}")
        if counts[0] != counts[1]:
            problems.append(f"{workload}: deterministic counts differ between traced runs")

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join("src", "eulerlab", "__init__.py")):
        sys.exit("error: run from the root of an eulerlab checkout")
    sys.exit(main())
