"""The eulerlab benchmark.

Run from the root of a checkout:
    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0

One closed-loop client with one thread sends the requests of a workload (see
workloads.py), one pass after another, each pass in a fresh interpreter so
that nothing cached carries over between passes; caches may be shared within
a pass, as within one selftest session.  Passes are sent until the next one
would end after --seconds.  Every output is checked against the digest in
reference.json, and so are the listings, series and sampled map images the
program builds inside a request (outputs.py).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The line before it records the environment, the seed, failed_frac and the raw
setup_s and wall_s.  Every reported time is normalized for machine speed (see
speed.py): it reads as seconds on a reference machine.

--trace 0 reports the end-to-end metrics:
  setup_s      median wall time of a fresh interpreter that imports eulerlab
               and answers `count --class A --n 1` (a cold CLI call), over
               SETUP_CALLS calls after one warm-up call
  wall_s       median over passes of a pass's summed request time
  p50_ms       cli_mix: median request latency over every request of the run;
  p99_ms         series_verify and listing_maps: percentiles of the pass
                 latency, since a pass is one verification session that a
                 user waits for as a whole (latency of single calls inside
                 it is in the traced run)
  req_per_s    median over passes of requests answered per second of the
               pass's request time
  peak_rss_mb  median over passes of the pass's peak resident set size
--trace 1 runs pass 0 untraced and then traced, pair after pair until the
next pair would end after --seconds, and reports the per-layer metrics of
tracing.PER_LAYER as medians over the traced passes, and the tracing overhead
as the traced median pass time minus the untraced one; its detail line names
the end-to-end metric each per-layer metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import workloads
from tracing import COUNTS, PER_LAYER
from worker import digest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_CALLS = 15
CHILD_TIMEOUT_S = 150
# A cold CLI call, then a speed sample of the same process (see measure_setup).
SETUP_CODE = f"""import sys, time
sys.path.insert(0, 'src')
from eulerlab.cli import main
code = main({workloads.SETUP_ARGV!r})
t0 = time.perf_counter()
sys.path.insert(0, {HERE!r})
from speed import SpeedSampler
sampler = SpeedSampler()
for _ in range(4):
    sampler.warm()
print(sampler.factor(0, len(sampler.samples)), time.perf_counter() - t0, file=sys.stderr)
sys.exit(code)
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one eulerlab benchmark workload.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_pass(requests: list, reference: dict, trace: bool, fault: str | None = None) -> dict:
    """Send one pass through a fresh worker interpreter."""
    spec = {"requests": requests, "trace": trace, "fault": fault, "outputs": reference["outputs"]}
    proc = subprocess.run(
        [sys.executable, WORKER],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def count_failures(requests: list, result: dict, reference: dict) -> int:
    """Requests whose output digest differs or whose inner results mismatched."""
    expected = reference["digests"]
    return sum(
        expected.get(workloads.request_key(req)) != got or mismatched > 0
        for req, got, mismatched in zip(requests, result["digests"], result["mismatches"], strict=True)
    )


def measure_setup(reference: dict) -> tuple[float, float, int, int]:
    """Median cold-CLI time, normalized and raw, and the calls attempted and failed.

    After answering, the child samples its own speed (speed.py) and reports
    the factor and the time that took, which is not counted.  Samples taken
    in this process instead ran on another core, or at another moment, than
    the child, and made the spread worse, not better (on a shared 2-vCPU
    Xeon virtual machine).
    """
    want = reference["digests"][workloads.request_key(["cli", workloads.SETUP_ARGV])]
    normalized, raw, failed = [], [], 0
    for i in range(SETUP_CALLS + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
        elapsed = perf_counter() - t0
        failed += digest(f"exit={proc.returncode}\n{proc.stdout}") != want
        factor, sampling = map(float, proc.stderr.splitlines()[-1].split())
        if i:  # the first call warms the bytecode and file caches
            raw.append(elapsed - sampling)
            normalized.append((elapsed - sampling) * factor)
    return statistics.median(normalized), statistics.median(raw), SETUP_CALLS + 1, failed


def end_to_end(workload: str, passes: list[dict], setup_s: float) -> dict:
    walls = [sum(p["latencies"]) for p in passes]
    if workload == "cli_mix":
        latencies = [t for p in passes for t in p["latencies"]]
    else:
        latencies = walls
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "p50_ms": (1000 * percentile(latencies, 0.50), "ms"),
        "p99_ms": (1000 * percentile(latencies, 0.99), "ms"),
        "req_per_s": (statistics.median(len(p["latencies"]) / w for p, w in zip(passes, walls)), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced passes; the overhead is the traced median pass
    time minus the untraced one."""
    values = {}
    for name in traced[0]["layers"]:
        samples = [t["layers"][name] for t in traced]
        # counts repeat exactly; median_low keeps them whole numbers
        counted = name.rpartition(".")[2] in COUNTS
        values[name] = statistics.median_low(samples) if counted else statistics.median(samples)
    plain_wall = statistics.median(sum(p["latencies"]) for p in untraced)
    traced_wall = statistics.median(sum(p["latencies"]) for p in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return {name: {"value": values[name], "unit": unit} for name, unit, _moves in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "eulerlab", "__init__.py")):
        print("error: run from the root of an eulerlab checkout (no src/eulerlab)", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    attempted = failed = 0

    def send(index: int, trace: bool) -> dict:
        nonlocal attempted, failed
        requests = workloads.pass_requests(args.workload, args.seed, index, reference)
        result = run_pass(requests, reference, trace)
        attempted += len(requests)
        failed += count_failures(requests, result, reference)
        return result

    def repeat(send_once) -> list:
        """Call send_once(count so far) until the next call would end after --seconds."""
        start, results, clock = perf_counter(), [], []
        while True:
            t0 = perf_counter()
            results.append(send_once(len(results)))
            clock.append(perf_counter() - t0)
            if perf_counter() - start + statistics.median(clock) > args.seconds:
                return results

    if args.trace:
        pairs = repeat(lambda _: (send(0, False), send(0, True)))
        metrics = per_layer([u for u, _ in pairs], [t for _, t in pairs])
        extra = {"passes": 2 * len(pairs), "moves": {name: moves for name, _unit, moves in PER_LAYER}}
    else:
        setup_s, raw_setup_s, attempted, failed = measure_setup(reference)
        results = repeat(lambda index: send(index, False))
        metrics = end_to_end(args.workload, results, setup_s)
        raw_wall_s = statistics.median(sum(p["raw_latencies"]) for p in results)
        extra = {"passes": len(results), "raw_seconds": {"setup_s": raw_setup_s, "wall_s": raw_wall_s}}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        "env": environment(),
        **extra,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
