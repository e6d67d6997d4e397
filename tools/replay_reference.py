"""Replay every request of perfbench/reference.json and count mismatches.

Run from anywhere as
    python3 tools/replay_reference.py

Each request any benchmark pass can send (the cli pools, the series and
listing requests, the setup call) goes once, in one fresh interpreter,
through perfbench/worker.py, as tests/test_benchmark_hooks.py sends its few.
The worker checks every inner result the reference holds (listings, series,
sampled map images); this script compares every output digest.  It prints
both mismatch counts and exits 1 if either is above 0.  It reads perfbench/
and writes nothing there.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_requests() -> tuple[list, list[str], dict]:
    """(requests, their recorded digests, recorded inner results)."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    reference = workloads.load_reference()
    requests = [json.loads(key) for key in reference["digests"]]
    return requests, list(reference["digests"].values()), reference["outputs"]


def replay(requests: list, outputs: dict) -> dict:
    spec = {"requests": requests, "trace": False, "fault": None, "outputs": outputs}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode != 0:
        sys.exit(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    requests, expected, outputs = load_requests()
    t0 = time.perf_counter()
    result = replay(requests, outputs)
    elapsed = time.perf_counter() - t0
    wrong = [r for r, got, want in zip(requests, result["digests"], expected) if got != want]
    inner = sum(result["mismatches"])
    for request in wrong[:10]:
        print(f"digest mismatch: {json.dumps(request)}")
    print(f"{len(requests)} requests in {elapsed:.1f} s")
    print(f"digest mismatches: {len(wrong)}")
    print(f"inner-result mismatches: {inner}")
    return 1 if wrong or inner else 0


if __name__ == "__main__":
    sys.exit(main())
