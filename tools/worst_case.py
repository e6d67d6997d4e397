"""Time each CLI input at its bound, one fresh capped child at a time.

Run from anywhere as
    python3 tools/worst_case.py

The cases are every CLI input at its bound, plus selftest: a count at --n 1
(start-up); a count at --n MAX_N by dynamic program and by series coefficient
for every class; a count of class D by enumeration and a listing of every
class, at --n MAX_CUTOFF; series for every class, C form and chain stage and
verify for every identity, at --order MAX_ORDER; and map at weight MAX_N,
where Glaisher's split makes the most parts (512+256+128+64+32+8 into MAX_N
ones, and those ones merged back).  Each case runs RUNS times, round-robin:
run r of every case comes before run r + 1 of any, so a slow period of the
host is spread over all cases rather than landing on a few.  Each run is a
new interpreter with eulerlab from ./src, its stdout sent to /dev/null, under
RLIMIT_AS and RLIMIT_CPU set in preexec_fn, so the caps act on that child
alone.  Once every run is done, the script prints for each case the median
wall time of its runs with their range, and the largest VmHWM (peak resident
set) that a child read from its own /proc/self/status; then it names the
slowest case.  It exits 1 if a run fails or exits non-zero.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True
from eulerlab.cli import MAX_CUTOFF, MAX_N, MAX_ORDER  # noqa: E402
from eulerlab.series import C_FORMS, CHAIN_STAGES, IDENTITY_NAMES  # noqa: E402

RUNS = 3
ADDRESS_SPACE_BYTES = 2 << 30
CPU_SECONDS = 120
ONES = "+".join(["1"] * MAX_N)

CASES = [
    ["count", "--class", "A", "--n", "1"],
    *(
        ["count", "--class", cls, "--n", str(MAX_N), "--method", method]
        for method in ("dynamic-program", "series-coefficient")
        for cls in "ABCD"
    ),
    ["count", "--class", "D", "--n", str(MAX_CUTOFF), "--method", "enumeration"]
    + ["--cutoff", str(MAX_CUTOFF)],
    *(
        ["enumerate", "--class", cls, "--n", str(MAX_CUTOFF), "--cutoff", str(MAX_CUTOFF)]
        for cls in "ABCD"
    ),
    *(
        ["series", flag, name, "--order", str(MAX_ORDER)]
        for flag, names in (("--class", "ABCD"), ("--form", C_FORMS), ("--stage", CHAIN_STAGES))
        for name in names
    ),
    *(["verify", "--identity", name, "--order", str(MAX_ORDER)] for name in IDENTITY_NAMES),
    ["map", "--bijection", "glaisher", "512+256+128+64+32+8"],
    ["map", "--bijection", "glaisher-inv", ONES],
    ["selftest"],
]

# Runs cli.main on its arguments with stdout discarded, then prints the exit
# code and its own VmHWM in kB.
CHILD = """
import os, sys
from eulerlab.cli import main
real, sys.stdout = sys.stdout, open(os.devnull, "w")
code = main(sys.argv[1:])
sys.stdout.close()
sys.stdout = real
with open("/proc/self/status") as status:
    print(code, next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _cap() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))


def run_once(argv: list[str]) -> tuple[float, int, str]:
    """(wall seconds, VmHWM in kB, error text or '') of one capped child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_cap,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, 0, f"child ended with {proc.returncode}: {proc.stderr.strip()[-200:]}"
    code, hwm = proc.stdout.split()
    return wall, int(hwm), "" if code == "0" else f"exit code {code}"


def main() -> int:
    rounds = [[run_once(argv) for argv in CASES] for _ in range(RUNS)]
    print(f"{'case':<64} {'median s':>9} {'range s':>13} {'VmHWM MB':>9}")
    medians, failed = {}, False
    for argv, runs in zip(CASES, zip(*rounds)):
        name = " ".join(argv).replace(ONES, f"1+...+1 ({MAX_N} ones)")
        walls = [wall for wall, _, _ in runs]
        medians[name] = statistics.median(walls)
        peak = max(hwm for _, hwm, _ in runs) / 1024
        print(
            f"{name:<64} {medians[name]:>9.2f} {min(walls):>6.2f}-{max(walls):<6.2f} {peak:>9.1f}",
            flush=True,
        )
        for error in {error for _, _, error in runs if error}:
            print(f"  FAILED: {error}")
            failed = True
    print(f"slowest: {max(medians, key=medians.get)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
