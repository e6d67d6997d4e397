"""The benchmark worker still finds every eulerlab function it wraps.

perfbench/worker.py rebinds named functions (Tracer.install and
OutputCheck.install) and stops when a name is bound nowhere.  One small
traced pass in a subprocess makes such a rename fail here rather than in a
benchmark run.  The pass reads the tree and writes nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worker_runs_a_traced_pass():
    spec = {
        "requests": [
            ["verify", "chain_C", 30],
            ["criterion", "golden_table", {}],
            ["cli", ["count", "--class", "C", "--n", "7"]],
        ],
        "trace": True,
        "outputs": {},
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert "layers" in result
    assert result["layers"]["cli.build_parser.calls"] == 1
    assert result["mismatches"] == [0, 0, 0]
