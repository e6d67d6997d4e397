"""tools/bench_pairs.py summarizes paired benchmark results; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(wall_s, req_per_s, failed, passes):
    values = {m["name"]: 1.0 for m in END_TO_END}
    values.update(wall_s=wall_s, req_per_s=req_per_s)
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items()}
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}
    return {**result, "passes": passes}


def test_summary_of_one_pair():
    parent = [_result(wall_s=1.0, req_per_s=10.0, failed=0, passes=40)]
    change = [_result(wall_s=0.9, req_per_s=9.0, failed=2, passes=44)]
    lines = bench_pairs.summarize(END_TO_END, parent, change)
    assert len(lines) == len(END_TO_END) + 2
    by_name = dict(line.split(None, 1) for line in lines[: len(END_TO_END)])
    # lower is better for wall_s and the change is lower; higher is better
    # for req_per_s and the change is lower; a tie is no win
    assert by_name["wall_s"] == (
        "parent 1 [1, 1]  change 0.9 (-10.0%)  change won 1/1 (lower is better)"
    )
    assert by_name["req_per_s"] == (
        "parent 10 [10, 10]  change 9 (-10.0%)  change won 0/1 (higher is better)"
    )
    assert by_name["setup_s"].endswith("(+0.0%)  change won 0/1 (lower is better)")
    assert lines[-2:] == [
        "parent failed 0 of 100, median passes 40",
        "change failed 2 of 100, median passes 44",
    ]


def test_summary_quartiles_and_wins_over_pairs():
    walls = [(1.0, 0.95), (1.2, 1.1), (1.1, 1.15), (1.3, 1.0)]
    parent = [_result(p, 10.0, 0, 3) for p, _ in walls]
    change = [_result(c, 10.0, 0, 3) for _, c in walls]
    lines = bench_pairs.summarize(END_TO_END, parent, change)
    wall = next(line for line in lines if line.startswith("wall_s"))
    assert wall.split(None, 1)[1] == (
        "parent 1.15 [1.075, 1.225]  change 1.05 (-8.7%)  change won 3/4 (lower is better)"
    )
