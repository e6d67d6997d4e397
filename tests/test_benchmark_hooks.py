"""The benchmark worker still finds every eulerlab function it wraps.

perfbench/worker.py rebinds named functions (Tracer.install and
OutputCheck.install) and stops when a name is bound nowhere.  One small
traced pass in a subprocess makes such a rename fail here rather than in a
benchmark run.  The pass checks its inner results (listings, series, map
images) against perfbench/reference.json, so a changed inner result fails
here too; a seeded fault shows that this check is not vacuous.  One
series_verify pass and one cli_mix pass, as the benchmark sends them, must
also give every output digest recorded in the reference.  The plain count
requests of that cli_mix pass are also replayed in-process, where one byte
changed in each count line must change every one of their digests.  The
passes read the tree and write nothing.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

from eulerlab import cli

ROOT = Path(__file__).resolve().parent.parent

# Every inner result these requests compute at the keys below has a
# recorded value in reference.json.  The order-30 series come after the
# order-200 ones, so they are served from the builder cache as prefixes.
REQUESTS = [
    ["verify", "chain_C", 200],
    ["verify", "chain_C", 30],
    ["criterion", "golden_table", {}],
    ["cli", ["count", "--class", "C", "--n", "7"]],
    ["stage", "split_sum", 200],
    ["criterion", "bijection_suite", {"max_weight": 12}],
    ["cli", ["map", "--bijection", "d-reduce", "10+6+4+3"]],
]


def _reference_outputs() -> dict:
    with open(ROOT / "perfbench" / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def _worker(spec: dict) -> dict:
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
    return json.loads(proc.stdout)


def _run_pass(trace: bool, fault=None) -> dict:
    spec = {"requests": REQUESTS, "trace": trace, "fault": fault, "outputs": _reference_outputs()}
    return _worker(spec)


def _import_workloads():
    """perfbench/workloads.py, imported without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def _replay_benchmark_passes(names: tuple[str, ...], fault=None) -> tuple[list, int]:
    """(requests whose digest differs from the reference, inner-result mismatches)
    of the first pass of each named workload at seed 4, in one worker."""
    workloads = _import_workloads()
    reference = workloads.load_reference()
    requests = [
        request for name in names for request in workloads.pass_requests(name, 4, 0, reference)
    ]
    spec = {"requests": requests, "trace": False, "fault": fault, "outputs": reference["outputs"]}
    result = _worker(spec)
    wrong = [
        request
        for request, got in zip(requests, result["digests"])
        if got != reference["digests"][workloads.request_key(request)]
    ]
    return wrong, sum(result["mismatches"])


def test_worker_runs_a_traced_pass():
    result = _run_pass(trace=True)
    assert "layers" in result
    assert result["layers"]["cli.build_parser.calls"] == 2
    assert result["mismatches"] == [0] * len(REQUESTS)


def test_worker_reports_a_wrong_inner_result():
    # Lists every class in lex increasing order: each count and set the
    # criteria check still holds, so only the inner-result check sees it.
    result = _run_pass(trace=False, fault="enumerate_order")
    assert any(result["mismatches"]), result["mismatches"]


def test_benchmark_passes_give_the_reference_bytes():
    assert _replay_benchmark_passes(("series_verify", "cli_mix")) == ([], 0)


def test_byte_check_sees_a_wrong_gf_c_coefficient():
    # gf(C) one too large at its top exponent: verify and stage requests
    # change their output, and the recorded series differ.  The series pass
    # alone shows it; the cli_mix pass would add 0.8 s.
    wrong, inner = _replay_benchmark_passes(("series_verify",), fault="gf_class")
    assert wrong and inner


def _plain_count_digests() -> list[tuple[str, str]]:
    """(digest, reference digest) of each plain count request that a count
    pool drew for the first cli_mix pass at seed 4, sent in-process through
    cli.main and hashed as perfbench/worker.py hashes a cli request."""
    workloads = _import_workloads()
    reference = workloads.load_reference()
    pools = [pool for category, pool in reference["pools"].items() if category.startswith("count_")]
    counts = [argv for pool in pools for argv in pool if "plain" in argv]
    digests = []
    for request in workloads.pass_requests("cli_mix", 4, 0, reference):
        if request[1] not in counts:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(request[1]))
        text = f"exit={code}\n{out.getvalue()}"
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        digests.append((got, reference["digests"][workloads.request_key(request)]))
    return digests


def test_byte_check_sees_one_changed_byte_in_a_plain_count_line(monkeypatch):
    # Every plain count request gives the reference bytes; with a tab in
    # place of the first space of each count line, not one of them does.
    digests = _plain_count_digests()
    assert len(digests) == 80
    assert all(got == want for got, want in digests)
    original = cli.record_to_plain

    def tabbed(record):
        line = original(record)
        return line.replace(" ", "\t", 1) if record["type"] == "count" else line

    monkeypatch.setattr(cli, "record_to_plain", tabbed)
    assert not any(got == want for got, want in _plain_count_digests())
