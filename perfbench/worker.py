"""One pass of a workload, in a fresh interpreter.

Run from the root of a checkout as
    python3 perfbench/worker.py < spec.json
where the spec is {"requests": [...], "trace": bool, "fault": name or null,
"outputs": {key: value}} (outputs.py).  Prints one JSON line: per-request
latencies (normalized for machine speed, see speed.py, and raw), output
digests and mismatched inner results, the pass's peak RSS, and, when traced,
the per-layer metrics.  Only eulerlab from ./src is imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import types

from outputs import OutputCheck  # perfbench/ is the script's directory
from speed import SpeedSampler
from tracing import Tracer, library_modules, rebind


def load_library(root: str) -> types.SimpleNamespace:
    """Import eulerlab from root/src, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    package = importlib.import_module("eulerlab")
    if not os.path.abspath(package.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"eulerlab imported from {package.__file__}, not from {src}")
    names = ("series", "partitions", "maps", "acceptance", "cli")
    modules = {name: importlib.import_module(f"eulerlab.{name}") for name in names}
    return types.SimpleNamespace(package=package, **modules)


def execute(lib, request) -> str:
    """Send one request and return its output as text."""
    kind = request[0]
    if kind == "verify":
        r = lib.series.verify_identity(request[1], request[2])
        return f"{r.name}|{r.order}|{r.passed}|{r.exponent}|{r.lhs}|{r.rhs}|{r.context}"
    if kind == "stage":
        s = lib.series.gf_c_chain_stage(request[1], request[2])
        return f"{s.order}|" + ",".join(map(str, s.coeffs))
    if kind == "criterion":
        r = getattr(lib.acceptance, request[1])(**request[2])
        return f"{r.name}|{r.passed}|{r.detail}"
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(request[1]))
        return f"exit={code}\n{out.getvalue()}"
    raise ValueError(f"unknown request kind {kind!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stdout_bytes(text: str) -> int:
    """Bytes a cli request wrote to stdout (its text minus the exit line)."""
    return len(text.encode("utf-8")) - len(text.split("\n", 1)[0]) - 1


# Seeded faults for the self-check: each returns a wrong result for some inputs.
def _fault_gf_class(lib):
    original = lib.series.gf_class

    def gf_class(cls, order):
        s = original(cls, order)
        if cls is not lib.partitions.PartitionClass.C:
            return s
        coeffs = list(s.coeffs)
        coeffs[-1] += 1
        return lib.series.TruncatedSeries(coeffs, s.order)

    return original, gf_class


def _fault_c_to_b(lib):
    original = lib.maps.c_to_b

    def c_to_b(p):
        image = original(p)
        parts = list(image.parts)
        if parts.count(1) < 3:
            return image
        for _ in range(3):
            parts.remove(1)
        return lib.partitions.normalize(parts + [3])  # same weight, still odd parts

    return original, c_to_b


def _fault_enumerate_order(lib):
    """Lex increasing instead of decreasing: every count and set is still right."""
    original = lib.partitions.enumerate_class

    def enumerate_class(*args, **kwargs):
        return original(*args, **kwargs)[::-1]

    return original, enumerate_class


FAULTS = {
    "gf_class": _fault_gf_class,
    "c_to_b": _fault_c_to_b,
    "enumerate_order": _fault_enumerate_order,
}


def send(lib, request) -> str:
    try:
        return execute(lib, request)
    except Exception as exc:  # a crash is a wrong output, not a benchmark error
        return f"raised {type(exc).__name__}: {exc}"


def run_pass(lib, requests, trace: bool, check: OutputCheck) -> dict:
    check.install(lib)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(lib)
    latencies, raw_latencies, digests, mismatches, written = [], [], [], [], 0
    with SpeedSampler() as sampler:
        for request in requests:
            before = check.mismatches
            text, raw, normalized = sampler.time(send, lib, request)
            latencies.append(normalized)
            raw_latencies.append(raw)
            digests.append(digest(text))
            mismatches.append(check.mismatches - before)
            if request[0] == "cli":
                written += stdout_bytes(text)
    result = {
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "digests": digests,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(written, sum(latencies) / sum(raw_latencies))
    return result


def main() -> int:
    spec = json.load(sys.stdin)
    lib = load_library(os.getcwd())
    if spec.get("fault"):
        original, replacement = FAULTS[spec["fault"]](lib)
        rebind(library_modules(lib), original, replacement)
    check = OutputCheck(spec["outputs"])
    print(json.dumps(run_pass(lib, spec["requests"], bool(spec.get("trace")), check)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
