"""Build perfbench/reference.json: the cli request pools and every digest.

Run from the root of a checkout:
    python3 perfbench/make_reference.py

It generates the cli_mix pools from a fixed seed (valid partitions come from
this file's own generators, checked with the predicates of tests/oracle.py),
sends every request any workload can send once, and records the digest of
each output.  Before writing, it cross-checks outputs against the brute force
of tests/oracle.py, used read-only: every count, listing and class series
coefficient with weight at most 25, and the weight and class of every map
image.  It also records the inner results outputs.py checks (listings,
series, sampled map images), each the same every time it was produced.  The
digests and inner results are the reference: a later change that alters any
output byte makes the benchmark report it as failed.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys

import workloads
from outputs import OutputCheck
from worker import digest, execute, load_library

POOL_SEED = 20251105
CROSS_CHECK_MAX_N = 25
CLASSES = "ABCD"


def _random_parts(rng: random.Random, weight: int, cls: str, pred) -> list[int]:
    """A random partition of `weight` in class cls, parts in random order."""
    while True:
        parts: list[int] = []
        remaining = weight
        if cls == "C":
            half = rng.randint(1, weight // 2)
            parts.append(2 * half)
            remaining -= 2 * half
        while remaining:
            if cls == "B":
                p = rng.randrange(1, remaining + 1, 2)
            else:
                p = rng.randint(1, min(remaining, parts[0] if cls == "C" else remaining))
            parts.append(p)
            remaining -= p
        if pred(tuple(sorted(parts, reverse=True))):
            rng.shuffle(parts)
            return parts


def _render(rng: random.Random, parts: list[int], cls: str) -> str:
    """Plain 'a+b+c', sometimes spaced, or for class D its zero-padded form."""
    if cls == "D" and rng.random() < 0.5:
        desc = sorted(parts, reverse=True)
        if len(desc) > 1 and desc[-1] == desc[-2]:
            return "+".join(map(str, reversed(desc)))
        return "0+0+" + "+".join(map(str, desc))
    sep = " + " if rng.random() < 0.1 else "+"
    return sep.join(map(str, parts))


# (category, bijection flags, input class, weight range)
MAP_VARIANTS = (
    ("map_glaisher", ["--bijection", "glaisher"], "A", (1, 40)),
    ("map_glaisher-inv", ["--bijection", "glaisher-inv"], "B", (1, 40)),
    ("map_c2b", ["--bijection", "c2b"], "C", (2, 40)),
    ("map_b2c", ["--bijection", "b2c"], "B", (1, 39)),
    ("map_d-reduce", ["--bijection", "d-reduce"], "D", (2, 40)),
    ("map_d-lift0", ["--bijection", "d-lift", "--bit", "0"], "A", (1, 39)),
    ("map_d-lift1", ["--bijection", "d-lift", "--bit", "1"], "A", (1, 39)),
)
MAP_POOL_SIZE = 150

# Malformed input (exit 2) and partitions of the wrong class (exit 1).
BAD_REQUESTS = [
    ["map", "--bijection", "glaisher", "3+x"],
    ["map", "--bijection", "glaisher", ""],
    ["map", "--bijection", "glaisher", "+"],
    ["map", "--bijection", "glaisher", "3++1"],
    ["map", "--bijection", "glaisher", "1.5"],
    ["map", "--bijection", "glaisher", "-2+1"],
    ["map", "--bijection", "glaisher", "0+3"],
    ["map", "--bijection", "glaisher", "4 3"],
    ["map", "--bijection", "glaisher-inv", "4+1"],
    ["map", "--bijection", "glaisher-inv", "6+3+3"],
    ["map", "--bijection", "c2b", "3+1"],
    ["map", "--bijection", "c2b", "5"],
    ["map", "--bijection", "c2b", "4+1+1"],
    ["map", "--bijection", "b2c", "4+1"],
    ["map", "--bijection", "b2c", "0"],
    ["map", "--bijection", "d-reduce", "3+3+3"],
    ["map", "--bijection", "d-reduce", "5+5+2"],
    ["map", "--bijection", "d-reduce", "1"],
    ["map", "--bijection", "d-reduce", "0+0"],
    ["map", "--bijection", "d-lift", "--bit", "0", "2+2"],
    ["map", "--bijection", "d-lift", "--bit", "1", "7+3+3"],
    ["map", "--bijection", "d-lift", "3+1"],
    ["map", "--bijection", "d-lift", "--bit", "2", "3+1"],
    ["map", "--bijection", "nope", "3+1"],
    ["count", "--class", "E", "--n", "5"],
    ["count", "--class", "A", "--n", "x"],
    ["count", "--class", "B", "--n", "5..2"],
    ["count", "--class", "C", "--n", "-3"],
    ["count", "--class", "D", "--n", "4", "--method", "abacus"],
    ["count", "--class", "A", "--n", "4", "--cutoff", "0"],
    ["count", "--class", "C"],
    ["enumerate", "--class", "A", "--n", "2..4"],
    ["enumerate", "--class", "B", "--n", "61"],
    ["enumerate", "--class", "C", "--n", "5", "--cutoff", "101"],
    ["verify", "--identity", "euler_XY"],
    ["verify", "--identity", "chain_C", "--order", "0"],
    ["verify", "--identity", "half_D", "--order", "ten"],
    ["series", "--order", "10"],
    ["series", "--class", "A", "--form", "odd_poch_ratio"],
    ["series", "--class", "B", "--order", "0"],
    ["series", "--stage", "unknown"],
    ["selftest", "--only", "nope"],
    [],
    ["frobnicate"],
]

SERIES_KINDS = [["--class", c] for c in CLASSES]
SERIES_KINDS += [["--form", f] for f in workloads.C_FORMS]
SERIES_KINDS += [["--stage", s] for s in workloads.CHAIN_STAGES]


def build_pools() -> dict[str, list[list[str]]]:
    """Every cli request cli_mix can draw, each category sorted by input size."""
    import oracle  # tests/oracle.py, read-only

    rng = random.Random(POOL_SEED)

    def fmt() -> list[str]:
        return ["--format", rng.choice(("plain", "json-lines"))]

    pools: dict[str, list[list[str]]] = {}
    for cls in CLASSES:
        pool = []
        for top in range(0, 301):
            span = rng.randint(1, 12) if top % 3 == 0 else 0
            n = f"{max(0, top - span)}..{top}" if span else str(top)
            pool.append(["count", "--class", cls, "--n", n] + fmt())
        pools[f"count_dp_{cls}"] = pool
    pools["count_series"] = [
        ["count", "--class", cls, "--n", str(n), "--method", "series-coefficient"] + fmt()
        for n in range(61)
        for cls in CLASSES
    ]
    pools["count_enum"] = [
        ["count", "--class", cls, "--n", str(n), "--method", "enumeration"] + fmt()
        for n in range(CROSS_CHECK_MAX_N + 1)
        for cls in CLASSES
    ]
    pools["enumerate"] = [
        ["enumerate", "--class", cls, "--n", str(n)] + fmt()
        for n in range(CROSS_CHECK_MAX_N + 1)
        for cls in CLASSES
    ]
    for category, flags, cls, (lo, hi) in MAP_VARIANTS:
        pred = oracle.PREDICATES[cls]
        weights = sorted(rng.randint(lo, hi) for _ in range(MAP_POOL_SIZE))
        pools[category] = [
            ["map"] + flags + [_render(rng, _random_parts(rng, w, cls, pred), cls)] + fmt()
            for w in weights
        ]
    pools["bad"] = [argv + fmt() if argv else argv for argv in BAD_REQUESTS]
    pools["series"] = [
        ["series"] + kind + ["--order", str(order)] + fmt()
        for order in range(1, 61)
        for kind in SERIES_KINDS
    ]
    pools["verify"] = [
        ["verify", "--identity", name, "--order", str(order)] + fmt()
        for order in range(2, 81)
        for name in workloads.IDENTITIES
    ]
    pools["selftest"] = [
        ["selftest", "--only", "golden_table", "--format", f] for f in ("plain", "json-lines")
    ]
    return pools


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _records(stdout: str, json_lines: bool) -> list:
    lines = [line for line in stdout.splitlines() if line]
    return [json.loads(line) for line in lines] if json_lines else lines


def _parts_of(rendered: str) -> tuple[int, ...]:
    if rendered == "(empty)":
        return ()
    return tuple(sorted((int(x) for x in rendered.split("+") if int(x)), reverse=True))


@functools.cache
def _expected_count(n: int, cls: str) -> int:
    import oracle

    if cls == "C" and n == 0:
        return 1  # the counting convention C(0) = 1
    return oracle.brute_count(n, cls)


def cross_check(argv: list[str], text: str, category: str) -> bool:
    """Compare one cli output with the brute force; False when not applicable."""
    import oracle

    head, _, stdout = text.partition("\n")
    if head != "exit=0":
        if category.startswith(("count", "enumerate", "map", "series", "verify", "selftest")):
            raise AssertionError(f"valid request failed: {argv} -> {head}")
        return False
    if category == "bad":
        raise AssertionError(f"malformed request succeeded: {argv}")
    json_lines = _flag(argv, "--format") == "json-lines"
    records = _records(stdout, json_lines)
    sub = argv[0]
    if sub == "count":
        cls = _flag(argv, "--class")
        checked = False
        for rec in records:
            n, got = (rec["n"], rec["count"]) if json_lines else map(int, rec.split()[::2])
            if n <= CROSS_CHECK_MAX_N:
                if got != _expected_count(n, cls):
                    raise AssertionError(f"{argv}: count({n}) = {got}")
                checked = True
        return checked
    if sub == "enumerate":
        cls, n = _flag(argv, "--class"), int(_flag(argv, "--n"))
        got = sorted(tuple(r["parts"]) if json_lines else _parts_of(r) for r in records)
        if got != sorted(oracle.brute_members(n, cls)):
            raise AssertionError(f"{argv}: listing differs from brute force")
        return True
    if sub == "series" and _flag(argv, "--class"):
        cls = _flag(argv, "--class")
        for rec in records:
            n, c = (rec["exponent"], rec["coefficient"]) if json_lines else map(int, rec.split("\t"))
            if n <= CROSS_CHECK_MAX_N and c != _expected_count(n, cls):
                raise AssertionError(f"{argv}: coefficient {n} = {c}")
        return True
    if sub == "map":
        (rec,) = records
        name = _flag(argv, "--bijection")
        text_in = argv[argv.index("--format") - 1]
        w_in = sum(int(x) for x in text_in.split("+"))
        out_cls, shift = {
            "glaisher": ("B", 0),
            "glaisher-inv": ("A", 0),
            "c2b": ("B", -1),
            "b2c": ("C", 1),
            "d-reduce": ("A", -1),
            "d-lift": ("D", 1),
        }[name]
        if json_lines:
            image = tuple(rec["parts"])
        else:
            image = _parts_of(rec.split(" (")[0])
        if sum(image) != w_in + shift or not oracle.PREDICATES[out_cls](image):
            raise AssertionError(f"{argv}: image {image} has wrong weight or class")
        return True
    return False


def write_reference(pools: dict, digests: dict, outputs: dict, checked: int) -> None:
    """One pool entry or digest per line, so a diff of the file stays readable."""
    cli = {
        category: [[argv, digests[workloads.request_key(["cli", argv])]] for argv in pool]
        for category, pool in pools.items()
    }
    pooled = {workloads.request_key(["cli", argv]) for pool in pools.values() for argv in pool}
    digests = {k: v for k, v in digests.items() if k not in pooled}
    lines = ["{", f'"about": {json.dumps(ABOUT.format(checked=checked))},', '"pools": {']
    for i, (category, entries) in enumerate(cli.items()):
        lines.append(f"{json.dumps(category)}: [")
        lines += [json.dumps(e) + ("," if j < len(entries) - 1 else "") for j, e in enumerate(entries)]
        lines.append("]" + ("," if i < len(cli) - 1 else ""))
    lines.append('},')
    lines.append('"digests": {')
    items = list(digests.items())
    lines += [f"{json.dumps(k)}: {json.dumps(v)}" + ("," if j < len(items) - 1 else "") for j, (k, v) in enumerate(items)]
    lines.append("},")
    lines.append('"outputs": {')
    items = sorted(outputs.items())
    lines += [f"{json.dumps(k)}: {json.dumps(v)}" + ("," if j < len(items) - 1 else "") for j, (k, v) in enumerate(items)]
    lines += ["}", "}"]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


ABOUT = (
    "Digests of every request's output at the commit that added the benchmark; "
    "{checked} cli outputs were also cross-checked against tests/oracle.py."
)


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "tests"))
    lib = load_library(root)
    check = OutputCheck(None)
    check.install(lib)
    pools = build_pools()
    digests: dict[str, str] = {}
    checked = 0
    for category, pool in pools.items():
        for argv in pool:
            text = execute(lib, ["cli", argv])
            checked += cross_check(argv, text, category)
            digests[workloads.request_key(["cli", argv])] = digest(text)
    digests[workloads.request_key(["cli", workloads.SETUP_ARGV])] = digest(
        execute(lib, ["cli", workloads.SETUP_ARGV])
    )
    for request in workloads.every_series_request() + list(workloads.LISTING_REQUESTS):
        text = execute(lib, request)
        if request[0] != "stage" and "|True|" not in text:
            raise AssertionError(f"{request} did not pass: {text}")
        digests[workloads.request_key(request)] = digest(text)
        print(f"{request} done", file=sys.stderr, flush=True)
    write_reference(pools, digests, check.recorded, checked)
    print(f"{len(digests)} digests, {len(check.recorded)} inner results, {checked} cross-checked", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
