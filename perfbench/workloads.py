"""The three workloads: which requests one pass of each sends.

A request is a JSON list:
  ["verify", identity, order]      series.verify_identity
  ["stage", stage, order]          series.gf_c_chain_stage, coefficients checked
  ["criterion", name, kwargs]      one acceptance criterion
  ["cli", argv]                    cli.main(argv), stdout and exit code checked

Every request a pass can send has a digest in reference.json, recorded from
the program when the benchmark was added.  The seed and the pass index pick
the inputs; the program sees only the requests.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("series_verify", "listing_maps", "cli_mix")

IDENTITIES = ("euler_AB", "shift_BC", "chain_C", "half_D", "thm_all")
C_FORMS = ("sum_over_largest", "even_poch_ratio", "odd_poch_ratio")
CHAIN_STAGES = ("factored", "double_sum", "split_sum", "bracket_reciprocals", "final")
SERIES_ORDER = 200
# The second order is drawn from 240..300 as a mirrored pair (o, 540 - o).
# Series cost grows about cubically with order, so one free draw would move
# a pass's time by up to 45% from seed to seed; the pair keeps the sum of the
# two costs within about 4% while every order in the band still occurs.
HIGH_LOW, HIGH_HIGH = 240, 300

# Requests per cli_mix pass, by pool category.  The mix is chosen, not
# measured: eulerlab has no usage record.  The rule is an equal share of 144
# for each of the seven kinds of request the mix covers: count, enumerate,
# map, bad input (malformed or wrong class), series, verify and selftest.
# Within count, the series-coefficient and enumeration methods get a few (12
# each) and the dynamic program the rest, 30 per class; within map, each of
# the six bijections gets 24, d-lift's split over its two bits.  Each
# category's pool is sorted by input size and sampled one request per
# equal-width stratum, so every pass has nearly the same size profile and
# its median and tail latencies do not hinge on a few lucky draws.
SHARE = 144
CLI_QUOTAS = {
    "count_dp_A": 30,
    "count_dp_B": 30,
    "count_dp_C": 30,
    "count_dp_D": 30,
    "count_series": 12,
    "count_enum": 12,
    "enumerate": SHARE,
    "map_glaisher": 24,
    "map_glaisher-inv": 24,
    "map_c2b": 24,
    "map_b2c": 24,
    "map_d-reduce": 24,
    "map_d-lift0": 12,
    "map_d-lift1": 12,
    "bad": SHARE,
    "series": SHARE,
    "verify": SHARE,
    "selftest": SHARE,
}

SETUP_ARGV = ["count", "--class", "A", "--n", "1"]


def request_key(request) -> str:
    return json.dumps(request, separators=(",", ":"))


def load_reference(path: str = REFERENCE_PATH) -> dict:
    """{"pools": {category: [argv, ...]}, "digests": {request key: digest},
    "outputs": {inner call key: value}} (outputs.py)."""
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    digests = dict(stored["digests"])
    pools = {}
    for category, entries in stored["pools"].items():
        pools[category] = [argv for argv, _ in entries]
        digests.update((request_key(["cli", argv]), d) for argv, d in entries)
    return {"pools": pools, "digests": digests, "outputs": stored["outputs"]}


def _series_base() -> list:
    """The series half of selftest at the default order."""
    requests = [["verify", name, SERIES_ORDER] for name in IDENTITIES]
    requests += [["stage", stage, SERIES_ORDER] for stage in CHAIN_STAGES]
    requests += [
        ["criterion", "c_forms_match_b", {"order": SERIES_ORDER}],
        ["criterion", "euler_expansion", {"max_c": 5, "order": SERIES_ORDER}],
    ]
    return requests


def _high_orders(low: int) -> tuple[int, int]:
    return low, HIGH_LOW + HIGH_HIGH - low


def series_requests(rng: random.Random) -> list:
    low = rng.randint(HIGH_LOW, (HIGH_LOW + HIGH_HIGH) // 2 - 1)
    requests = _series_base()
    requests += [["verify", name, order] for order in _high_orders(low) for name in IDENTITIES]
    rng.shuffle(requests)
    return requests


# Fixed weight bands: the number of partitions grows by roughly 8% per unit
# of weight near 40-60, so a seeded band would move pass times by more than
# the bounds allow.  The seed orders the criteria.
LISTING_REQUESTS = (
    ["criterion", "golden_table", {}],
    ["criterion", "theorem_by_enumeration", {"n_max": 60}],
    ["criterion", "bijection_suite", {"max_weight": 40}],
)


def listing_requests(rng: random.Random) -> list:
    requests = [list(r) for r in LISTING_REQUESTS]
    rng.shuffle(requests)
    return requests


def stratified(rng: random.Random, pool: list, quota: int) -> list:
    """One draw from each of `quota` equal strata of the size-sorted pool."""
    n = len(pool)
    picks = []
    for i in range(quota):
        lo, hi = (i * n) // quota, ((i + 1) * n) // quota
        picks.append(pool[lo + rng.randrange(max(1, hi - lo))])
    return picks


def cli_requests(rng: random.Random, pools: dict) -> list:
    requests = []
    for category, quota in CLI_QUOTAS.items():
        requests += [["cli", argv] for argv in stratified(rng, pools[category], quota)]
    rng.shuffle(requests)
    return requests


def pass_requests(workload: str, seed: int, pass_index: int, reference: dict) -> list:
    """The requests of one pass; the same arguments always give the same list."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "series_verify":
        return series_requests(rng)
    if workload == "listing_maps":
        return listing_requests(rng)
    if workload == "cli_mix":
        return cli_requests(rng, reference["pools"])
    raise ValueError(f"unknown workload {workload!r}")


def every_series_request() -> list:
    """All requests series_verify can send, for the reference."""
    orders = [o for low in range(HIGH_LOW, (HIGH_LOW + HIGH_HIGH) // 2) for o in _high_orders(low)]
    return _series_base() + [["verify", name, o] for o in sorted(orders) for name in IDENTITIES]
