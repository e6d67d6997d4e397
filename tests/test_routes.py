"""Route independence: which kinds of computation each check reaches.

eulerlab verifies A(n) = B(n) = C(n+1) = D(n+1)/2 along routes that must not
lean on each other: the class generators, the dynamic programs, the series
builders and the bijective maps, the last three of which may share the
in-place coefficient kernel.  Each selftest criterion, each count method of
each class and each identity runs here under sys.setprofile, from empty
series caches and at small sizes, and the routes of the eulerlab functions it
enters are compared with a pinned set.  Records, predicates and dispatch
(count_table, the identity checks, the criteria themselves) belong to no
route.  Every module-level function of the four library modules is named
below, so a new function must be given a route before this test passes.
The kernel's sparse products by (q;q)_inf and (q^2;q^2)_inf must be reached
from the chain stages only, never from a product that a check tests.
"""

import inspect
import sys
from collections import Counter

import pytest

from eulerlab import acceptance, maps, partitions, series
from eulerlab.partitions import COUNT_METHODS, PartitionClass
from eulerlab.series import IDENTITY_NAMES

GENERATORS = "generators"
DYNAMIC_PROGRAM = "dynamic program"
SERIES = "series builders"
MAPS = "maps"
KERNEL = "kernel"

ROUTES = {
    GENERATORS: (partitions, ("_gen", "_gen_class_c", "_gen_class_d", "enumerate_class")),
    DYNAMIC_PROGRAM: (partitions, ("_dp_counts",)),
    SERIES: (
        series,
        (
            "pochhammer",
            "_sum_by_ratio",
            "_cached",
            "_c_form",
            "_gf_d",
            "gf_class",
            "gf_c_variant",
            "_inner_m_sum",
            "_stage_factored",
            "_stage_double_sum",
            "_stage_split_sum",
            "_stage_bracket_reciprocals",
            "_stage_final",
            "gf_c_chain_stage",
            "_euler_lhs",
            "_euler_rhs",
        ),
    ),
    MAPS: (
        maps,
        ("_split_to_odd", "glaisher_to_odd", "glaisher_to_distinct", "_merge_binary")
        + ("d_reduce", "d_lift", "c_to_b", "b_to_c"),
    ),
    KERNEL: (
        partitions,
        ("_mul_factor", "_div_factor", "_add_into", "_mul_poch_inf", "_div_poch_inf", "_unit")
        + ("_pentagonal_terms", "_mul_pentagonal", "_div_pentagonal"),
    ),
}

NEUTRAL = {
    partitions: (
        "_refusal",
        "normalize",
        "parse_partition",
        "is_in_class",
        "_held_prefix",
        "count_table",
        "render_class_d",
    ),
    series: (
        "_first_failure",
        "_euler_checks",
        "euler_expansion_check",
        "_euler_ab_checks",
        "_shift_bc_checks",
        "_chain_c_checks",
        "_half_d_checks",
        "_theorem_checks",
        "verify_identity",
    ),
    acceptance: ("_criterion", "_first_detail", "_invert", "run_all", *acceptance.CRITERIA),
}

ROUTE_OF = {
    getattr(module, name).__code__: (route, name)
    for route, (module, names) in ROUTES.items()
    for name in names
}


def trace_routes(run, *args) -> tuple[object, set[str], Counter]:
    """run(*args), the routes it enters, and how often it enters each function.

    A generator function is entered again each time it resumes, so only the
    counts of plain functions are calls.
    """
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call" and (hit := ROUTE_OF.get(frame.f_code)):
            entered[hit] += 1

    sys.setprofile(profile)
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
    calls = Counter({name: n for (_, name), n in entered.items()})
    return result, {route for route, _ in entered}, calls


def test_every_library_function_is_classified():
    named = {(module, name) for module, names in ROUTES.values() for name in names}
    named |= {(module, name) for module, names in NEUTRAL.items() for name in names}
    defined = {
        (module, name)
        for module in (partitions, series, maps, acceptance)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
    }
    assert defined == named


# Each criterion at a small size, with the routes it must reach; a criterion
# or count method without an entry here fails its test.
CRITERIA = {
    "golden_table": ((), {GENERATORS}),
    "theorem_by_enumeration": ((8,), {GENERATORS}),
    "theorem_by_series": ((20,), {SERIES, KERNEL}),
    "c_forms_match_b": ((20,), {DYNAMIC_PROGRAM, SERIES, KERNEL}),
    "chain_stages": ((20,), {SERIES, KERNEL}),
    "euler_expansion": ((2, 20), {SERIES, KERNEL}),
    "bijection_suite": ((6,), {GENERATORS, MAPS}),
    "oracle_equivalence": ((8,), {GENERATORS, DYNAMIC_PROGRAM, SERIES, KERNEL}),
}

METHOD_ROUTES = {
    "enumeration": {GENERATORS},
    "dynamic-program": {DYNAMIC_PROGRAM, KERNEL},
    "series-coefficient": {SERIES, KERNEL},
}


@pytest.mark.parametrize("name", acceptance.CRITERIA)
def test_criterion_routes(name):
    args, expected = CRITERIA[name]
    result, routes, _ = trace_routes(acceptance.CRITERIA[name], *args)
    assert result.passed, result.detail
    assert routes == expected


@pytest.mark.parametrize("method", COUNT_METHODS)
@pytest.mark.parametrize("cls", list(PartitionClass))
def test_count_routes(cls, method):
    counts, routes, entered = trace_routes(partitions.count_table, cls, 12, method)
    assert counts == partitions.count_table(cls, 12, "enumeration")
    assert routes == METHOD_ROUTES[method]
    # One table per count: no class's dynamic program reads another's.
    assert entered["_dp_counts"] == (method == "dynamic-program")


WARM_ORDERS = [
    ("series-coefficient", "dynamic-program"),
    ("dynamic-program", "series-coefficient"),
]


def warm_count(cls, first, then):
    """Counts and routes of count_table(cls, 12, then) after a count to 20 by first."""
    partitions.count_table(cls, 20, first)
    return trace_routes(partitions.count_table, cls, 12, then)


@pytest.mark.parametrize("first,then", WARM_ORDERS)
@pytest.mark.parametrize("cls", list(PartitionClass))
def test_count_routes_on_warm_caches(cls, first, then):
    # Each method holds its own tables: a table held by one method must not
    # serve the other, which must still build along its own route.
    counts, routes, entered = warm_count(cls, first, then)
    assert counts == partitions.count_table(cls, 12, "enumeration")
    assert routes == METHOD_ROUTES[then]
    assert entered["_dp_counts"] == (then == "dynamic-program")


def test_seeded_shared_count_table_is_seen(monkeypatch):
    # A table held per class alone, whichever method built it, serves one
    # method's table to the other.
    original = partitions.count_table
    held = {}

    def shared(cls, n_max, method="dynamic-program", *args):
        if cls not in held or len(held[cls]) <= n_max:
            held[cls] = original(cls, n_max, method, *args)
        return held[cls][: n_max + 1]

    monkeypatch.setattr(partitions, "count_table", shared)
    for first, then in WARM_ORDERS:
        counts, routes, _ = warm_count(PartitionClass.C, first, then)
        assert counts == original(PartitionClass.C, 12, "enumeration")
        assert routes == set() != METHOD_ROUTES[then]
        held.clear()


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_identity_routes(name):
    report, routes, _ = trace_routes(series.verify_identity, name, 20)
    assert report.passed
    assert routes == {SERIES, KERNEL}


def test_seeded_route_violation_is_seen(monkeypatch):
    # theorem_by_enumeration made to read the dynamic program as well
    original = acceptance.count_table

    def reads_dp(cls, n_max, *args):
        partitions._dp_counts(cls, n_max)
        return original(cls, n_max, *args)

    monkeypatch.setattr(acceptance, "count_table", reads_dp)
    args, expected = CRITERIA["theorem_by_enumeration"]
    result, routes, _ = trace_routes(acceptance.theorem_by_enumeration, *args)
    assert result.passed
    assert routes == {GENERATORS, DYNAMIC_PROGRAM, KERNEL} != expected


# The sparse products by (q;q)_inf and (q^2;q^2)_inf serve the chain stages
# only.  Where the product is itself under test (the generating functions of
# A, B and D, the dynamic programs, the left side of the Euler expansion)
# it stays a product of single factors: (-q;q)_inf written as
# (q^2;q^2)_inf / (q;q)_inf would be the first step of Euler's own proof
# of A = B.
SPARSE = ("_pentagonal_terms", "_mul_pentagonal", "_div_pentagonal")
FACTOR_BY_FACTOR = (
    [(series.gf_class, cls, 20) for cls in (PartitionClass.A, PartitionClass.B, PartitionClass.D)]
    + [(partitions.count_table, cls, 20, "dynamic-program") for cls in PartitionClass]
    + [(series._euler_lhs, c, sign, 20) for c in range(1, 6) for sign in (1, -1)]
)


def sparse_calls(run, *args) -> Counter:
    """Calls to the sparse primitives that run(*args) makes from empty caches."""
    partitions._held.clear()
    _, _, calls = trace_routes(run, *args)
    return Counter({name: calls[name] for name in SPARSE if calls[name]})


def sparse_products_under_test() -> dict[tuple, Counter]:
    """The sparse calls of each run of FACTOR_BY_FACTOR that makes any."""
    calls = {(run.__name__, *args): sparse_calls(run, *args) for run, *args in FACTOR_BY_FACTOR}
    return {run: counted for run, counted in calls.items() if counted}


def test_products_under_test_stay_factor_by_factor():
    assert sparse_products_under_test() == {}


def test_seeded_sparse_product_in_gf_a_is_seen(monkeypatch):
    # gf(A), and gf(D), which multiplies by the same product, built as
    # (q^2;q^2)_inf / (q;q)_inf: the counts stay right, the route does not.
    dense = series._mul_poch_inf

    def via_euler(c, sign, offset, step):
        if (sign, offset, step) == (-1, 1, 1):
            return partitions._div_pentagonal(partitions._mul_pentagonal(c, 2), 1)
        return dense(c, sign, offset, step)

    monkeypatch.setattr(series, "_mul_poch_inf", via_euler)
    seen = Counter(_pentagonal_terms=2, _mul_pentagonal=1, _div_pentagonal=1)
    assert sparse_products_under_test() == {
        ("gf_class", PartitionClass.A, 20): seen,
        ("gf_class", PartitionClass.D, 20): seen,
    }
    for cls in (PartitionClass.A, PartitionClass.D):
        assert series.gf_class(cls, 20).coeffs == partitions.count_table(cls, 20), cls


# Each chain stage's sparse calls from empty caches.
STAGE_SPARSE_CALLS = {
    "factored": Counter(_pentagonal_terms=2, _mul_pentagonal=1, _div_pentagonal=1),
    "double_sum": Counter(_pentagonal_terms=1, _mul_pentagonal=1),
    "split_sum": Counter(_pentagonal_terms=1, _mul_pentagonal=1),
    "bracket_reciprocals": Counter(_pentagonal_terms=2, _mul_pentagonal=1, _div_pentagonal=1),
    "final": Counter(),
}


@pytest.mark.parametrize("stage", series.CHAIN_STAGES)
def test_chain_stage_sparse_calls(stage):
    assert sparse_calls(series.gf_c_chain_stage, stage, 20) == STAGE_SPARSE_CALLS[stage]
