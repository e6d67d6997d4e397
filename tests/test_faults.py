"""Seeded faults: every check must catch one wrong value and name it exactly.

The series tests wrap one builder so that its coefficient of q^k comes out
one too large, then assert that the check reports exactly that exponent and
the exact context string; a side cut short must fail at its first missing
exponent.  One coefficient of a held inner m-sum of the chain, and
split_sum's own outer fold, are perturbed the same way, so sharing the inner
m-sums between double_sum and split_sum hides no fault.  The listing tests
drop one partition from one class generator, or send one input of one map to
a wrong image, and assert the exact detail of
the listing criterion or of golden_table; bijection_suite must list each
class once per weight and evaluate each map once per argument and weight.
The counting tests add one to a dynamic-program
count, or to one coefficient of a division in the kernel that the dynamic
program and the series share, or drop one coefficient of the kernel's shifted
add, and assert the detail of oracle_equivalence.  A sign flipped in one
term of the sparse (q^step;q^step)_inf must fail the kernel's comparison with
the factor-by-factor route and name the chain stage it reaches first, and
one flipped in the Euler left side's multiply-up step must fail the expansion
at the first c that step reaches.  So no check passes vacuously.
"""

import random
from collections import Counter

import pytest
from test_kernel import sparse_mismatches

from eulerlab import acceptance, partitions, series
from eulerlab.cli import MAX_ORDER
from eulerlab.maps import ReductionCase, ReductionTag
from eulerlab.partitions import PartitionClass, normalize
from eulerlab.series import C_FORMS, CHAIN_STAGES, IDENTITY_NAMES, TruncatedSeries

A, B, C, D = PartitionClass
ORDER = 30
K = 17


def _perturb(monkeypatch, attr, first_arg, k):
    """Make series.<attr>(first_arg, ...) return q^k's coefficient plus one."""
    original = getattr(series, attr)

    def patched(*args, **kwargs):
        result = original(*args, **kwargs)
        if args[0] != first_arg:
            return result
        coeffs = list(result.coeffs)
        coeffs[k] += 1
        return TruncatedSeries(coeffs, result.order)

    monkeypatch.setattr(series, attr, patched)


def _assert_caught(report, exponent, context, gap=1):
    assert not report.passed
    assert report.exponent == exponent
    assert report.context == context
    assert abs(report.lhs - report.rhs) == gap


# (identity, class perturbed, k, reported exponent, context, |lhs - rhs|);
# thm_all reports n, the index of A(n) and B(n), and half_D doubles gf(C).
CLASS_FAULTS = [
    ("euler_AB", A, K, K, "gf(A) vs gf(B)", 1),
    ("euler_AB", B, K, K, "gf(A) vs gf(B)", 1),
    ("shift_BC", B, K, K + 1, "coeff(gf(C), n+1) vs coeff(gf(B), n)", 1),
    ("shift_BC", C, K, K, "coeff(gf(C), n+1) vs coeff(gf(B), n)", 1),
    ("chain_C", C, K, K, "form=sum_over_largest", 1),
    ("half_D", C, K, K, "2*gf(C) vs gf(D) + 1 - q", 2),
    ("half_D", D, K, K, "2*gf(C) vs gf(D) + 1 - q", 1),
    ("thm_all", A, K, K, "A(n) vs B(n)", 1),
    ("thm_all", B, K, K, "A(n) vs B(n)", 1),
    ("thm_all", C, K + 1, K, "B(n) vs C(n+1)", 1),
    ("thm_all", D, K + 1, K, "2*A(n) vs D(n+1)", 1),
]


@pytest.mark.parametrize("name,cls,k,exponent,context,gap", CLASS_FAULTS)
def test_class_fault_is_reported(monkeypatch, name, cls, k, exponent, context, gap):
    _perturb(monkeypatch, "gf_class", cls, k)
    _assert_caught(series.verify_identity(name, ORDER), exponent, context, gap)


@pytest.mark.parametrize("form", C_FORMS)
def test_c_form_fault_is_reported(monkeypatch, form):
    _perturb(monkeypatch, "gf_c_variant", form, K)
    _assert_caught(series.verify_identity("chain_C", ORDER), K, f"form={form}")


@pytest.mark.parametrize("stage", CHAIN_STAGES)
def test_chain_stage_fault_is_reported(monkeypatch, stage):
    _perturb(monkeypatch, "gf_c_chain_stage", stage, K)
    _assert_caught(series.verify_identity("chain_C", ORDER), K, f"stage={stage}")


def test_held_inner_m_sum_fault_is_reported():
    # One coefficient of the held inner m-sum of gap 4, x^3 = q^6 of F_2(q^2),
    # one too large: double_sum, the first stage that reads it, adds it to its
    # summand n = 1 at q^2, and doubles the stage.
    series._inner_m_sum(ORDER, 4)
    held = list(partitions._held["inner_m_sum", 4])
    held[3] += 1
    partitions._held["inner_m_sum", 4] = tuple(held)
    _assert_caught(series.verify_identity("chain_C", ORDER), 8, "stage=double_sum", gap=2)


def test_split_sum_outer_fold_fault_is_reported(monkeypatch):
    # split_sum's outer fold, the only gap-1 fold with an addend, one too
    # large at q^K: the inner m-sums it reads are double_sum's builds, which
    # are right, and the fault still shows at split_sum.
    original = series._sum_by_ratio

    def patched(order, gap, ratio, scale=1, term=None):
        h = original(order, gap, ratio, scale, term)
        if gap == 1 and term is not None:
            h[K] += 1
        return h

    monkeypatch.setattr(series, "_sum_by_ratio", patched)
    _assert_caught(series.verify_identity("chain_C", ORDER), K, "stage=split_sum", gap=2)


def _perturb_euler(monkeypatch, side, c, sign, k=K):
    """Make series.<side>(c, sign, order) return q^k's coefficient plus one."""
    original = getattr(series, side)

    def patched(c_, sign_, order):
        coeffs = original(c_, sign_, order)
        if (c_, sign_) == (c, sign):
            coeffs[k] += 1
        return coeffs

    monkeypatch.setattr(series, side, patched)


@pytest.mark.parametrize("sign,context", [(1, "t=q^c"), (-1, "t=-q^c")])
def test_euler_expansion_fault_is_reported(monkeypatch, sign, context):
    _perturb_euler(monkeypatch, "_euler_rhs", 2, sign)
    _assert_caught(series.euler_expansion_check(2, ORDER), K, context)


@pytest.mark.parametrize(
    "sign,summary",
    [
        (1, "euler_expansion_c2 order=30 FAIL at q^17: 67 != 66 [t=q^c]"),
        (-1, "euler_expansion_c2 order=30 FAIL at q^17: 1 != 0 [t=-q^c]"),
    ],
)
def test_euler_lhs_fault_is_reported(monkeypatch, sign, summary):
    _perturb_euler(monkeypatch, "_euler_lhs", 2, sign)
    assert series.euler_expansion_check(2, ORDER).summary() == summary


# The left side multiplies its held base 1/(sign*q;q)_inf up to c by
# (1 - sign*q^e) for e in 1..c-1; the right side folds with _div_factor alone.
# A sign flipped at q^2 in that multiply first reaches c = 3, whose left side
# is off by 2q^2 times the base and (1 - q).
def test_euler_lhs_multiply_up_fault_is_reported(monkeypatch):
    original = series._mul_factor

    def flipped(coeffs, sign, e):
        original(coeffs, -sign if e == 2 else sign, e)

    monkeypatch.setattr(series, "_mul_factor", flipped)
    for c in (1, 2):
        assert series.euler_expansion_check(c, ORDER).passed, c
    _assert_caught(series.euler_expansion_check(3, ORDER), 2, "t=q^c", gap=2)
    assert all(type(t) is tuple for t in partitions._held.values())


# The held bases serve every c, and a lower order as a prefix, so after all
# orders up to 99 each sign holds one table, to order 99.
def test_held_euler_bases_reach_the_highest_order():
    for order in range(100):
        for c in range(1, 7):
            assert series.euler_expansion_check(c, order).passed, (c, order)
    assert all(type(t) is tuple for t in partitions._held.values())
    assert [len(partitions._held[("euler_lhs", sign)]) - 1 for sign in (1, -1)] == [99, 99]


# The lowest comparison of thm_all, at n = 1, reads D(2); the next reads D(3).
def test_thm_all_checks_from_n_1(monkeypatch):
    _perturb(monkeypatch, "gf_class", D, 2)
    report = series.verify_identity("thm_all", ORDER)
    assert report.summary() == (
        "thm_all order=30 FAIL at q^1: 2 != 3 [2*A(n) vs D(n+1)]"
    )


def test_thm_all_checks_from_n_2(monkeypatch):
    _perturb(monkeypatch, "gf_class", D, 3)
    report = series.verify_identity("thm_all", ORDER)
    assert report.summary() == (
        "thm_all order=30 FAIL at q^2: 2 != 3 [2*A(n) vs D(n+1)]"
    )


# Two faults: a report names the first failing check in the identity's own
# order (forms before stages; thm_all by n, then comparison), not the lowest
# exponent over all checks.
def test_chain_c_reports_forms_before_stages(monkeypatch):
    _perturb(monkeypatch, "gf_c_variant", "even_poch_ratio", 20)
    _perturb(monkeypatch, "gf_c_chain_stage", "factored", 5)
    report = series.verify_identity("chain_C", ORDER)
    assert report.summary() == (
        "chain_C order=30 FAIL at q^20: 55 != 54 [form=even_poch_ratio]"
    )


def test_thm_all_reports_by_n_then_comparison(monkeypatch):
    _perturb(monkeypatch, "gf_class", D, 10)
    _perturb(monkeypatch, "gf_class", B, 20)
    report = series.verify_identity("thm_all", ORDER)
    assert report.summary() == (
        "thm_all order=30 FAIL at q^9: 16 != 17 [2*A(n) vs D(n+1)]"
    )


# (criterion, builder perturbed at q^17, its first argument, detail)
CRITERION_FAULTS = [
    (
        "theorem_by_series",
        "gf_class",
        A,
        "euler_AB order=30 FAIL at q^17: 39 != 38 [gf(A) vs gf(B)]",
    ),
    ("theorem_by_series", "gf_class", D, "chain_C order=30 FAIL at q^17: 65 != 64 [stage=final]"),
    (
        "chain_stages",
        "gf_c_chain_stage",
        "split_sum",
        "chain_C order=30 FAIL at q^17: 65 != 64 [stage=split_sum]",
    ),
]


@pytest.mark.parametrize("criterion,attr,first_arg,detail", CRITERION_FAULTS)
def test_series_criterion_detail(monkeypatch, criterion, attr, first_arg, detail):
    _perturb(monkeypatch, attr, first_arg, K)
    result = getattr(acceptance, criterion)(ORDER)
    assert not result.passed
    assert result.detail == detail


def test_oracle_equivalence_detail(monkeypatch):
    original = partitions._dp_counts

    def patched(cls, n_max):
        values = original(cls, n_max)
        if cls is C:
            values[K] += 1
        return values

    monkeypatch.setattr(partitions, "_dp_counts", patched)
    result = acceptance.oracle_equivalence()
    assert not result.passed
    assert result.detail == (
        "class C, n=17: {'enumeration': 32, 'dynamic-program': 33, 'series-coefficient': 32}"
    )


def test_shared_kernel_fault_is_caught_by_enumeration(monkeypatch):
    # The dynamic program and the series share the in-place kernel, so a fault
    # in it makes their columns agree; the enumeration column still differs.
    original = partitions._div_factor

    def patched(c, sign, e):
        original(c, sign, e)
        if e == K and len(c) > K:
            c[K] += 1

    for module in (partitions, series):
        monkeypatch.setattr(module, "_div_factor", patched)
    result = acceptance.oracle_equivalence()
    assert not result.passed
    assert result.detail == (
        "class B, n=17: {'enumeration': 38, 'dynamic-program': 39, 'series-coefficient': 39}"
    )


def test_pentagonal_sign_fault_is_caught(monkeypatch):
    # The term q^(5*step) of (q^step;q^step)_inf with its sign flipped, in the
    # sparse product and quotient alike.  factored divides by the product and
    # multiplies it back, so the fault cancels there; double_sum, the next
    # stage, multiplies by (q^2;q^2)_inf and is off by 4 at q^10.
    original = partitions._pentagonal_terms

    def flipped(length, step):
        return [(e, -sign if e == 5 * step else sign) for e, sign in original(length, step)]

    monkeypatch.setattr(partitions, "_pentagonal_terms", flipped)
    assert sparse_mismatches(MAX_ORDER) == [
        ("_mul_pentagonal", 1),
        ("_mul_pentagonal", 2),
        ("_div_pentagonal", 1),
        ("_div_pentagonal", 2),
    ]
    assert series.verify_identity("chain_C", 60).summary() == (
        "chain_C order=60 FAIL at q^10: 12 != 16 [stage=double_sum]"
    )


def test_shared_add_fault_is_caught_by_the_other_routes(monkeypatch):
    # Only the dynamic programs add at an offset, so an add that drops the
    # last coefficient of its slice there moves the dynamic-program column
    # alone, and every series identity still passes.
    original = partitions._add_into

    def patched(target, coeffs, at=0):
        if at:
            room = min(len(target) - at, len(coeffs))
            coeffs = coeffs[: max(room - 1, 0)]
        return original(target, coeffs, at)

    for module in (partitions, series):
        monkeypatch.setattr(module, "_add_into", patched)
    result = acceptance.oracle_equivalence()
    assert not result.passed
    assert result.detail == (
        "class C, n=30: {'enumeration': 256, 'dynamic-program': 0, 'series-coefficient': 256}"
    )
    for name in IDENTITY_NAMES:
        assert series.verify_identity(name, 60).passed, name


def test_euler_expansion_criterion_detail(monkeypatch):
    _perturb_euler(monkeypatch, "_euler_rhs", 3, -1)
    result = acceptance.euler_expansion(5, ORDER)
    assert not result.passed
    assert result.detail == "euler_expansion_c3 order=30 FAIL at q^17: -1 != 0 [t=-q^c]"


# The criterion's lowest c is 1.
def test_euler_expansion_criterion_checks_c_1(monkeypatch):
    _perturb_euler(monkeypatch, "_euler_rhs", 1, 1)
    result = acceptance.euler_expansion(5, ORDER)
    assert not result.passed
    assert result.detail == "euler_expansion_c1 order=30 FAIL at q^17: 297 != 298 [t=q^c]"


# A side that runs short fails at its first missing exponent; it is not cut
# to the shorter side's length and passed.  A public builder pads a short
# result with zeros to the full order, so half_D sees zeros, not a short side.
def test_short_side_is_reported(monkeypatch):
    euler_rhs, stage_final = series._euler_rhs, series._stage_final
    monkeypatch.setattr(series, "_euler_rhs", lambda c, sign, o: euler_rhs(c, sign, o)[: o // 2])
    monkeypatch.setitem(series._CHAIN_STAGE_BUILDERS, "final", lambda o: stage_final(o)[:3])
    assert series.euler_expansion_check(2, ORDER).summary() == (
        "euler_expansion_c2 order=30 FAIL at q^15: 41 != None [t=q^c]"
    )
    assert acceptance.euler_expansion(5, ORDER).detail == (
        "euler_expansion_c1 order=30 FAIL at q^15: 176 != None [t=q^c]"
    )
    assert series.verify_identity("half_D", ORDER).summary() == (
        "half_D order=30 FAIL at q^3: 2 != 0 [2*gf(C) vs gf(D) + 1 - q]"
    )


# ------------------------------------------------------------ listing route


def _drop_one(monkeypatch, cls, weight):
    """Make the class generator leave out its first partition of the weight."""
    original = partitions._GENERATORS[cls]

    def dropping(n):
        listed = original(n)
        if n == weight:
            next(listed)
        return listed

    monkeypatch.setitem(partitions._GENERATORS, cls, dropping)


def _drop_partition(monkeypatch, cls, parts):
    """Make the class generator leave out the partition with these parts."""
    original = partitions._GENERATORS[cls]

    def dropping(n):
        return (t for t in original(n) if t != parts)

    monkeypatch.setitem(partitions._GENERATORS, cls, dropping)


# The lowest n of theorem_by_enumeration is 1: D(2) = 2 counts 2 and 1+1.
def test_theorem_by_enumeration_checks_n_1(monkeypatch):
    _drop_partition(monkeypatch, D, (1, 1))
    result = acceptance.theorem_by_enumeration(10)
    assert not result.passed
    assert result.detail == "n=1: A=1 B=1 C(n+1)=1 D(n+1)=1"


# A(16) = 32 and A(17) = 38 (distinct-part partitions); a class C or D
# partition of weight 17 is counted at n = 16.  bijection_suite's fibers over
# weight n are checked against the A listing of weight n - 1, and the images
# of A(n) under glaisher_to_odd and of C(n + 1) under c_to_b against the B
# listing of weight n.
IMAGE_SET_OFF = "c_to_b image set differs from class B at weight {}"
GLAISHER_SET_OFF = "glaisher_to_odd image set differs from class B at weight {}"
LISTING_FAULTS = [
    (A, "n=17: A=37 B=38 C(n+1)=38 D(n+1)=76", GLAISHER_SET_OFF.format(17)),
    (B, "n=17: A=38 B=37 C(n+1)=38 D(n+1)=76", GLAISHER_SET_OFF.format(17)),
    (C, "n=16: A=32 B=32 C(n+1)=31 D(n+1)=64", IMAGE_SET_OFF.format(16)),
    (D, "n=16: A=32 B=32 C(n+1)=32 D(n+1)=63", "fiber structure off at weight 17"),
]


@pytest.mark.parametrize("cls,theorem_detail,suite_detail", LISTING_FAULTS)
def test_dropped_partition_is_reported(monkeypatch, cls, theorem_detail, suite_detail):
    _drop_one(monkeypatch, cls, K)
    theorem = acceptance.theorem_by_enumeration(20)
    assert not theorem.passed
    assert theorem.detail == theorem_detail
    suite = acceptance.bijection_suite(20)
    assert not suite.passed
    assert suite.detail == suite_detail


# bijection_suite(12) checks C and D up to weight 13: the fibers of D(13)
# over A(12) are compared in the suite's last step.
def test_top_weight_fiber_is_checked(monkeypatch):
    _drop_one(monkeypatch, D, 13)
    suite = acceptance.bijection_suite(12)
    assert not suite.passed
    assert suite.detail == "fiber structure off at weight 13"


def test_suite_lists_each_class_once_per_weight(monkeypatch):
    listed = Counter()
    enumerate_class = acceptance.enumerate_class

    def counting(n, cls):
        listed[n, cls] += 1
        return enumerate_class(n, cls)

    monkeypatch.setattr(acceptance, "enumerate_class", counting)
    assert acceptance.bijection_suite(12).passed
    assert listed == Counter(
        [(n, cls) for n in range(13) for cls in (A, B)]
        + [(n, cls) for n in range(2, 14) for cls in (C, D)]
    )


# The listing criteria compare sets and sorted lists, never listing order, so
# they pass on lists served reversed or shuffled; perfbench's enumerate_order
# fault is left to the check of inner results.
@pytest.mark.parametrize("reorder", ["reversed", "shuffled"])
def test_listing_criteria_ignore_listing_order(monkeypatch, reorder):
    enumerate_class, rng = acceptance.enumerate_class, random.Random(12)

    def reordered(n, cls):
        listed = enumerate_class(n, cls)
        if reorder == "reversed":
            return listed[::-1]
        rng.shuffle(listed)
        return listed

    monkeypatch.setattr(acceptance, "enumerate_class", reordered)
    for result in (
        acceptance.bijection_suite(12),
        acceptance.golden_table(),
        acceptance.theorem_by_enumeration(12),
    ):
        assert result.passed, (result.name, result.detail)


# A(n) = B(n) for n = 0..12, and D(n + 1) = 2 A(n) for n >= 1.
A_TO_12 = [1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15]


def test_suite_evaluates_each_map_once_per_argument(monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(acceptance, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    expected = {
        "glaisher_to_odd": sum(A_TO_12),
        "glaisher_to_distinct": sum(A_TO_12),
        "b_to_c": sum(A_TO_12[1:]),
        "c_to_b": sum(A_TO_12[1:]),
        "d_reduce": 2 * sum(A_TO_12[1:]),
        "d_lift": 2 * sum(A_TO_12[1:]),
    }
    for name in expected:
        monkeypatch.setattr(acceptance, name, counting(name))
    for _ in range(2):  # a second call makes the same calls
        calls.clear()
        assert acceptance.bijection_suite(12).passed
        assert calls == expected


def test_golden_table_detail(monkeypatch):
    # The first class-D partition of weight 7 is 7 itself, rendered 0+0+7.
    _drop_one(monkeypatch, D, 7)
    result = acceptance.golden_table()
    assert not result.passed
    assert result.detail == (
        "count(7,D)=7, expected 8; list(7,D): "
        "['0+0+4+2+1', '0+0+4+3', '0+0+5+2', '0+0+6+1', '1+1+2+3', '1+1+5', '2+2+3'] != "
        "['0+0+4+2+1', '0+0+4+3', '0+0+5+2', '0+0+6+1', '0+0+7', '1+1+2+3', '1+1+5', '2+2+3']"
    )


def P(*parts):
    return normalize(parts)


# (map, arguments perturbed, wrong result, detail): each wrong result is the
# first one bijection_suite meets, since the suite walks weights upward.
MAP_FAULTS = [
    (
        "glaisher_to_odd",
        (P(4, 2, 1),),
        P(*[1] * 8),
        "glaisher_to_odd(4+2+1) bad image 1+1+1+1+1+1+1+1",
    ),
    ("glaisher_to_distinct", (P(3, 1, 1, 1),), P(4, 2), "glaisher round trip failed at 3+2+1"),
    ("b_to_c", (P(3, 3),), P(4, 2, 1), "c_to_b then b_to_c failed at 4+3"),
    ("b_to_c", (P(3, 1),), P(5), "c_to_b then b_to_c failed at 4+1"),
    ("c_to_b", (P(4, 3),), P(5, 1), "c_to_b(4+3) largest part 5"),
    (
        "d_reduce",
        (P(3, 2, 2),),
        (P(3, 2, 1), ReductionTag(ReductionCase.SMALLEST_EQUALS_ONE)),
        "d_reduce then d_lift failed at 3+2+2",
    ),
    (
        "d_reduce",
        (P(5, 1, 1),),
        (P(5, 2), ReductionTag(ReductionCase.SMALLEST_EQUALS_ONE)),
        "d_reduce(5+1+1) bad image 5+2",
    ),
    ("d_lift", (P(3, 2, 1), 0), P(4, 2, 1), "d_reduce then d_lift failed at 3+2+2"),
]


def _patch_map(monkeypatch, name, at, wrong):
    """Make acceptance.<name>(*at) return wrong."""
    original = getattr(acceptance, name)

    def patched(*args):
        return wrong if args == at else original(*args)

    monkeypatch.setattr(acceptance, name, patched)


@pytest.mark.parametrize("name,at,wrong,detail", MAP_FAULTS)
def test_map_fault_is_reported(monkeypatch, name, at, wrong, detail):
    _patch_map(monkeypatch, name, at, wrong)
    suite = acceptance.bijection_suite(12)
    assert not suite.passed
    assert suite.detail == detail


# Two images of weight 3 swapped in both maps at once: every round trip and
# image class still holds, and the images of C(4) = {4, 2+2} are B(3), so
# only the largest-part check of the C walk can catch it.
def test_swapped_c_images_are_reported(monkeypatch):
    _patch_map(monkeypatch, "b_to_c", (P(3),), P(2, 2))
    _patch_map(monkeypatch, "b_to_c", (P(1, 1, 1),), P(4))
    _patch_map(monkeypatch, "c_to_b", (P(2, 2),), P(3))
    _patch_map(monkeypatch, "c_to_b", (P(4),), P(1, 1, 1))
    suite = acceptance.bijection_suite(12)
    assert not suite.passed
    assert suite.detail == "c_to_b(4) largest part 1"
