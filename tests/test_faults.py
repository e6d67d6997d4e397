"""Seeded faults: every check must catch one wrong value and name it exactly.

The series tests wrap one builder so that its coefficient of q^k comes out
one too large, then assert that the check reports exactly that exponent and
the exact context string.  The listing tests drop one partition from one
class generator, or send one input of one map to a wrong image, and assert
the exact detail of the listing criterion or of golden_table.  The counting
test adds one to a dynamic-program count and asserts the detail of
oracle_equivalence.  So no check passes vacuously.
"""

import pytest

from eulerlab import acceptance, partitions, series
from eulerlab.maps import ReductionCase, ReductionTag
from eulerlab.partitions import PartitionClass, normalize
from eulerlab.series import C_FORMS, CHAIN_STAGES, TruncatedSeries

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
# weight n are checked against the A listing of weight n - 1, and c_to_b's
# images of C(n + 1) against the B listing of weight n.
IMAGE_SET_OFF = "c_to_b image set differs from class B at weight {}"
LISTING_FAULTS = [
    (A, "n=17: A=37 B=38 C(n+1)=38 D(n+1)=76", "fiber structure off at weight 18"),
    (B, "n=17: A=38 B=37 C(n+1)=38 D(n+1)=76", IMAGE_SET_OFF.format(17)),
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
    ("b_to_c", (P(3, 3),), P(4, 2, 1), "b_to_c then c_to_b failed at 3+3"),
    ("b_to_c", (P(3, 1),), P(5), "b_to_c(3+1) bad image 5"),
    ("c_to_b", (P(4, 3),), P(5, 1), "b_to_c then c_to_b failed at 3+3"),
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


# The class-B half of the suite checks glaisher_to_distinct's images and the
# inverse round trip, but the class-A half meets such a fault first, in the
# round trip of 4+1, whose image is 1+1+1+1+1.  With 4+1 left out of the A
# listing, one map fault reaches each of the two B-half branches.
INVERSE_FAULTS = [
    (
        "glaisher_to_odd",
        (P(4, 1),),
        P(3, 1, 1),
        "glaisher inverse round trip failed at 1+1+1+1+1",
    ),
    (
        "glaisher_to_distinct",
        (P(1, 1, 1, 1, 1),),
        P(2, 2, 1),
        "glaisher_to_distinct(1+1+1+1+1) bad image 2+2+1",
    ),
]


@pytest.mark.parametrize("name,at,wrong,detail", INVERSE_FAULTS)
def test_glaisher_inverse_fault_is_reported(monkeypatch, name, at, wrong, detail):
    _drop_partition(monkeypatch, A, (4, 1))
    _patch_map(monkeypatch, name, at, wrong)
    suite = acceptance.bijection_suite(12)
    assert not suite.passed
    assert suite.detail == detail
