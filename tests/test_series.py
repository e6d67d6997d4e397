import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from eulerlab import series
from eulerlab.partitions import PartitionClass, count_table
from eulerlab.series import (
    C_FORMS,
    CHAIN_STAGES,
    IDENTITY_NAMES,
    InvertibilityError,
    PochSpec,
    TruncatedSeries,
    euler_expansion_check,
    gf_c_chain_stage,
    gf_c_variant,
    gf_class,
    pochhammer,
    verify_identity,
)

A, B, C, D = PartitionClass


def S(*coeffs: int) -> TruncatedSeries:
    return TruncatedSeries(coeffs)


# ------------------------------------------------------------- arithmetic


def test_add_examples():
    assert S(1, 1) + S(1, -1) == S(2, 0)
    assert TruncatedSeries([0], 3) + S(4, 0, 0, 1) == S(4, 0, 0, 1)
    assert S(1, 2, 0) + S(0, 3, 1) == S(1, 5, 1)


def test_mul_examples():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)
    assert S(3, 1, 4) * TruncatedSeries([1], 2) == S(3, 1, 4)
    assert S(1, 1, 1, 0) * S(1, -1, 0, 0) == S(1, 0, 0, -1)


def test_mixed_orders_truncate_to_smaller():
    assert (S(1, 2, 3) + S(1, 1)).order == 1
    assert (S(1, 2, 3) * S(0, 1)) == S(0, 1)


def test_scalar_multiple():
    assert S(1, 0, 3) * 2 == S(2, 0, 6)


def test_coeff_bounds():
    s = S(5, 6)
    assert s.coeff(1) == 6
    with pytest.raises(ValueError):
        s.coeff(2)


def test_series_is_immutable():
    s = S(1, 2, 3)
    for attr, value in (("order", 1), ("coeffs", (1, 2)), ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(s, attr, value)
        with pytest.raises(AttributeError):
            delattr(s, attr)
    assert s == S(1, 2, 3) and s.order == 2


small_ints = st.integers(-9, 9)
series_strategy = st.lists(small_ints, min_size=1, max_size=10).map(TruncatedSeries)


@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    order = min(a.order, b.order, c.order)
    a, b, c = (TruncatedSeries(s.coeffs, order) for s in (a, b, c))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.sampled_from([1, -1]), st.lists(small_ints, min_size=0, max_size=10))
def test_reciprocal_is_two_sided_inverse(unit, tail):
    s = TruncatedSeries([unit] + tail)
    inv = s.reciprocal()
    one = TruncatedSeries([1], s.order)
    assert s * inv == one
    assert inv * s == one


def test_reciprocal_examples():
    geom = S(1, -1, 0, 0, 0).reciprocal()
    assert geom == S(1, 1, 1, 1, 1)
    assert TruncatedSeries([1], 4).reciprocal() == TruncatedSeries([1], 4)
    with pytest.raises(InvertibilityError):
        S(2, 1).reciprocal()
    with pytest.raises(InvertibilityError):
        S(0, 1).reciprocal()


# ------------------------------------------------------------- pochhammer


def test_pochhammer_empty_product():
    assert pochhammer(PochSpec(1, 1, 1, 0), 5) == TruncatedSeries([1], 5)


def test_pochhammer_distinct_parts_coefficient():
    # Product of (1+q^j): coefficient of q^6 counts distinct partitions of 6.
    s = pochhammer(PochSpec(-1, 1, 1, None), 6)
    assert s.coeff(6) == 4
    assert list(s.coeffs) == [oracle.brute_count(n, "A") for n in range(7)]


def test_pochhammer_odd_parts_reciprocal():
    s = pochhammer(PochSpec(1, 1, 2, None), 6).reciprocal()
    assert s.coeff(6) == 4
    assert list(s.coeffs) == [oracle.brute_count(n, "B") for n in range(7)]


def test_pochhammer_finite_matches_manual_product():
    # (q;q)_3 = (1-q)(1-q^2)(1-q^3)
    manual = S(1, -1, 0, 0, 0, 0) * S(1, 0, -1, 0, 0, 0) * S(1, 0, 0, -1, 0, 0)
    assert pochhammer(PochSpec(1, 1, 1, 3), 5) == manual


def test_pochhammer_validation():
    with pytest.raises(ValueError):
        PochSpec(2, 1)
    with pytest.raises(ValueError):
        PochSpec(1, 0)
    with pytest.raises(ValueError):
        PochSpec(1, 1, 0)


def test_reciprocal_odd_product_matches_term_sum():
    # Two independent builds of the odd-parts generating function: the
    # reciprocal of the infinite product against the sum over the largest
    # odd part 2n-1 of q^(2n-1) / (q;q^2)_n.
    order = 40
    via_reciprocal = pochhammer(PochSpec(1, 1, 2, None), order).reciprocal()
    total = [0] * (order + 1)
    total[0] = 1
    n = 1
    while 2 * n - 1 <= order:
        shift = 2 * n - 1
        term = pochhammer(PochSpec(1, 1, 2, n), order - shift).reciprocal()
        for j, c in enumerate(term.coeffs):
            total[j + shift] += c
        n += 1
    assert via_reciprocal == TruncatedSeries(total)


# -------------------------------------------------------- class functions


@pytest.mark.parametrize("cls", list(PartitionClass))
def test_gf_matches_brute_force_counts(cls):
    series = gf_class(cls, 25)
    for n in range(26):
        expected = oracle.brute_count(n, cls.value)
        if cls is C and n == 0:
            expected = 1
        assert series.coeff(n) == expected, f"{cls} at q^{n}"


def test_gf_examples():
    assert gf_class(C, 7).coeff(7) == 4
    assert gf_class(D, 7).coeff(7) == 8
    assert gf_class(D, 0).coeff(0) == 1


@pytest.mark.parametrize("cls", list(PartitionClass))
@pytest.mark.parametrize("small", [0, 1, 10, 19])
def test_truncation_coherence(cls, small):
    assert TruncatedSeries(gf_class(cls, 40).coeffs, small) == gf_class(cls, small)


def test_pochhammer_truncation_coherence():
    for spec in (PochSpec(1, 1, 1, None), PochSpec(-1, 2, 3, 4), PochSpec(1, 1, 2, 7)):
        assert TruncatedSeries(pochhammer(spec, 30).coeffs, 12) == pochhammer(spec, 12)


def test_variant_and_stage_truncation_coherence():
    for form in C_FORMS:
        assert TruncatedSeries(gf_c_variant(form, 30).coeffs, 12) == gf_c_variant(form, 12)
    for stage in CHAIN_STAGES:
        stage_30 = gf_c_chain_stage(stage, 30)
        assert TruncatedSeries(stage_30.coeffs, 12) == gf_c_chain_stage(stage, 12)


def test_c_variants_pairwise_identical():
    built = [gf_c_variant(form, 40) for form in C_FORMS]
    assert built[0] == built[1] == built[2]
    assert built[0] == gf_class(C, 40)


def test_c_variant_shift_matches_b():
    b_counts = count_table(B, 39, "dynamic-program")
    for form in C_FORMS:
        series = gf_c_variant(form, 40)
        for n in range(1, 40):
            assert series.coeff(n + 1) == b_counts[n]


def test_c_variant_unknown_form():
    with pytest.raises(ValueError):
        gf_c_variant("fancy", 10)


def test_chain_stages_all_equal_doubled_c():
    doubled = gf_class(C, 30) * 2
    for stage in CHAIN_STAGES:
        assert gf_c_chain_stage(stage, 30) == doubled, stage


def test_chain_final_is_d_plus_one_minus_q():
    final = gf_c_chain_stage("final", 30)
    expected = list(gf_class(D, 30).coeffs)
    expected[0] += 1
    expected[1] -= 1
    assert final == TruncatedSeries(expected)


def test_chain_double_sum_matches_per_pair_accumulation():
    # Same double sum, accumulated pair by pair in the opposite grouping;
    # checks the summation order does not matter.
    order = 24
    total = [0] * (order + 1)
    m = 0
    while 2 * m <= order:
        n = 0
        while 2 * n + m * (2 * n + 2) <= order:
            shift = 2 * n + m * (2 * n + 2)
            term = (
                pochhammer(PochSpec(1, 1, 1, 2 * n), order - shift).reciprocal()
                * pochhammer(PochSpec(1, 2, 2, m), order - shift).reciprocal()
            )
            for j, c in enumerate(term.coeffs):
                total[j + shift] += c
            n += 1
        m += 1
    direct = TruncatedSeries(total) * pochhammer(PochSpec(1, 2, 2, None), order) * 2
    assert direct == gf_c_chain_stage("double_sum", order)


def test_chain_unknown_stage():
    with pytest.raises(ValueError):
        gf_c_chain_stage("middle", 10)


# ---------------------------------------------------------- verifications


@pytest.mark.parametrize("c", [1, 2])
def test_euler_expansion_passes(c):
    report = euler_expansion_check(c, 50)
    assert report.passed, report.summary()


def test_euler_expansion_order_zero():
    assert euler_expansion_check(3, 0).passed


def test_euler_expansion_rejects_bad_c():
    with pytest.raises(ValueError):
        euler_expansion_check(0, 10)


@pytest.mark.parametrize("name", ["euler_AB", "shift_BC", "chain_C", "half_D", "thm_all"])
def test_verify_identity_passes_at_order_60(name):
    report = verify_identity(name, 60)
    assert report.passed, report.summary()
    assert report.order == 60
    assert report.exponent is None


def test_verify_shift_bc_witness_at_q7():
    assert verify_identity("shift_BC", 7).passed
    assert gf_class(C, 7).coeff(7) == gf_class(B, 6).coeff(6) == 4


def test_verify_unknown_identity():
    with pytest.raises(ValueError):
        verify_identity("everything", 10)


def test_report_summary_mentions_failure_point():
    # A mismatch report renders its exponent and both coefficients.
    from eulerlab.series import VerificationReport

    report = VerificationReport("demo", 9, False, 0.0, 4, 7, 8, context="lhs vs rhs")
    text = report.summary()
    assert "q^4" in text and "7 != 8" in text and "lhs vs rhs" in text


# ------------------------------------------------------------ builder cache

# (builder, first argument, oracle builder) for every cached series of an order
BUILDS = (
    [(gf_class, cls, oracle.slow_gf_class) for cls in PartitionClass]
    + [(gf_c_variant, form, oracle.slow_c_variant) for form in C_FORMS]
    + [(gf_c_chain_stage, stage, oracle.slow_chain_stage) for stage in CHAIN_STAGES]
)


def test_identities_build_each_series_once():
    for name in IDENTITY_NAMES:
        assert verify_identity(name, 30).passed, name
    assert gf_class.cache_info().misses == len(PartitionClass)
    assert gf_c_variant.cache_info().misses == len(C_FORMS)
    assert gf_c_chain_stage.cache_info().misses == len(CHAIN_STAGES)


def test_cached_series_match_reference():
    for order in range(1, 41):
        for builder, arg, slow in BUILDS:
            builder(arg, order)
            hits = builder.cache_info().hits
            assert builder(arg, order) == slow(arg, order), (arg, order)
            assert builder.cache_info().hits == hits + 1


def test_fault_is_seen_through_a_warm_cache(monkeypatch):
    # shift_BC caches gf(C); a fault wrapped around the public name afterwards
    # still reaches chain_C, which is served the cached series.
    assert verify_identity("shift_BC", 30).passed
    original = series.gf_class

    def patched(cls, order):
        result = original(cls, order)
        if cls is not C:
            return result
        coeffs = list(result.coeffs)
        coeffs[17] += 1
        return TruncatedSeries(coeffs, result.order)

    monkeypatch.setattr(series, "gf_class", patched)
    hits = gf_class.cache_info().hits
    report = verify_identity("chain_C", 30)
    assert gf_class.cache_info().hits > hits
    assert not report.passed
    assert (report.exponent, report.context) == (17, "form=sum_over_largest")


def test_cache_stays_bounded():
    # 300 to 500 distinct keys per builder: each cache fills to its bound and
    # grows no further.
    for order in range(100):
        for builder, arg, _ in BUILDS:
            builder(arg, order)
    for builder in (gf_class, gf_c_variant, gf_c_chain_stage):
        info = builder.cache_info()
        assert info.currsize == info.maxsize == series._BUILD_CACHE_SIZE
