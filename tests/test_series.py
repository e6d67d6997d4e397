import inspect
import os
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from eulerlab import partitions, series
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


def test_mul_examples():
    assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)
    assert S(3, 1, 4) * TruncatedSeries([1], 2) == S(3, 1, 4)
    assert S(1, 1, 1, 0) * S(1, -1, 0, 0) == S(1, 0, 0, -1)


def test_mixed_orders_truncate_to_smaller():
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


def _plus(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries([x + y for x, y in zip(s.coeffs, t.coeffs)])


@given(series_strategy, series_strategy, series_strategy)
def test_ring_laws(a, b, c):
    order = min(a.order, b.order, c.order)
    a, b, c = (TruncatedSeries(s.coeffs, order) for s in (a, b, c))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * _plus(b, c) == _plus(a * b, a * c)


@given(series_strategy, st.one_of(series_strategy, small_ints))
def test_mul_matches_oracle_ring(a, b):
    # Mixed orders and int factors: the oracle's ring multiplies by plain loops.
    other = b if isinstance(b, int) else oracle.TruncatedSeries(b.coeffs)
    expected = oracle.TruncatedSeries(a.coeffs) * other
    product = a * b
    assert (product.order, product.coeffs) == (expected.order, expected.coeffs)


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


# Both signs, offsets 1-4, steps 1-3, and the first 0-5 factors or all of them.
POCH_SPECS = [
    PochSpec(sign, offset, step, terms)
    for sign in (1, -1)
    for offset in range(1, 5)
    for step in range(1, 4)
    for terms in (None, *range(6))
]


def _pochhammer_mismatches() -> set[tuple[PochSpec, int]]:
    """The (spec, order), orders 0..30, where pochhammer differs from the oracle's."""
    return {
        (spec, order)
        for spec in POCH_SPECS
        for order in range(31)
        if pochhammer(spec, order).coeffs
        != oracle._poch(spec.sign, spec.offset, spec.step, spec.terms, order).coeffs
    }


def test_pochhammer_matches_oracle():
    assert _pochhammer_mismatches() == set()


def test_pochhammer_check_sees_a_sign_flip_at_one_exponent(monkeypatch):
    # (1 + s*q^3) in place of (1 - s*q^3): exactly the products with that
    # factor differ, from order 3 up.
    def flipped(c, sign, e):
        partitions._mul_factor(c, -sign if e == 3 else sign, e)

    monkeypatch.setattr(series, "_mul_factor", flipped)
    expected = {
        (spec, order)
        for spec in POCH_SPECS
        for order in range(3, 31)
        if 3 in range(spec.offset, order + 1, spec.step)[: spec.terms]
    }
    assert expected and _pochhammer_mismatches() == expected


def test_pochhammer_rejects_a_negative_order():
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        pochhammer(PochSpec(1, 1), -1)


def test_pochhammer_validation():
    for args, message in (
        ((2, 1), "sign must be +1 or -1"),
        ((1, 0), "offset must be >= 1"),
        ((1, 1, 0), "step must be >= 1"),
        ((1, 1, 1, -1), "terms must be non-negative or None"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PochSpec(*args)


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
    # The lower order first: a later one would be served from the cache.
    assert gf_class(cls, small) == TruncatedSeries(gf_class(cls, 40).coeffs, small)


def test_pochhammer_truncation_coherence():
    for spec in (PochSpec(1, 1, 1, None), PochSpec(-1, 2, 3, 4), PochSpec(1, 1, 2, 7)):
        assert TruncatedSeries(pochhammer(spec, 30).coeffs, 12) == pochhammer(spec, 12)


def test_variant_and_stage_truncation_coherence():
    # The lower order first: a later one would be served from the cache.
    for form in C_FORMS:
        assert gf_c_variant(form, 12) == TruncatedSeries(gf_c_variant(form, 30).coeffs, 12)
    for stage in CHAIN_STAGES:
        stage_12 = gf_c_chain_stage(stage, 12)
        assert stage_12 == TruncatedSeries(gf_c_chain_stage(stage, 30).coeffs, 12)


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
    # Same double sum, accumulated pair by pair in the opposite grouping in
    # the oracle's ring; checks the summation order does not matter.
    order = 24
    total = [0] * (order + 1)
    m = 0
    while 2 * m <= order:
        n = 0
        while 2 * n + m * (2 * n + 2) <= order:
            shift = 2 * n + m * (2 * n + 2)
            term = (
                oracle._poch(1, 1, 1, 2 * n, order - shift).reciprocal()
                * oracle._poch(1, 2, 2, m, order - shift).reciprocal()
            )
            for j, c in enumerate(term.coeffs):
                total[j + shift] += c
            n += 1
        m += 1
    direct = oracle.TruncatedSeries(total) * oracle._poch(1, 2, 2, None, order) * 2
    assert direct.coeffs == gf_c_chain_stage("double_sum", order).coeffs


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


def test_euler_expansion_rejects_a_negative_order_before_building(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a side was built at a negative order")

    for side in ("_euler_lhs", "_euler_rhs"):
        monkeypatch.setattr(series, side, forbidden)
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        euler_expansion_check(1, -1)


# The cost of an Euler check is bounded by its order, whatever c is and
# whatever ran before: the left side multiplies its held base by at most
# order factors, and the right side's fold shifts by at most order + 1 places.


def test_euler_lhs_passes_are_bounded_by_the_order(monkeypatch):
    passes = Counter()

    def counted(name, primitive):
        def wrapper(*args):
            passes[name] += 1
            return primitive(*args)

        return wrapper

    for name in ("_mul_factor", "_div_factor"):
        primitive = getattr(partitions, name)
        for module in (partitions, series):
            monkeypatch.setattr(module, name, counted(name, primitive))
    order = 10
    for c in (10**6, 1, 10**6):
        passes.clear()
        series._euler_lhs(c, 1, order)
        assert passes.total() <= 2 * (order + 1), (c, passes)


SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_CAPS = ((resource.RLIMIT_AS, 1 << 30), (resource.RLIMIT_CPU, 20))


def _capped():
    # runs in the child between fork and exec, so the caps bind the child alone
    for limit, value in CHILD_CAPS:
        resource.setrlimit(limit, (value, value))


def test_euler_expansion_at_a_huge_c_runs_in_a_capped_child():
    # Never run these arguments without the caps: a shift by q^c that
    # allocates c slots asks for 8 GB at c = 10**9.
    script = (
        "from time import perf_counter\n"
        "from eulerlab.series import euler_expansion_check\n"
        "t0 = perf_counter()\n"
        "for c in (10**9, 1, 10**9):\n"
        "    assert euler_expansion_check(c, 10).passed, c\n"
        "print(perf_counter() - t0)\n"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=_capped,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("name", ["euler_AB", "shift_BC", "chain_C", "half_D", "thm_all"])
def test_verify_identity_passes_at_order_60(name):
    report = verify_identity(name, 60)
    assert report.passed, report.summary()
    assert report.order == 60
    assert report.exponent is None


# The identities whose checks compare no exponent at these orders, so that
# verify_identity reports a pass on nothing: shift_BC starts at C(2) = B(1),
# and thm_all runs n from 1 to order - 1.  A fix, or a new empty check, must
# change this set.
KNOWN_EMPTY_CHECKS = {("shift_BC", 0), ("shift_BC", 1), ("thm_all", 0), ("thm_all", 1)}


def test_identity_checks_compare_an_exponent():
    empty = set()
    for name in IDENTITY_NAMES:
        for order in range(41):
            checks = series._IDENTITY_CHECKS[name](order)
            if not sum(max(len(lhs), len(rhs)) for _, _, lhs, rhs in checks):
                empty.add((name, order))
    assert empty == KNOWN_EMPTY_CHECKS


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

# Every build of a series calls at least one of these steps; a series served
# from the cache calls none of them.
BUILD_STEPS = (
    "_sum_by_ratio",
    "_mul_poch_inf",
    "_div_poch_inf",
    "_mul_pentagonal",
    "_div_pentagonal",
    "_add_into",
)


def _clear_caches() -> None:
    partitions._held.clear()


@pytest.fixture
def build_steps(monkeypatch):
    """Counter of the build steps called, by name, while the test runs."""
    calls = Counter()

    def counted(name, step):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return step(*args, **kwargs)

        return wrapper

    for name in BUILD_STEPS:
        monkeypatch.setattr(series, name, counted(name, getattr(series, name)))
    return calls


def test_identities_build_each_series_once(build_steps):
    # On a cold cache the five identities take the steps of one build of each
    # of the 11 series, and on a warm cache none: half_D reads its right side,
    # gf(D) + 1 - q, from the cached final chain stage.
    for name in IDENTITY_NAMES:
        assert verify_identity(name, 30).passed, name
    cold = Counter(build_steps)
    build_steps.clear()
    for name in IDENTITY_NAMES:
        verify_identity(name, 30)
    warm = Counter(build_steps)
    assert warm == Counter()
    _clear_caches()
    build_steps.clear()
    for builder, arg, _ in BUILDS:
        builder(arg, 30)
    assert cold == build_steps + warm


def test_cached_series_match_reference(build_steps):
    # Orders 0..39 after order 40 are served as prefixes, and build nothing.
    for builder, arg, _ in BUILDS:
        builder(arg, 40)
    build_steps.clear()
    served = {(arg, order): builder(arg, order) for order in range(40) for builder, arg, _ in BUILDS}
    assert not build_steps
    for _, arg, slow in BUILDS:
        for order in range(40):
            assert served[arg, order].coeffs == slow(arg, order).coeffs, (arg, order)


def test_higher_order_rebuilds(build_steps):
    # From empty caches each time: gf(C) and the form sum_over_largest share
    # one entry, so the second of them would be served the first's build.
    for builder, arg, slow in BUILDS:
        _clear_caches()
        low = builder(arg, 20)
        build_steps.clear()
        high = builder(arg, 30)
        assert build_steps, arg
        assert high.coeffs == slow(arg, 30).coeffs, arg
        assert builder(arg, 30).coeffs is high.coeffs and builder(arg, 20) == low, arg


def test_served_prefixes_equal_cold_builds(build_steps):
    # Every order 0..120 served from the order-120 series equals a build at
    # that order from empty caches, and order -1 fails alike warm and cold.
    cold = {}
    for order in range(121):
        _clear_caches()
        for builder, arg, _ in BUILDS:
            cold[arg, order] = builder(arg, order)
    errors = {}
    for builder, arg, _ in BUILDS:
        _clear_caches()
        with pytest.raises(ValueError) as info:
            builder(arg, -1)
        errors[arg] = str(info.value)
    _clear_caches()
    for builder, arg, _ in BUILDS:
        builder(arg, 120)
    build_steps.clear()
    for builder, arg, _ in BUILDS:
        for order in range(121):
            assert builder(arg, order) == cold[arg, order], (arg, order)
        with pytest.raises(ValueError) as info:
            builder(arg, -1)
        assert str(info.value) == errors[arg], arg
    assert not build_steps


@pytest.mark.parametrize("first", ["class", "form"])
def test_gf_c_and_its_first_form_share_one_build(build_steps, first):
    # gf(C) is the form sum_over_largest: whichever is asked first builds it,
    # and the other is served the same coefficients without a build step.
    calls = {
        "class": lambda: gf_class(C, 40),
        "form": lambda: gf_c_variant("sum_over_largest", 40),
    }
    built = calls[first]()
    build_steps.clear()
    other = calls["form" if first == "class" else "class"]()
    assert other.coeffs is built.coeffs
    assert not build_steps


FIRST_PARAMETER = {gf_class: "cls", gf_c_variant: "form", gf_c_chain_stage: "stage"}


def test_keyword_calls_match_positional_calls():
    for builder, arg, _ in BUILDS:
        keyword = builder(**{FIRST_PARAMETER[builder]: arg, "order": 25})
        assert keyword == builder(arg, 25), arg
        assert builder(arg, order=12) == builder(arg, 12), arg


def test_builders_keep_their_signatures():
    for builder, first in FIRST_PARAMETER.items():
        assert list(inspect.signature(builder).parameters) == [first, "order"]


@pytest.mark.parametrize(
    "builder,arg", [(gf_class, C), (gf_c_variant, "odd_poch_ratio"), (gf_c_chain_stage, "final")]
)
def test_wrong_argument_counts_raise_the_builders_type_error(builder, arg):
    name = builder.__name__
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing 1 required positional argument: 'order'$"):
        builder(arg)
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes 2 positional arguments but 3 were given$"):
        builder(arg, 5, 5)
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unexpected keyword argument 'depth'$"):
        builder(arg, 5, depth=1)


def _fault_at_q17_of_gf_c(monkeypatch) -> list[TruncatedSeries]:
    """Add 1 to the q^17 coefficient of gf(C); returns the series it was served."""
    original = series.gf_class
    served = []

    def patched(cls, order):
        result = original(cls, order)
        if cls is not C:
            return result
        served.append(result)
        coeffs = list(result.coeffs)
        coeffs[17] += 1
        return TruncatedSeries(coeffs, result.order)

    monkeypatch.setattr(series, "gf_class", patched)
    return served


def test_fault_is_seen_through_a_warm_cache(monkeypatch):
    # shift_BC caches gf(C); a fault wrapped around the public name afterwards
    # still reaches chain_C, which is served the cached series.
    assert verify_identity("shift_BC", 30).passed
    warm = gf_class(C, 30)
    served = _fault_at_q17_of_gf_c(monkeypatch)
    report = verify_identity("chain_C", 30)
    assert served == [warm] and served[0].coeffs is warm.coeffs
    assert not report.passed
    assert (report.exponent, report.context) == (17, "form=sum_over_largest")


def test_fault_is_seen_through_a_higher_order_warm_cache(monkeypatch):
    # The same fault, with chain_C served a prefix of the order-60 gf(C).
    assert verify_identity("shift_BC", 60).passed
    warm = gf_class(C, 60)
    served = _fault_at_q17_of_gf_c(monkeypatch)
    report = verify_identity("chain_C", 30)
    assert served == [TruncatedSeries(warm.coeffs, 30)]
    assert gf_class(C, 60).coeffs is warm.coeffs
    assert not report.passed
    assert (report.exponent, report.context) == (17, "form=sum_over_largest")


def test_cache_stays_bounded(build_steps):
    # Orders 0..99 of every builder leave one table per first argument, the
    # one to order 99, with gf(C) and the form sum_over_largest sharing one:
    # 11 tables.  The chain's double sums add one inner m-sum per gap
    # 2, 4, ..., 100, each held in x = q^2 to the order its outer summand
    # needs at order 99, (99 - (gap - 2)) // 2: 50 tables more.
    for order in range(100):
        for builder, arg, _ in BUILDS:
            builder(arg, order)
    inner = {("inner_m_sum", gap): (101 - gap) // 2 for gap in range(2, 101, 2)}
    assert len(partitions._held) == len(BUILDS) - 1 + len(inner) == 11 + 50
    assert {key: len(partitions._held[key]) - 1 for key in inner} == inner
    assert {len(t) - 1 for key, t in partitions._held.items() if key not in inner} == {99}
    build_steps.clear()
    for builder, arg, _ in BUILDS:
        assert builder(arg, 99).coeffs is builder(arg, 99).coeffs, arg
    assert not build_steps


def test_chain_c_builds_each_inner_m_sum_once(monkeypatch):
    # From an empty store, chain_C reads the inner m-sum of every gap
    # 2, 4, ..., order + 2 twice, once in double_sum and once in split_sum,
    # and builds each once.
    held_prefix, inner_m_sum = series._held_prefix, series._inner_m_sum
    builds, reads = Counter(), Counter()

    def counted_prefix(key, n, build):
        def counted_build(m):
            builds[key] += 1
            return build(m)

        return held_prefix(key, n, counted_build)

    def counted_read(order, gap):
        reads[gap] += 1
        return inner_m_sum(order, gap)

    monkeypatch.setattr(series, "_held_prefix", counted_prefix)
    monkeypatch.setattr(series, "_inner_m_sum", counted_read)
    order = 60
    assert verify_identity("chain_C", order).passed
    gaps = range(2, order + 3, 2)
    assert reads == dict.fromkeys(gaps, 2)
    inner_builds = {key: n for key, n in builds.items() if isinstance(key, tuple)}
    assert inner_builds == {("inner_m_sum", gap): 1 for gap in gaps}


# ------------------------------------------------------------ growth gate


def _sparse_slice_lengths(c: list[int], step: int) -> int:
    """len(c) - g summed over the exponents g = step*k(3k-1)/2, k != 0, of the
    terms of (q^step;q^step)_inf below len(c): a sparse product or quotient
    rewrites, for each term but the constant 1, the slice from its exponent on."""
    exponents = (step * k * (3 * k - 1) // 2 for k in range(-len(c), len(c) + 1) if k)
    return sum(len(c) - g for g in exponents if g < len(c))


# The coefficients one call of an in-place primitive updates: the length of
# the slice it rewrites.
SLICE_LENGTHS = {
    "_mul_factor": lambda c, sign, e: max(len(c) - e, 0),
    "_div_factor": lambda c, sign, e: max(len(c) - e, 0),
    "_add_into": lambda target, coeffs, at=0: max(min(len(target) - at, len(coeffs)), 0),
    "_mul_pentagonal": _sparse_slice_lengths,
    "_div_pentagonal": _sparse_slice_lengths,
}


@pytest.fixture
def coeff_updates(monkeypatch):
    """Counter, by primitive, of the coefficients updated while the test runs.

    Every module that binds a primitive gets the counting wrapper.  The
    dynamic programs and the series builders do all their coefficient
    arithmetic in these primitives, so both are counted in full.
    """
    updates = Counter()

    def counted(name, primitive):
        def wrapper(*args):
            updates[name] += SLICE_LENGTHS[name](*args)
            return primitive(*args)

        return wrapper

    for name in SLICE_LENGTHS:
        primitive = getattr(partitions, name)
        for module in (partitions, series, oracle):
            if getattr(module, name, None) is primitive:
                monkeypatch.setattr(module, name, counted(name, primitive))
    return updates


# Coefficient updates of each identity and chain stage from empty caches at
# orders 250 and 1000, and bounds on their growth per doubling of the order,
# (at_1000 / at_250) ** (1/2).  The counts do not depend on the machine.  An
# O(N^2) build grows about 4x.  The inner m-sums of double_sum and split_sum
# are O(N^2 log N): the one of gap 2n + 2 is built once, in x = q^2 to order
# (N - 2n) / 2, in about (N - 2n)^2 / (8n + 8) updates, and held; each stage's
# outer summand n adds it, spread to q, in N - 2n + 1 more, whether it built it
# or read it.  Each of these updates is a _div_factor or an _add_into, so the
# pins count them in full; the spread to q copies and adds nothing.  The inner
# m-sums alone grow 4.86x here.
QUADRATIC = (3.99, 4.01)
INNER = (4.85, 4.87)
# A sparse product or quotient by (q;q)_inf or (q^2;q^2)_inf is O(N^1.5) and
# grows 2^1.5 = 2.83x, 2.87-2.89x here with its lower-order terms.
SPARSE = (2.86, 2.90)


def mixed(sparse: float, inner: float = 0.0) -> tuple[float, float]:
    """Growth band of a build whose updates at order 250 are the shares
    `sparse` of sparse products and `inner` of inner m-sum builds, the rest
    O(N^2): the root of the mean of the squared growths, so weighted."""
    rest = 1 - sparse - inner
    return tuple(
        (rest * q * q + sparse * p * p + inner * m * m) ** 0.5
        for q, p, m in zip(QUADRATIC, SPARSE, INNER)
    )


COEFF_UPDATES = {
    "euler_AB": (47_125, 751_000, QUADRATIC),
    "shift_BC": (52_062, 833_250, QUADRATIC),
    "chain_C": (278_945, 4_476_725, mixed(0.065, 0.075)),
    "half_D": (78_064, 1_249_752, QUADRATIC),
    "thm_all": (125_187, 2_000_750, QUADRATIC),
    "factored": (28_930, 421_264, mixed(0.194)),
    "double_sum": (55_066, 1_015_468, mixed(0.051, 0.378)),
    "split_sum": (55_129, 1_015_718, mixed(0.051, 0.378)),
    "bracket_reciprocals": (74_763, 1_140_858, mixed(0.092)),
    "final": (41_752, 667_002, QUADRATIC),
}


@pytest.mark.parametrize("name", COEFF_UPDATES)
def test_coefficient_updates_are_pinned(coeff_updates, name):
    build = verify_identity if name in IDENTITY_NAMES else gf_c_chain_stage
    counts = []
    for order in (250, 1000):
        _clear_caches()
        coeff_updates.clear()
        build(name, order)
        counts.append(coeff_updates.total())
    at_250, at_1000, (low, high) = COEFF_UPDATES[name]
    assert low <= (counts[1] / counts[0]) ** 0.5 <= high
    assert counts == [at_250, at_1000]


# Coefficient updates of euler_expansion_check for c = 1..5, in turn, from
# empty caches at orders 250 and 1000.  Each sign's base 1/(sign*q;q)_inf is
# built once, at c = 1, in N(N+1)/2 updates, and held; each c multiplies a copy
# of it by (1 - sign*q^e) for e in 1..c-1, N + 1 - e updates per factor.  The
# right sides are O(N^2) folds, built afresh for every c.
EULER_EXPANSION_UPDATES = (157_830, 2_468_880)


def test_euler_expansion_updates_are_pinned(coeff_updates):
    counts = []
    for order in (250, 1000):
        _clear_caches()
        coeff_updates.clear()
        for c in range(1, 6):
            assert euler_expansion_check(c, order).passed, c
        total = coeff_updates.total()
        coeff_updates.clear()
        for c in range(1, 6):
            for sign in (1, -1):
                series._euler_rhs(c, sign, order)
        cold = order * (order + 1) // 2
        steps = sum(order + 1 - e for c in range(2, 6) for e in range(1, c))
        assert total - coeff_updates.total() == 2 * (cold + steps)
        counts.append(total)
    assert counts == list(EULER_EXPANSION_UPDATES)


# Coefficient updates of count_table(cls, n) by dynamic program at n = 250 and
# n = 1000, with their own bounds on growth per doubling: every table is
# O(n^2), but its lower-order terms keep B and D just below QUADRATIC's floor
# at these sizes.  A class-C table rebuilt for every largest part, O(n^3),
# would grow about 8x.
DP_QUADRATIC = (3.98, 4.01)
DP_COEFF_UPDATES = {
    A: (31_375, 500_500),
    B: (15_750, 250_500),
    C: (51_937, 832_750),
    D: (39_376, 626_251),
}


@pytest.mark.parametrize("cls", list(PartitionClass))
def test_dynamic_program_updates_are_pinned(coeff_updates, cls):
    counts = []
    for n in (250, 1000):
        coeff_updates.clear()
        count_table(cls, n)
        counts.append(coeff_updates.total())
    low, high = DP_QUADRATIC
    assert low <= (counts[1] / counts[0]) ** 0.5 <= high
    assert counts == list(DP_COEFF_UPDATES[cls])


@pytest.mark.parametrize("cls", list(PartitionClass))
def test_held_dynamic_program_table_makes_no_updates(coeff_updates, cls):
    # The held table serves its own n_max and every lower one without a build.
    count_table(cls, 1000)
    assert coeff_updates.total() == DP_COEFF_UPDATES[cls][1]
    coeff_updates.clear()
    for n in (1000, 999, 250, 0):
        count_table(cls, n)
    assert coeff_updates.total() == 0
