"""The O(N^2) series kernel against the slow reference routes in oracle.py.

The package builders fold every sum by Horner's rule from the top summand
down, H_n = U_n + scale*q^gap*R_(n+1)*H_(n+1), each step an in-place
multiplication or division by factors (1 - s*q^e); oracle.py keeps the
original builders that rebuild every summand from scratch, and the original
evaluator that adds each summand front to back.  The fold must agree with the
front-to-back sum on random ratios, and the builders with the slow ones on
every coefficient from order 0; the package route must not fall back on the
generic TruncatedSeries ring at all.  The in-place primitives, which live in
partitions and serve its dynamic programs too, are checked against the
oracle's reference ring and against the oracle's copy of the kernel: the
factor passes against ring products and reciprocals, the shifted add against
the ring's target + q^at * coeffs.  The sparse product and quotient by
(q^step;q^step)_inf, from Euler's pentagonal number theorem, are checked
against the factor-by-factor passes to the CLI's highest order and against
the oracle's ring product.  The chain's inner m-sums, built in x = q^2 and
held per gap, are checked against the oracle's fold over every power of q.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from eulerlab import partitions, series
from eulerlab.cli import MAX_ORDER
from eulerlab.partitions import (
    PartitionClass,
    _add_into,
    _div_factor,
    _div_pentagonal,
    _div_poch_inf,
    _mul_factor,
    _mul_pentagonal,
    _mul_poch_inf,
    _unit,
    count_table,
)
from eulerlab.series import (
    C_FORMS,
    CHAIN_STAGES,
    IDENTITY_NAMES,
    TruncatedSeries,
    _euler_lhs,
    _euler_rhs,
    _sum_by_ratio,
    euler_expansion_check,
    gf_c_chain_stage,
    gf_c_variant,
    gf_class,
    verify_identity,
)

# Highest order first: the oracle then builds each reference once, at 270,
# and serves the lower orders as prefixes; the package builds every order.
ORDERS = [270, 200, *range(0, 41)]


# ------------------------------------------------------------- primitives

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=15)
exponents = st.integers(1, 18)
signs = st.sampled_from([1, -1])


def _factor(order: int, sign: int, e: int) -> oracle.TruncatedSeries:
    """1 - sign*q^e, truncated at order, in the oracle's ring."""
    coeffs = [0] * (e + 1)
    coeffs[0], coeffs[e] = 1, -sign
    return oracle.TruncatedSeries(coeffs, order)


# The package's kernel and the oracle's copy, each against the oracle's ring.
MUL_FACTORS = (_mul_factor, oracle.mul_factor)
DIV_FACTORS = (_div_factor, oracle.div_factor)
ADDS = (_add_into, oracle.add_into)


@given(coeff_lists, exponents, signs)
def test_mul_factor_matches_ring_product(coeffs, e, sign):
    expected = oracle.TruncatedSeries(coeffs) * _factor(len(coeffs) - 1, sign, e)
    for mul in MUL_FACTORS:
        c = list(coeffs)
        mul(c, sign, e)
        assert tuple(c) == expected.coeffs, mul


@given(coeff_lists, exponents, signs)
def test_div_factor_matches_ring_reciprocal(coeffs, e, sign):
    expected = oracle.TruncatedSeries(coeffs) * _factor(len(coeffs) - 1, sign, e).reciprocal()
    for div in DIV_FACTORS:
        c = list(coeffs)
        div(c, sign, e)
        assert tuple(c) == expected.coeffs, div


# at = 0; at past the end; coeffs running past the end; coeffs ending short.
@example([1, 2, 3], [4, 5], 0)
@example([1, 2, 3], [4], 3)
@example([1, 2, 3], [4, 5], 7)
@example([1, 2, 3], [4, 5, 6], 2)
@example([1, 2, 3, 4], [5], 1)
@given(coeff_lists, coeff_lists, st.integers(0, 18))
def test_add_into_matches_ring_sum(target, coeffs, at):
    order = len(target) - 1
    shifted = oracle.TruncatedSeries([0] * at + coeffs, order)
    expected = oracle.TruncatedSeries(target) + shifted
    for add in ADDS:
        c = list(target)
        add(c, coeffs, at)
        assert tuple(c) == expected.coeffs, add


long_lists = st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=300)


@given(long_lists, st.integers(1, 320), signs)
def test_kernel_matches_oracle_copy(coeffs, e, sign):
    # Longer lists and larger coefficients than the ring can check quickly.
    for ours, theirs in ((_mul_factor, oracle.mul_factor), (_div_factor, oracle.div_factor)):
        c, expected = list(coeffs), list(coeffs)
        ours(c, sign, e)
        theirs(expected, sign, e)
        assert c == expected, ours


@given(long_lists, long_lists, st.integers(0, 320))
def test_add_into_matches_oracle_copy(target, coeffs, at):
    expected = list(target)
    oracle.add_into(expected, coeffs, at)
    c = list(target)
    assert _add_into(c, coeffs, at) is c
    assert c == expected


@given(coeff_lists, exponents, signs)
def test_mul_then_div_is_identity(coeffs, e, sign):
    c = list(coeffs)
    _mul_factor(c, sign, e)
    _div_factor(c, sign, e)
    assert c == coeffs
    _div_factor(c, sign, e)
    _mul_factor(c, sign, e)
    assert c == coeffs


# The sparse products and quotients by (q^step;q^step)_inf, step 1 or 2,
# against the factor-by-factor route they replace in the chain stages, to the
# highest order the CLI accepts, and against the oracle ring's product.
STEPS = (1, 2)


def sparse_mismatches(order: int) -> list[tuple[str, int]]:
    """The (primitive, step) pairs whose sparse result on the unit, to order,
    differs from the dense one: the product itself, and its reciprocal."""
    routes = (
        (_mul_pentagonal, _mul_poch_inf),
        (_div_pentagonal, _div_poch_inf),
    )
    return [
        (sparse.__name__, step)
        for sparse, dense in routes
        for step in STEPS
        if sparse(_unit(order), step) != dense(_unit(order), +1, step, step)
    ]


def test_sparse_products_match_dense_to_max_order():
    assert sparse_mismatches(MAX_ORDER) == []


@example([1] * 300, 1)
@example(list(range(-150, 150)), 2)
@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=300), st.sampled_from(STEPS))
def test_sparse_products_match_ring(coeffs, step):
    given_series = oracle.TruncatedSeries(coeffs)
    product = oracle._poch(+1, step, step, None, len(coeffs) - 1)
    c = list(coeffs)
    assert _mul_pentagonal(c, step) is c
    assert tuple(c) == (product * given_series).coeffs
    c = list(coeffs)
    assert _div_pentagonal(c, step) is c
    assert tuple(c) == (given_series * product.reciprocal()).coeffs


# A ratio factor (sign, a, b, power) is (1 - sign*q^(a*n + b))^power; its
# exponent at n = 1, a + b, is at least 1.
ratio_factors = st.integers(1, 3).flatmap(
    lambda a: st.tuples(signs, st.just(a), st.integers(1 - a, 3), signs)
)


@given(st.lists(ratio_factors, max_size=4), st.integers(1, 3), signs, st.integers(0, 40), st.data())
def test_fold_matches_front_to_back_sum(ratio, gap, scale, order, data):
    first = data.draw(st.lists(st.integers(-5, 5), min_size=order + 1, max_size=order + 1))
    addends = data.draw(st.none() | st.lists(coeff_lists, min_size=1, max_size=4))
    term = None if addends is None else (lambda n, mo: addends[n % len(addends)][: mo + 1])
    folded = _sum_by_ratio(order, gap, tuple(ratio), scale, term)
    expected = oracle.slow_sum_by_ratio(order, list(first), gap, tuple(ratio), scale, term)
    # the fold leaves out T_0, which multiplies every summand
    product = oracle.TruncatedSeries(folded) * oracle.TruncatedSeries(first)
    assert list(product.coeffs) == expected


# ---------------------------------------------------- differential checks


@pytest.mark.parametrize("order", ORDERS)
def test_gf_class_matches_reference(order):
    for cls in PartitionClass:
        assert gf_class(cls, order).coeffs == oracle.slow_gf_class(cls, order).coeffs, cls


@pytest.mark.parametrize("order", ORDERS)
def test_c_forms_match_reference(order):
    for form in C_FORMS:
        assert gf_c_variant(form, order).coeffs == oracle.slow_c_variant(form, order).coeffs, form


@pytest.mark.parametrize("order", ORDERS)
def test_chain_stages_match_reference(order):
    for stage in CHAIN_STAGES:
        expected = oracle.slow_chain_stage(stage, order).coeffs
        assert gf_c_chain_stage(stage, order).coeffs == expected, stage


@pytest.mark.parametrize("order", ORDERS)
def test_euler_rhs_matches_reference(order):
    for c in range(1, 6):
        for sign in (1, -1):
            assert _euler_rhs(c, sign, order) == oracle.slow_euler_rhs(c, sign, order), (c, sign)


@pytest.mark.parametrize("order", ORDERS)
def test_euler_lhs_matches_reference(order):
    for c in range(1, 6):
        for sign in (1, -1):
            assert _euler_lhs(c, sign, order) == oracle.slow_euler_lhs(c, sign, order), (c, sign)


# ------------------------------------------------- held Euler left sides

# _euler_lhs holds 1/(sign*q;q)_inf per sign and multiplies its prefix up to
# each c by single factors; every warm side must equal the cold build and the
# slow reference.


@pytest.mark.parametrize("sign", (1, -1))
def test_held_euler_lhs_matches_cold_build(sign):
    for order in range(60, -1, -1):
        for c in range(1, 7):
            cold = _div_poch_inf(_unit(order), sign, c, 1)
            assert cold == oracle.slow_euler_lhs(c, sign, order), (c, order)
            for held_c in range(1, 7):
                # held at the same order, and at a higher one
                for held_order in {order, 60}:
                    partitions._held.clear()
                    _euler_lhs(held_c, sign, held_order)
                    assert _euler_lhs(c, sign, order) == cold, (c, held_c, held_order, order)


@pytest.fixture
def cold_builds(monkeypatch):
    """The (offset, sign, order) of every Euler base built while the test runs."""
    builds = []
    dense = series._div_poch_inf

    def counted(coeffs, sign, offset, step):
        builds.append((offset, sign, len(coeffs) - 1))
        return dense(coeffs, sign, offset, step)

    monkeypatch.setattr(series, "_div_poch_inf", counted)
    return builds


def test_higher_order_than_held_rebuilds_cold(cold_builds):
    _euler_lhs(2, 1, 20)
    assert _euler_lhs(3, 1, 20) == oracle.slow_euler_lhs(3, 1, 20)
    assert _euler_lhs(1, 1, 15) == oracle.slow_euler_lhs(1, 1, 15)
    assert _euler_lhs(4, 1, 16) == oracle.slow_euler_lhs(4, 1, 16)
    assert cold_builds == [(1, 1, 20)]
    assert _euler_lhs(5, -1, 16) == oracle.slow_euler_lhs(5, -1, 16)
    assert _euler_lhs(4, 1, 21) == oracle.slow_euler_lhs(4, 1, 21)
    assert cold_builds == [(1, 1, 20), (1, -1, 16), (1, 1, 21)]


def test_mutating_a_held_side_changes_no_later_one():
    first = _euler_lhs(2, -1, 30)
    first[7] += 1
    first.append(5)
    assert _euler_lhs(2, -1, 30) == oracle.slow_euler_lhs(2, -1, 30)
    again = _euler_lhs(2, -1, 30)
    again[:] = []
    assert _euler_lhs(3, -1, 30) == oracle.slow_euler_lhs(3, -1, 30)


def test_cache_clear_empties_the_held_sides(cold_builds):
    for sign in (1, -1):
        _euler_lhs(1, sign, 10)
    assert {("euler_lhs", 1), ("euler_lhs", -1)} <= set(partitions._held)
    partitions._held.clear()
    assert not partitions._held
    _euler_lhs(2, 1, 10)
    assert cold_builds == [(1, 1, 10), (1, -1, 10), (1, 1, 10)]


# ------------------------------------------------------ held inner m-sums

# The chain's inner m-sums are built in x = q^2 and held per gap; spread back
# to q, each must equal the oracle's q-form fold, built cold at every order of
# both parities and served as a prefix of the builds at the highest order.
# Every even gap up to order + 2 is asked for, so a gap past the order is too.
INNER_ORDERS = [*range(0, 61), 199, 200, 271]


def test_held_inner_m_sums_match_the_q_form_fold(monkeypatch):
    expected = {}
    for order in INNER_ORDERS:
        partitions._held.clear()
        for gap in range(2, order + 3, 2):
            expected[order, gap] = oracle.inner_m_sum(order, gap)
            assert series._inner_m_sum(order, gap) == expected[order, gap], (order, gap)
    builds = []
    monkeypatch.setattr(series, "_sum_by_ratio", lambda *args: builds.append(args))
    for (order, gap), coeffs in expected.items():
        assert series._inner_m_sum(order, gap) == coeffs, (order, gap)
    assert not builds


# ----------------------------------------------- no ring on the fast route


def test_fast_route_uses_no_ring_operation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("generic series ring used on the fast route")

    monkeypatch.setattr(series, "pochhammer", forbidden)
    for attr in ("reciprocal", "__mul__"):
        monkeypatch.setattr(TruncatedSeries, attr, forbidden)
    for name in IDENTITY_NAMES:
        assert verify_identity(name, 40).passed, name
    for c in range(1, 6):
        assert euler_expansion_check(c, 40).passed, c
    for cls in PartitionClass:
        assert count_table(cls, 40, "series-coefficient") == count_table(cls, 40), cls
