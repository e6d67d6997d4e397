"""The O(N^2) series kernel against the slow reference route in oracle.py.

The package builders derive each summand from the previous one by in-place
multiplication and division by factors (1 - s*q^e); oracle.py keeps the
original builders that rebuild every summand from scratch.  Both must agree
on every coefficient, and the package route must not fall back on the generic
TruncatedSeries ring at all.  The in-place primitives, and the dynamic
program's own pair in partitions, are checked against the ring directly.
"""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
from eulerlab import partitions, series
from eulerlab.partitions import PartitionClass, count_table
from eulerlab.series import (
    C_FORMS,
    CHAIN_STAGES,
    IDENTITY_NAMES,
    TruncatedSeries,
    _div_factor,
    _euler_lhs,
    _euler_rhs,
    _mul_factor,
    euler_expansion_check,
    gf_c_chain_stage,
    gf_c_variant,
    gf_class,
    verify_identity,
)

ORDERS = list(range(1, 41)) + [200, 270]


# ------------------------------------------------------------- primitives

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=15)
exponents = st.integers(1, 18)
signs = st.sampled_from([1, -1])


def _div_binomial(c: list[int], sign: int, e: int) -> None:
    """partitions._div_binomial in the series signature; it divides by 1 - q^e only."""
    assume(sign == 1)
    partitions._div_binomial(c, e)


# (multiply, divide) by 1 - sign*q^e: the series kernel, and the dynamic
# program's own pair in partitions, which does not import the series kernel.
kernels = st.sampled_from([(_mul_factor, _div_factor), (partitions._mul_binomial, _div_binomial)])


def _factor(order: int, sign: int, e: int) -> TruncatedSeries:
    """1 - sign*q^e, truncated at order."""
    return TruncatedSeries.one(order) - TruncatedSeries.monomial(order, e, sign)


@given(kernels, coeff_lists, exponents, signs)
def test_mul_factor_matches_ring_product(kernel, coeffs, e, sign):
    mul, _ = kernel
    c = list(coeffs)
    mul(c, sign, e)
    expected = TruncatedSeries(coeffs) * _factor(len(coeffs) - 1, sign, e)
    assert TruncatedSeries(c) == expected


@given(kernels, coeff_lists, exponents, signs)
def test_div_factor_matches_ring_reciprocal(kernel, coeffs, e, sign):
    _, div = kernel
    c = list(coeffs)
    div(c, sign, e)
    expected = TruncatedSeries(coeffs) * _factor(len(coeffs) - 1, sign, e).reciprocal()
    assert TruncatedSeries(c) == expected


@given(kernels, coeff_lists, exponents, signs)
def test_mul_then_div_is_identity(kernel, coeffs, e, sign):
    mul, div = kernel
    c = list(coeffs)
    mul(c, sign, e)
    div(c, sign, e)
    assert c == coeffs
    div(c, sign, e)
    mul(c, sign, e)
    assert c == coeffs


# ---------------------------------------------------- differential checks


@pytest.mark.parametrize("order", ORDERS)
def test_gf_class_matches_reference(order):
    for cls in PartitionClass:
        assert gf_class(cls, order) == oracle.slow_gf_class(cls, order), cls


@pytest.mark.parametrize("order", ORDERS)
def test_c_forms_match_reference(order):
    for form in C_FORMS:
        assert gf_c_variant(form, order) == oracle.slow_c_variant(form, order), form


@pytest.mark.parametrize("order", ORDERS)
def test_chain_stages_match_reference(order):
    for stage in CHAIN_STAGES:
        assert gf_c_chain_stage(stage, order) == oracle.slow_chain_stage(stage, order), stage


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


# ----------------------------------------------- no ring on the fast route


def test_fast_route_uses_no_ring_operation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("generic series ring used on the fast route")

    monkeypatch.setattr(series, "pochhammer", forbidden)
    for attr in ("reciprocal", "__mul__", "__rmul__"):
        monkeypatch.setattr(TruncatedSeries, attr, forbidden)
    for name in IDENTITY_NAMES:
        assert verify_identity(name, 40).passed, name
    for c in range(1, 6):
        assert euler_expansion_check(c, 40).passed, c
    for cls in PartitionClass:
        assert count_table(cls, 40, "series-coefficient") == count_table(cls, 40), cls
