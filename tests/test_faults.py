"""Seeded faults: every series check must catch one coefficient off by one.

Each test wraps one builder so that its coefficient of q^k comes out one too
large, then asserts that the check reports exactly that exponent and the
exact context string, so that no check passes vacuously.
"""

import pytest

from eulerlab import series
from eulerlab.partitions import PartitionClass
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


@pytest.mark.parametrize("sign,context", [(1, "t=q^c"), (-1, "t=-q^c")])
def test_euler_expansion_fault_is_reported(monkeypatch, sign, context):
    original = series._euler_rhs

    def patched(c, s, order):
        rhs = original(c, s, order)
        if s == sign:
            rhs[K] += 1
        return rhs

    monkeypatch.setattr(series, "_euler_rhs", patched)
    _assert_caught(series.euler_expansion_check(2, ORDER), K, context)

