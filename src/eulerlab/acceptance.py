"""The acceptance suite: every headline claim, run end to end at full scale.

Each criterion returns a CriterionResult instead of raising, so the CLI
selftest and the pytest wrappers can share one implementation.  A criterion
is written as a check that returns its failure detail, or "" on a pass; the
_criterion decorator times it and names the result after it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, ParamSpec, Sequence

from .maps import b_to_c, c_to_b, d_lift, d_reduce, glaisher_to_distinct, glaisher_to_odd
from .partitions import (
    COUNT_METHODS,
    METHOD_DYNAMIC_PROGRAM,
    PartitionClass,
    count_table,
    enumerate_class,
    is_in_class,
    render_class_d,
)
from .series import (
    C_FORMS,
    IDENTITY_NAMES,
    euler_expansion_check,
    gf_c_variant,
    verify_identity,
)

A = PartitionClass.A
B = PartitionClass.B
C = PartitionClass.C
D = PartitionClass.D

GOLDEN_A6 = {"6", "5+1", "4+2", "3+2+1"}
GOLDEN_B6 = {"5+1", "3+3", "3+1+1+1", "1+1+1+1+1+1"}
GOLDEN_C7 = {"6+1", "4+3", "4+2+1", "2+2+2+1"}
GOLDEN_D7 = {
    "0+0+7",
    "0+0+6+1",
    "0+0+5+2",
    "0+0+4+3",
    "0+0+4+2+1",
    "1+1+5",
    "1+1+2+3",
    "2+2+3",
}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


_P = ParamSpec("_P")


def _criterion(check: Callable[_P, str]) -> Callable[_P, CriterionResult]:
    """Run check, timed, as the criterion named after it; "" means it passed."""

    @functools.wraps(check)
    def criterion(*args: _P.args, **kwargs: _P.kwargs) -> CriterionResult:
        t0 = perf_counter()
        detail = check(*args, **kwargs)
        return CriterionResult(check.__name__, not detail, detail, perf_counter() - t0)

    return criterion


@_criterion
def golden_table() -> str:
    """The weight-6 counts and the four exact partition lists."""
    counts, lists = [], []
    listings = (
        (6, A, GOLDEN_A6, str),
        (6, B, GOLDEN_B6, str),
        (7, C, GOLDEN_C7, str),
        (7, D, GOLDEN_D7, render_class_d),
    )
    for n, cls, expected, render in listings:
        listed = enumerate_class(n, cls)
        if len(listed) != len(expected):
            counts.append(f"count({n},{cls.value})={len(listed)}, expected {len(expected)}")
        got = {render(p) for p in listed}
        if got != expected:
            lists.append(f"list({n},{cls.value}): {sorted(got)} != {sorted(expected)}")
    return "; ".join(counts + lists)


@_criterion
def theorem_by_enumeration(n_max: int = 60) -> str:
    """A(n) = B(n) = C(n+1) = D(n+1)/2 by exhaustive listing, 1 <= n <= n_max."""
    cutoff = n_max + 1
    for n in range(1, n_max + 1):
        a = len(enumerate_class(n, A, cutoff))
        b = len(enumerate_class(n, B, cutoff))
        c = len(enumerate_class(n + 1, C, cutoff))
        d = len(enumerate_class(n + 1, D, cutoff))
        if not (a == b == c and d == 2 * a and d % 2 == 0):
            return f"n={n}: A={a} B={b} C(n+1)={c} D(n+1)={d}"
    return ""


@_criterion
def theorem_by_series(order: int = 200) -> str:
    """All five identity checks by series coefficients at the given order."""
    reports = (verify_identity(name, order) for name in IDENTITY_NAMES)
    return next((r.summary() for r in reports if not r.passed), "")


@_criterion
def c_forms_match_b(order: int = 200) -> str:
    """coeff(gf_C, n+1) = B(n) for 1 <= n <= order-1, in all three C forms."""
    b_values = count_table(B, order - 1, METHOD_DYNAMIC_PROGRAM)
    for form in C_FORMS:
        coeffs = gf_c_variant(form, order).coeffs
        for n in range(1, order):
            if coeffs[n + 1] != b_values[n]:
                return f"form={form} n={n}: {coeffs[n + 1]} != {b_values[n]}"
    return ""


@_criterion
def chain_stages(order: int = 200) -> str:
    """All five doubled chain stages equal 2*gf_C, and 2*gf_C = gf_D + 1 - q."""
    reports = (verify_identity(name, order) for name in ("chain_C", "half_D"))
    return next((r.summary() for r in reports if not r.passed), "")


@_criterion
def euler_expansion(max_c: int = 5, order: int = 100) -> str:
    """The reciprocal-product expansion at t = q^c and t = -q^c, c = 1..max_c."""
    reports = (euler_expansion_check(c, order) for c in range(1, max_c + 1))
    return next((r.summary() for r in reports if not r.passed), "")


@_criterion
def bijection_suite(max_weight: int = 40) -> str:
    """Exhaustive round trips, image classes, and fiber sizes up to max_weight."""
    for n in range(0, max_weight + 1):
        for p in enumerate_class(n, A):
            image = glaisher_to_odd(p)
            if image.weight != n or not is_in_class(image, B):
                return f"glaisher_to_odd({p}) bad image {image}"
            if glaisher_to_distinct(image) != p:
                return f"glaisher round trip failed at {p}"
        for p in enumerate_class(n, B):
            image = glaisher_to_distinct(p)
            if image.weight != n or not is_in_class(image, A):
                return f"glaisher_to_distinct({p}) bad image {image}"
            if glaisher_to_odd(image) != p:
                return f"glaisher inverse round trip failed at {p}"
            if n >= 1:
                up = b_to_c(p)
                if up.weight != n + 1 or not is_in_class(up, C):
                    return f"b_to_c({p}) bad image {up}"
                if c_to_b(up) != p:
                    return f"b_to_c then c_to_b failed at {p}"
        for p in enumerate_class(n, C):
            image = c_to_b(p)
            if image.weight != n - 1 or not is_in_class(image, B):
                return f"c_to_b({p}) bad image {image}"
            if image.parts[0] != p.parts[0] - 1:
                return f"c_to_b({p}) largest part {image.parts[0]}"
            if b_to_c(image) != p:
                return f"c_to_b then b_to_c failed at {p}"

    for n in range(2, max_weight + 1):
        fibers = set()
        for p in enumerate_class(n, D):
            mu, tag = d_reduce(p)
            if mu.weight != n - 1 or not is_in_class(mu, A):
                return f"d_reduce({p}) bad image {mu}"
            if d_lift(mu, tag.bit) != p:
                return f"d_reduce then d_lift failed at {p}"
            fibers.add((mu.parts, tag.bit))
        expected = {
            (mu.parts, bit) for mu in enumerate_class(n - 1, A) for bit in (0, 1)
        }
        if fibers != expected:
            return f"fiber structure off at weight {n}"

    for n in range(1, max_weight + 1):
        images = sorted(c_to_b(p).parts for p in enumerate_class(n + 1, C))
        targets = sorted(p.parts for p in enumerate_class(n, B))
        if images != targets:
            return f"c_to_b image set differs from class B at weight {n}"

    return ""


@_criterion
def oracle_equivalence(n_max: int = 30) -> str:
    """Enumeration, dynamic program, and series coefficients agree to n_max."""
    for cls in PartitionClass:
        tables = {m: count_table(cls, n_max, m) for m in COUNT_METHODS}
        for n in range(n_max + 1):
            values = {m: tables[m][n] for m in COUNT_METHODS}
            if len(set(values.values())) != 1:
                return f"class {cls.value}, n={n}: {values}"
    return ""


CRITERIA: dict[str, Callable[[], CriterionResult]] = {
    "golden_table": golden_table,
    "theorem_by_enumeration": theorem_by_enumeration,
    "theorem_by_series": theorem_by_series,
    "c_forms_match_b": c_forms_match_b,
    "chain_stages": chain_stages,
    "euler_expansion": euler_expansion,
    "bijection_suite": bijection_suite,
    "oracle_equivalence": oracle_equivalence,
}


def run_all(names: Sequence[str] | None = None) -> list[CriterionResult]:
    selected = names or tuple(CRITERIA)
    return [CRITERIA[name]() for name in selected]
