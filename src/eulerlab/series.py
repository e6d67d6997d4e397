"""Exact truncated power series over the integers, and the class generating
functions built from q-Pochhammer products.

Everything is computed modulo q^(order+1) with arbitrary-precision integer
coefficients; there is no floating point anywhere.
"""

from __future__ import annotations

from itertools import zip_longest
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .partitions import (
    PartitionClass,
    _add_into,
    _div_factor,
    _div_pentagonal,
    _div_poch_inf,
    _held_prefix,
    _Immutable,
    _mul_factor,
    _mul_pentagonal,
    _mul_poch_inf,
    _unit,
)


class InvertibilityError(ValueError):
    """Constant term is not a unit over the integers."""


class TruncatedSeries(_Immutable):
    """Integer power series known exactly for exponents 0..order.

    Instances are immutable (assigning or deleting an attribute raises
    AttributeError), so one built series can be shared by every caller.
    * (built on the kernel's _add_into) and reciprocal serve the benchmark
    tracer only; each returns a new series truncated to the smaller order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        if order is None:
            if not coeffs:
                raise ValueError("need at least the constant coefficient")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        # an exact-length tuple, such as a held table, is taken as it is
        coeffs = tuple(coeffs[: order + 1])
        if len(coeffs) <= order:
            coeffs += (0,) * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient of q^{n} is outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries([other * c for c in self.coeffs], self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = [0] * (order + 1)
        for i, ai in enumerate(self.coeffs[: order + 1]):
            if ai:
                _add_into(out, [ai * b for b in other.coeffs[: order + 1 - i]], i)
        return TruncatedSeries(out, order)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo q^(order+1) by coefficient recursion.

        Requires constant term +1 or -1, the units of the integer
        coefficient ring.
        """
        a = self.coeffs
        c0 = a[0]
        if c0 not in (1, -1):
            raise InvertibilityError(f"constant term {c0} is not +1 or -1")
        n = self.order
        b = [0] * (n + 1)
        b[0] = c0
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m + 1):
                ak = a[k]
                if ak:
                    acc += ak * b[m - k]
            b[m] = -c0 * acc
        return TruncatedSeries(b, n)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncatedSeries(order={self.order}, coeffs=[{head}{tail}])"


class PochSpec(_Immutable):
    """Product of factors (1 - sign*q^(offset + step*i)) for i = 0, 1, ...

    terms=None means the infinite product, which truncates itself once the
    exponent passes the series order; sign=-1 gives (1 + q^e) factors.
    """

    __slots__ = ("sign", "offset", "step", "terms")

    def __init__(self, sign: int, offset: int, step: int = 1, terms: int | None = None) -> None:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if offset < 1:
            raise ValueError("offset must be >= 1")
        if step < 1:
            raise ValueError("step must be >= 1")
        if terms is not None and terms < 0:
            raise ValueError("terms must be non-negative or None")
        for name, value in zip(self.__slots__, (sign, offset, step, terms)):
            object.__setattr__(self, name, value)


def pochhammer(spec: PochSpec, order: int) -> TruncatedSeries:
    """Evaluate the (possibly infinite) product of a PochSpec modulo q^(order+1)."""
    coeffs = _unit(order)
    for e in range(spec.offset, order + 1, spec.step)[: spec.terms]:
        _mul_factor(coeffs, spec.sign, e)
    return TruncatedSeries(coeffs, order)


# The series builders below are sums of q-Pochhammer quotients.  Consecutive
# summands differ by a few factors (1 - s*q^e), and multiplying or dividing a
# coefficient list by one such factor is an O(N) in-place recurrence.  One
# evaluator folds each sum by Horner's rule from the top summand down,
# carrying each partial sum only to the order it still needs, so a whole
# build costs O(N^2).  A product common to every summand, such as a first
# summand T_0, is applied once to the folded sum.  The factor passes and the
# add are the in-place kernel of partitions, which the dynamic programs share.
#
# A term ratio R_n = T_n / T_(n-1), apart from the q^gap of the sum, is written
# as data: a tuple of factors (sign, a, b, power), each meaning
# (1 - sign*q^(a*n + b))^power with power +1 or -1.
Ratio = tuple[tuple[int, int, int, int], ...]


def _sum_by_ratio(
    order: int,
    gap: int,
    ratio: Ratio,
    scale: int = 1,
    term: Callable[[int, int], Sequence[int]] | None = None,
) -> list[int]:
    """Coefficients 0..order of sum_{n >= 0} scale^n q^(gap*n) R_1...R_n U_n.

    R_k is the product of the factors of `ratio` at k, and scale is +1 or -1.
    U_n is 1, or term(n, mo), the coefficients of U_n to relative order
    mo = order - gap*n.  Folded by Horner's rule from the top n down:
    H_n = U_n + scale*q^gap*R_(n+1)*H_(n+1), and the sum is H_0.  The fold
    carries g_n = scale^n H_n = scale^n U_n + q^gap*R_(n+1)*g_(n+1), so at
    scale -1 it negates U_n at odd n, never the partial sum, and g_0 = H_0.
    """
    factors = [(_mul_factor if p == 1 else _div_factor, sign, a, b) for sign, a, b, p in ratio]
    h: list[int] = []
    for n in range(order // gap, -1, -1):
        for apply, sign, a, b in factors:
            apply(h, sign, a * (n + 1) + b)
        h[:0] = [0] * min(gap, order - gap * n + 1)
        sn = scale**n
        if term is None:
            h[0] += sn
        else:
            u = term(n, len(h) - 1)
            _add_into(h, u if sn == 1 else [-x for x in u])
    return h


# The three sum forms of gf_C, each summand indexed by half the largest part
# and each stepped by the ratio of its own displayed summand:
#   sum_over_largest  q^(2n) (-q;q)_n / (q^(n+1);q)_n,
#                     q^2 (1+q^n)(1-q^n) / ((1-q^(2n-1))(1-q^(2n)));
#   even_poch_ratio   q^(2n) (q^2;q^2)_n / (q;q)_(2n),
#                     q^2 (1-q^(2n)) / ((1-q^(2n-1))(1-q^(2n)));
#   odd_poch_ratio    q^(2n) / (q;q^2)_n,  q^2 / (1-q^(2n-1)).
_C_FORM_RATIOS: dict[str, Ratio] = {
    "sum_over_largest": ((-1, 1, 0, 1), (1, 1, 0, 1), (1, 2, -1, -1), (1, 2, 0, -1)),
    "even_poch_ratio": ((1, 2, 0, 1), (1, 2, -1, -1), (1, 2, 0, -1)),
    "odd_poch_ratio": ((1, 2, -1, -1),),
}
C_FORMS = tuple(_C_FORM_RATIOS)


class VerificationReport(NamedTuple):
    """Outcome of one coefficientwise identity check over exponents 0..order."""

    name: str
    order: int
    passed: bool
    elapsed: float
    exponent: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    context: str = ""

    def summary(self) -> str:
        if self.passed:
            return f"{self.name} order={self.order} PASS"
        where = f" [{self.context}]" if self.context else ""
        return (
            f"{self.name} order={self.order} FAIL at q^{self.exponent}: "
            f"{self.lhs} != {self.rhs}{where}"
        )


# Each class, C form, chain stage, Euler base and inner m-sum is held in the
# kernel's one store, partitions._held, which serves a lower order as a
# prefix.  gf(C) is the form sum_over_largest, so the two names share one
# entry.  Rebinding a public name (a tracer, a seeded fault) wraps that name
# alone, so every call to it is still seen; but a composite cached earlier,
# such as the final stage's gf(D), keeps its value.
def _cached(key: object, order: int, build: Callable[[int], Sequence[int]]) -> TruncatedSeries:
    """The series held under key, at order; build(order) runs only above the held order."""
    return TruncatedSeries(_held_prefix(key, order, build), order)


def _c_form(form: str, order: int) -> TruncatedSeries:
    return _cached(form, order, lambda n: _sum_by_ratio(n, 2, _C_FORM_RATIOS[form]))


def _gf_d(order: int) -> list[int]:
    # T_0 = (-q;q)_inf; T_m / T_(m-1) = q^2 / (1 + q^m)
    return _mul_poch_inf(_sum_by_ratio(order, 2, ((-1, 1, 0, -1),)), -1, 1, 1)


def gf_class(cls: PartitionClass, order: int) -> TruncatedSeries:
    """Generating function of a class: coefficient of q^n counts weight n.

    A is the product of (1+q^j); B is the reciprocal of the odd-exponent
    product; C is the sum over its largest part 2n of
    (-q;q)_n q^(2n) / (q^(n+1);q)_n, plus 1 for the empty-weight convention;
    D is the sum over the doubled smallest part m of q^(2m) (-q^(m+1);q)_inf.
    """
    if cls is PartitionClass.A:
        return _cached(cls, order, lambda n: _mul_poch_inf(_unit(n), -1, 1, 1))
    if cls is PartitionClass.B:
        return _cached(cls, order, lambda n: _div_poch_inf(_unit(n), +1, 1, 2))
    if cls is PartitionClass.C:
        return _c_form("sum_over_largest", order)
    if cls is PartitionClass.D:
        return _cached(cls, order, _gf_d)
    raise TypeError(f"not a partition class: {cls!r}")


def gf_c_variant(form: str, order: int) -> TruncatedSeries:
    """One of the three equivalent sum forms of the class-C generating function.

    Each summand is indexed by half the largest part; the three forms differ
    only in how the finite products are arranged.  All include the constant
    1, the summand at index 0.
    """
    if form not in C_FORMS:
        raise ValueError(f"unknown C form: {form!r}")
    return _c_form(form, order)


def _inner_m_sum(order: int, gap: int) -> list[int]:
    # sum_m q^(gap*m) / (q^2;q^2)_m for an even gap 2h: it is F_h(q^2), where
    # F_h(x) = sum_m x^(hm) / (x;x)_m and T_m / T_(m-1) = x^h / (1-x^m).  F_h
    # is held per gap, so double_sum, split_sum and every lower order read one
    # build, half as long as the q-form, spread here into the even exponents.
    h = gap // 2
    f_h = _held_prefix(
        ("inner_m_sum", gap), order // 2, lambda n: _sum_by_ratio(n, h, ((1, 1, 0, -1),))
    )
    spread = [0] * (order + 1)
    spread[::2] = f_h
    return spread


def _stage_factored(order: int) -> list[int]:
    # 2 * (q^2;q^2)_inf * sum_n q^(2n) / ( (q;q)_{2n} (q^(2n+2);q^2)_inf ): as
    # (q^(2n+2);q^2)_inf = (q^2;q^2)_inf / (q^2;q^2)_n, the sum is the cached
    # form even_poch_ratio divided by (q^2;q^2)_inf.  The divide and the
    # multiply by (q^2;q^2)_inf are both kept, as the stage displays them.
    acc = list(_c_form("even_poch_ratio", order).coeffs)
    return [2 * x for x in _mul_pentagonal(_div_pentagonal(acc, 2), 2)]


def _stage_double_sum(order: int) -> list[int]:
    # 2 * (q^2;q^2)_inf * sum_{n,m} q^(2n+2nm+2m) / ( (q;q)_{2n} (q^2;q^2)_m ),
    # grouped by n as sum_n q^(2n) I_n / (q;q)_{2n} with the inner m-sum
    # I_n = sum_m q^(m(2n+2)) / (q^2;q^2)_m as the addend of summand n, and
    # T_n / T_(n-1) = q^2 / ((1-q^(2n-1))(1-q^(2n))).
    ratio = ((1, 2, -1, -1), (1, 2, 0, -1))
    h = _sum_by_ratio(order, 2, ratio, term=lambda n, mo: _inner_m_sum(mo, 2 * n + 2))
    return [2 * x for x in _mul_pentagonal(h, 2)]


def _stage_split_sum(order: int) -> list[int]:
    # (q^2;q^2)_inf * sum_{n,m} (1 + (-1)^n) q^(n+nm+2m) / ( (q;q)_n (q^2;q^2)_m ):
    # the doubled halving trick; the weight 1 + (-1)^n is 2 for even n and 0
    # for odd n, so only even n contribute, and the 2 is applied once at the end.
    # Grouped by n with J_n = sum_m q^(m(n+2)) / (q^2;q^2)_m: the addend of
    # summand n is [n even] J_n, and T_n / T_(n-1) = q / (1-q^n).
    def addend(n: int, mo: int) -> Sequence[int]:
        return () if n % 2 else _inner_m_sum(mo, n + 2)

    h = _sum_by_ratio(order, 1, ((1, 1, 0, -1),), term=addend)
    return [2 * x for x in _mul_pentagonal(h, 2)]


def _stage_bracket_reciprocals(order: int) -> list[int]:
    # (q^2;q^2)_inf * sum_m q^(2m)/(q^2;q^2)_m *
    #   [ 1/(q^(m+1);q)_inf + 1/(-q^(m+1);q)_inf ],
    # one sum per bracket half: for s = +1 and -1, 1/(s*q^(m+1);q)_inf is
    # (s*q;q)_m / (s*q;q)_inf, so T_m / T_(m-1) = q^2 (1-s*q^m) / (1-q^(2m)),
    # and each folded half is divided once by (s*q;q)_inf.  The + half divides
    # by (q;q)_inf sparsely; the - half divides by (-q;q)_inf factor by
    # factor, since writing it as (q;q)_inf / (q^2;q^2)_inf is the first step
    # of Euler's own proof of A = B.
    plus = _div_pentagonal(_sum_by_ratio(order, 2, ((1, 1, 0, 1), (1, 2, 0, -1))), 1)
    minus = _div_poch_inf(_sum_by_ratio(order, 2, ((-1, 1, 0, 1), (1, 2, 0, -1))), -1, 1, 1)
    return _mul_pentagonal(_add_into(plus, minus), 2)


def _stage_final(order: int) -> list[int]:
    # sum_m q^(2m) (-q^(m+1);q)_inf + (1 - q), i.e. gf_D + 1 - q
    return _add_into(list(gf_class(PartitionClass.D, order).coeffs), (1, -1))


_CHAIN_STAGE_BUILDERS = {
    "factored": _stage_factored,
    "double_sum": _stage_double_sum,
    "split_sum": _stage_split_sum,
    "bracket_reciprocals": _stage_bracket_reciprocals,
    "final": _stage_final,
}
CHAIN_STAGES = tuple(_CHAIN_STAGE_BUILDERS)


def gf_c_chain_stage(stage: str, order: int) -> TruncatedSeries:
    """One stage of the derivation chain connecting class C to class D.

    Every stage is returned DOUBLED (twice the value it displays), which
    keeps all coefficients integral; each stage equals 2*gf_class(C, order),
    and the last equals gf_class(D, order) + 1 - q.
    """
    if stage not in CHAIN_STAGES:
        raise ValueError(f"unknown chain stage: {stage!r}")
    return _cached(stage, order, _CHAIN_STAGE_BUILDERS[stage])


def _euler_lhs(c: int, sign: int, order: int) -> list[int]:
    # 1/(t;q)_inf at t = sign*q^c: the held 1/(sign*q;q)_inf times the factors
    # (1 - sign*q^e) for e in 1..c-1, of which those past q^order change
    # nothing.  The caller gets a list of its own.
    base = _held_prefix(("euler_lhs", sign), order, lambda n: _div_poch_inf(_unit(n), sign, 1, 1))
    lhs = list(base)
    for e in range(1, min(c, order + 1)):
        _mul_factor(lhs, sign, e)
    return lhs


def _euler_rhs(c: int, sign: int, order: int) -> list[int]:
    # sum_m t^m / (q;q)_m at t = sign*q^c;  T_m / T_(m-1) = q^c / (1-q^m),
    # and summand m is scaled by sign^m
    return _sum_by_ratio(order, c, ((1, 1, 0, -1),), scale=sign)


# A check is (context, first exponent, lhs, rhs): lhs[i] and rhs[i] are the
# coefficients of q^(first + i).  Checks are yielded lazily: a side is built only
# once every earlier check has passed, by the builder its module name holds then.
Check = tuple[str, int, Sequence[int], Sequence[int]]


def _first_failure(name: str, order: int, checks: Iterable[Check]) -> VerificationReport:
    """The first mismatch of the first failing check, or a pass."""
    if order < 0:
        raise ValueError("order must be non-negative")
    t0 = perf_counter()
    for context, first, lhs, rhs in checks:
        # a side that runs short fails at its first missing exponent
        for n, (x, y) in enumerate(zip_longest(lhs, rhs), first):
            if x != y:
                return VerificationReport(name, order, False, perf_counter() - t0, n, x, y, context)
    return VerificationReport(name, order, True, perf_counter() - t0)


def _euler_checks(c: int, order: int) -> Iterator[Check]:
    for context, sign in (("t=q^c", +1), ("t=-q^c", -1)):
        yield context, 0, _euler_lhs(c, sign, order), _euler_rhs(c, sign, order)


def euler_expansion_check(c: int, order: int) -> VerificationReport:
    """Check 1/(t;q)_inf = sum_m t^m/(q;q)_m at t = q^c and t = -q^c.

    The left side is a reciprocal of a product, the right side a term-by-term
    sum; the two routes are computed independently and compared exactly.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    return _first_failure(f"euler_expansion_c{c}", order, _euler_checks(c, order))


def _euler_ab_checks(order: int) -> Iterator[Check]:
    a = gf_class(PartitionClass.A, order)
    b = gf_class(PartitionClass.B, order)
    yield "gf(A) vs gf(B)", 0, a.coeffs, b.coeffs


def _shift_bc_checks(order: int) -> Iterator[Check]:
    b = gf_class(PartitionClass.B, order).coeffs
    c = gf_class(PartitionClass.C, order).coeffs
    yield "coeff(gf(C), n+1) vs coeff(gf(B), n)", 2, c[2:], b[1:order]


def _chain_c_checks(order: int) -> Iterator[Check]:
    base = gf_class(PartitionClass.C, order)
    for form in C_FORMS:
        yield f"form={form}", 0, gf_c_variant(form, order).coeffs, base.coeffs
    doubled = [2 * x for x in base.coeffs]
    for stage in CHAIN_STAGES:
        yield f"stage={stage}", 0, gf_c_chain_stage(stage, order).coeffs, doubled


def _half_d_checks(order: int) -> Iterator[Check]:
    lhs = [2 * x for x in gf_class(PartitionClass.C, order).coeffs]
    yield "2*gf(C) vs gf(D) + 1 - q", 0, lhs, gf_c_chain_stage("final", order).coeffs


def _thm_all_checks(order: int) -> Iterator[Check]:
    # Reported at n >= 1, the index of A(n) and B(n); all three comparisons
    # at n come before those at n + 1.
    a, b, c, d = (gf_class(cls, order).coeffs for cls in PartitionClass)
    for n in range(1, order):
        yield "A(n) vs B(n)", n, (a[n],), (b[n],)
        yield "B(n) vs C(n+1)", n, (b[n],), (c[n + 1],)
        yield "2*A(n) vs D(n+1)", n, (2 * a[n],), (d[n + 1],)


_IDENTITY_CHECKS = {
    "euler_AB": _euler_ab_checks,
    "shift_BC": _shift_bc_checks,
    "chain_C": _chain_c_checks,
    "half_D": _half_d_checks,
    "thm_all": _thm_all_checks,
}
IDENTITY_NAMES = tuple(_IDENTITY_CHECKS)


def verify_identity(name: str, order: int) -> VerificationReport:
    """Run one named identity check coefficientwise to the given order."""
    if name not in IDENTITY_NAMES:
        raise ValueError(f"unknown identity: {name!r}")
    return _first_failure(name, order, _IDENTITY_CHECKS[name](order))
