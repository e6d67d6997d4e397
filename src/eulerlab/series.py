"""Exact truncated power series over the integers, and the class generating
functions built from q-Pochhammer products.

Everything is computed modulo q^(order+1) with arbitrary-precision integer
coefficients; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Iterable, Iterator, Sequence

from .partitions import PartitionClass


class InvertibilityError(ValueError):
    """Constant term is not a unit over the integers."""


class TruncatedSeries:
    """Integer power series known exactly for exponents 0..order.

    Instances are immutable (assigning or deleting an attribute raises
    AttributeError), so one built series can be shared by every caller.
    Only the test oracle and the benchmark tracer use +, * and reciprocal,
    which return new series truncated to the smaller operand order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        if order is None:
            if not coeffs:
                raise ValueError("need at least the constant coefficient")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be non-negative")
        padded = list(coeffs[: order + 1])
        padded.extend([0] * (order + 1 - len(padded)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(padded))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TruncatedSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"TruncatedSeries is immutable; cannot delete {name!r}")

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

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(order + 1)], order
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries([other * c for c in self.coeffs], self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (order + 1)
        for i in range(order + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(order + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
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


@dataclass(frozen=True)
class PochSpec:
    """Product of factors (1 - sign*q^(offset + step*i)) for i = 0, 1, ...

    terms=None means the infinite product, which truncates itself once the
    exponent passes the series order; sign=-1 gives (1 + q^e) factors.
    """

    sign: int
    offset: int
    step: int = 1
    terms: int | None = None

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.offset < 1:
            raise ValueError("offset must be >= 1")
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if self.terms is not None and self.terms < 0:
            raise ValueError("terms must be non-negative or None")


def pochhammer(spec: PochSpec, order: int) -> TruncatedSeries:
    """Evaluate the (possibly infinite) product of a PochSpec modulo q^(order+1)."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    sign = spec.sign
    i = 0
    while spec.terms is None or i < spec.terms:
        e = spec.offset + spec.step * i
        if e > order:
            break
        for j in range(order, e - 1, -1):
            c = coeffs[j - e]
            if c:
                coeffs[j] -= sign * c
        i += 1
    return TruncatedSeries(coeffs, order)


# The series builders below are sums of q-Pochhammer quotients.  Consecutive
# summands differ by a few factors (1 - s*q^e), and multiplying or dividing a
# coefficient list by one such factor is an O(N) in-place recurrence, so each
# summand is derived from the previous one and a whole build costs O(N^2).
# The sign convention is PochSpec's: s = -1 gives the factor (1 + q^e).
#
# A term ratio T_n / T_(n-1), apart from the q^gap of the sum, is written as
# data: a tuple of factors (sign, a, b, power), each meaning
# (1 - sign*q^(a*n + b))^power with power +1 or -1.
Ratio = tuple[tuple[int, int, int, int], ...]


def _mul_factor(c: list[int], sign: int, e: int) -> None:
    """c *= (1 - sign*q^e) in place, truncated at len(c); e >= 1.

    c[j] -= sign*c[j-e] for j descending, that is from the old values.
    """
    if sign == 1:
        c[e:] = [x - y for x, y in zip(c[e:], c)]
    else:
        c[e:] = [x + y for x, y in zip(c[e:], c)]


def _div_factor(c: list[int], sign: int, e: int) -> None:
    """c /= (1 - sign*q^e) in place, truncated at len(c); e >= 1.

    c[j] += sign*c[j-e] for j ascending, that is from the new values.
    """
    if sign == 1:
        for j in range(e, len(c)):
            c[j] += c[j - e]
    else:
        for j in range(e, len(c)):
            c[j] -= c[j - e]


def _mul_poch_inf(c: list[int], sign: int, offset: int, step: int) -> list[int]:
    """c times the infinite product of (1 - sign*q^(offset + step*i)), in place."""
    for e in range(offset, len(c), step):
        _mul_factor(c, sign, e)
    return c


def _div_poch_inf(c: list[int], sign: int, offset: int, step: int) -> list[int]:
    """c divided by the infinite product of (1 - sign*q^(offset + step*i)), in place."""
    for e in range(offset, len(c), step):
        _div_factor(c, sign, e)
    return c


def _unit(order: int) -> list[int]:
    return [1] + [0] * order


def _add_scaled(target: list[int], coeffs: Sequence[int], shift: int, sign: int = 1) -> None:
    """target += sign * q^shift * coeffs, truncated at len(target); sign is +1 or -1."""
    end = shift + len(coeffs)
    if sign == 1:
        target[shift:end] = [x + y for x, y in zip(target[shift:end], coeffs)]
    else:
        target[shift:end] = [x - y for x, y in zip(target[shift:end], coeffs)]


def _sum_by_ratio(
    order: int,
    first: list[int],
    gap: int,
    ratio: Ratio,
    scale: int = 1,
) -> list[int]:
    """Coefficients 0..order of sum_{n >= 0} scale^n q^(gap*n) T_n, scale +1 or -1.

    T_0 is `first`, which is consumed; T_n is T_(n-1) times the factors of
    `ratio` at n, applied in place.  T_n is carried only to relative order
    order - gap*n, so later terms are shorter.
    """
    factors = [(_mul_factor if p == 1 else _div_factor, sign, a, b) for sign, a, b, p in ratio]
    out = first[:]
    term = first
    n = 1
    while gap * n <= order:
        del term[order - gap * n + 1 :]
        for apply, sign, a, b in factors:
            apply(term, sign, a * n + b)
        _add_scaled(out, term, gap * n, scale**n)
        n += 1
    return out


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


@dataclass(frozen=True)
class VerificationReport:
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


# The public builders cache their results: one run often needs a series it
# has already built.  Rebinding a public name (a tracer, a seeded fault) wraps
# the cache, so every call is still seen; but a composite cached earlier, such
# as the final stage holding a built gf(D), keeps its value.  Five identities
# at three orders, one verification session, build 36 distinct series.
_BUILD_CACHE_SIZE = 64


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def gf_class(cls: PartitionClass, order: int) -> TruncatedSeries:
    """Generating function of a class: coefficient of q^n counts weight n.

    A is the product of (1+q^j); B is the reciprocal of the odd-exponent
    product; C is the sum over its largest part 2n of
    (-q;q)_n q^(2n) / (q^(n+1);q)_n, plus 1 for the empty-weight convention;
    D is the sum over the doubled smallest part m of q^(2m) (-q^(m+1);q)_inf.
    """
    if cls is PartitionClass.A:
        return TruncatedSeries(_mul_poch_inf(_unit(order), -1, 1, 1), order)
    if cls is PartitionClass.B:
        return TruncatedSeries(_div_poch_inf(_unit(order), +1, 1, 2), order)
    if cls is PartitionClass.C:
        ratio = _C_FORM_RATIOS["sum_over_largest"]
        return TruncatedSeries(_sum_by_ratio(order, _unit(order), 2, ratio), order)
    if cls is PartitionClass.D:
        # T_0 = (-q;q)_inf; T_m / T_(m-1) = q^2 / (1 + q^m)
        first = _mul_poch_inf(_unit(order), -1, 1, 1)
        return TruncatedSeries(_sum_by_ratio(order, first, 2, ((-1, 1, 0, -1),)), order)
    raise TypeError(f"not a partition class: {cls!r}")


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def gf_c_variant(form: str, order: int) -> TruncatedSeries:
    """One of the three equivalent sum forms of the class-C generating function.

    Each summand is indexed by half the largest part; the three forms differ
    only in how the finite products are arranged.  All include the constant
    1, the summand at index 0.
    """
    if form not in C_FORMS:
        raise ValueError(f"unknown C form: {form!r}")
    return TruncatedSeries(_sum_by_ratio(order, _unit(order), 2, _C_FORM_RATIOS[form]), order)


def _inner_m_sum(order: int, gap: int) -> list[int]:
    # sum_m q^(gap*m) / (q^2;q^2)_m;  T_m / T_(m-1) = q^gap / (1-q^(2m))
    return _sum_by_ratio(order, _unit(order), gap, ((1, 2, 0, -1),))


def _stage_factored(order: int) -> list[int]:
    # 2 * (q^2;q^2)_inf * sum_n q^(2n) / ( (q;q)_{2n} (q^(2n+2);q^2)_inf ),
    # T_0 = 1/(q^2;q^2)_inf; T_n / T_(n-1) = q^2 (1-q^(2n)) / ((1-q^(2n-1))(1-q^(2n))),
    # the (1-q^(2n)) being the factor that (q^(2n);q^2)_inf loses.
    first = _div_poch_inf(_unit(order), +1, 2, 2)
    ratio = _C_FORM_RATIOS["even_poch_ratio"]
    acc = _mul_poch_inf(_sum_by_ratio(order, first, 2, ratio), +1, 2, 2)
    return [2 * x for x in acc]


def _stage_double_sum(order: int) -> list[int]:
    # 2 * (q^2;q^2)_inf * sum_{n,m} q^(2n+2nm+2m) / ( (q;q)_{2n} (q^2;q^2)_m ),
    # grouped by n as sum_n q^(2n) I_n / (q;q)_{2n} with the inner m-sum
    # I_n = sum_m q^(m(2n+2)) / (q^2;q^2)_m, folded by Horner from the top n:
    # H_n = I_n + q^2 H_(n+1) / ((1-q^(2n+1))(1-q^(2n+2))).
    h: list[int] = []
    for n in range(order // 2, -1, -1):
        mo = order - 2 * n
        h = ([0, 0] + h)[: mo + 1]
        _div_factor(h, +1, 2 * n + 1)
        _div_factor(h, +1, 2 * n + 2)
        _add_scaled(h, _inner_m_sum(mo, 2 * n + 2), 0)
    return [2 * x for x in _mul_poch_inf(h, +1, 2, 2)]


def _stage_split_sum(order: int) -> list[int]:
    # (q^2;q^2)_inf * sum_{n,m} (1 + (-1)^n) q^(n+nm+2m) / ( (q;q)_n (q^2;q^2)_m ):
    # the doubled halving trick; the weight 1 + (-1)^n is 2 for even n and 0
    # for odd n, so only even n contribute, and the 2 is applied once at the end.
    # Grouped by n with J_n = sum_m q^(m(n+2)) / (q^2;q^2)_m and folded by
    # Horner from the top n: H_n = [n even] J_n + q H_(n+1) / (1-q^(n+1)).
    h: list[int] = []
    for n in range(order, -1, -1):
        mo = order - n
        h = ([0] + h)[: mo + 1]
        _div_factor(h, +1, n + 1)
        if n % 2 == 0:
            _add_scaled(h, _inner_m_sum(mo, n + 2), 0)
    return [2 * x for x in _mul_poch_inf(h, +1, 2, 2)]


def _stage_bracket_reciprocals(order: int) -> list[int]:
    # (q^2;q^2)_inf * sum_m q^(2m)/(q^2;q^2)_m *
    #   [ 1/(q^(m+1);q)_inf + 1/(-q^(m+1);q)_inf ],
    # one sum per bracket half: U_m = U_(m-1) (1-q^m) from U_0 = 1/(q;q)_inf
    # and V_m = V_(m-1) (1+q^m) from V_0 = 1/(-q;q)_inf, each summand also
    # taking the 1/(1-q^(2m)) of 1/(q^2;q^2)_m and the q^2 of q^(2m).
    acc = [0] * (order + 1)
    for sign in (+1, -1):
        first = _div_poch_inf(_unit(order), sign, 1, 1)
        _add_scaled(acc, _sum_by_ratio(order, first, 2, ((sign, 1, 0, 1), (1, 2, 0, -1))), 0)
    return _mul_poch_inf(acc, +1, 2, 2)


def _stage_final(order: int) -> list[int]:
    # sum_m q^(2m) (-q^(m+1);q)_inf + (1 - q), i.e. gf_D + 1 - q
    out = list(gf_class(PartitionClass.D, order).coeffs)
    _add_scaled(out, (1, -1), 0)
    return out


_CHAIN_STAGE_BUILDERS = {
    "factored": _stage_factored,
    "double_sum": _stage_double_sum,
    "split_sum": _stage_split_sum,
    "bracket_reciprocals": _stage_bracket_reciprocals,
    "final": _stage_final,
}
CHAIN_STAGES = tuple(_CHAIN_STAGE_BUILDERS)


@lru_cache(maxsize=_BUILD_CACHE_SIZE)
def gf_c_chain_stage(stage: str, order: int) -> TruncatedSeries:
    """One stage of the derivation chain connecting class C to class D.

    Every stage is returned DOUBLED (twice the value it displays), which
    keeps all coefficients integral; each stage equals 2*gf_class(C, order),
    and the last equals gf_class(D, order) + 1 - q.
    """
    if stage not in CHAIN_STAGES:
        raise ValueError(f"unknown chain stage: {stage!r}")
    return TruncatedSeries(_CHAIN_STAGE_BUILDERS[stage](order), order)


def _euler_lhs(c: int, sign: int, order: int) -> list[int]:
    # 1/(t;q)_inf at t = sign*q^c, the product running over (1 - sign*q^(c+i))
    return _div_poch_inf(_unit(order), sign, c, 1)


def _euler_rhs(c: int, sign: int, order: int) -> list[int]:
    # sum_m t^m / (q;q)_m at t = sign*q^c;  T_m / T_(m-1) = q^c / (1-q^m),
    # and summand m is scaled by sign^m
    return _sum_by_ratio(order, _unit(order), c, ((1, 1, 0, -1),), scale=sign)


# A check is (context, first exponent, lhs, rhs): lhs[i] and rhs[i] are the
# coefficients of q^(first + i).  Checks are yielded lazily: a side is built only
# once every earlier check has passed, by the builder its module name holds then.
Check = tuple[str, int, Sequence[int], Sequence[int]]


def _first_failure(name: str, order: int, checks: Iterable[Check]) -> VerificationReport:
    """The first mismatch of the first failing check, or a pass."""
    t0 = perf_counter()
    for context, first, lhs, rhs in checks:
        for n, (x, y) in enumerate(zip(lhs, rhs), first):
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
    yield "2*gf(C) vs gf(D) + 1 - q", 0, lhs, _stage_final(order)


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
