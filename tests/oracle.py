"""Independent reference routes used by the tests.

The oracle imports from the package only the labels it is asked about:
PartitionClass, the names C_FORMS and CHAIN_STAGES, and the Ratio type.  It
keeps its own copies of the generic series ring and of the in-place factor
kernel, so no reference runs the package code it checks.

The brute-force part shares no code with the package: partitions are
generated by a different recursion and the class predicates are re-derived
from the definitions, so agreement with eulerlab is a two-route check.

The slow-listing part keeps the package's original recursive class
generators.  The package's generators must list the same tuples, in any
order, and enumerate_class these tuples sorted lex decreasing.

The slow-counting part keeps the package's original O(n^3) class-C dynamic
program, against which the O(n^2) table update is checked count by count.

The ring part is the reference generic TruncatedSeries ring (+, * and
reciprocal) and Pochhammer product, written as plain loops; what is left of
the ring in eulerlab.series runs on the package kernel and is checked
against it.  The kernel part is a copy of the in-place factor passes and the
shifted add of eulerlab.partitions, written as the loops their docstrings
state.

The slow-series part keeps the original O(N^3) series builders, which rebuild
every summand from scratch as a product, a reciprocal or a series product in
the ring part, not with the in-place term-ratio kernel that the package
builders use, so the kernel is checked against them.  Each one builds a key
once, at the highest order asked for so far, and serves lower orders as
prefixes: a coefficient of a truncated series does not depend on where the
series is cut, and a test that asks for its highest order first builds the
cubic reference only there.

The front-to-back part keeps the package's original term-ratio evaluator,
which adds every summand into a full-length output, as a second reference
for the Horner fold that replaced it.  It runs the kernel part, not the
package's kernel.

The q-form part keeps the package's original inner m-sum of the chain's
double sums, folded over every exponent of q, against which the held inner
sums, built in x = q^2, are checked once spread back to q.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Iterator, Sequence

from eulerlab.partitions import PartitionClass
from eulerlab.series import C_FORMS, CHAIN_STAGES, Ratio


def all_partitions(n: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Every partition of n as a non-increasing tuple (ascending recursion)."""
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for largest in range(min(cap, n), 0, -1):
        for rest in all_partitions(n - largest, largest):
            yield (largest,) + rest


def in_class_a(parts: tuple[int, ...]) -> bool:
    return len(set(parts)) == len(parts)


def in_class_b(parts: tuple[int, ...]) -> bool:
    return all(p % 2 == 1 for p in parts)


def in_class_c(parts: tuple[int, ...]) -> bool:
    if not parts:
        return False
    if max(parts) % 2 == 1:
        return False
    half = max(parts) // 2
    low = [p for p in parts if p <= half]
    return len(low) == len(set(low))


def in_class_d(parts: tuple[int, ...]) -> bool:
    # Two leading zeros allowed: the smallest entry occurs exactly twice and
    # nothing else repeats.  On the positive parts that means: at most one
    # part repeats, it must be the minimum, and at most twice.
    if len(parts) <= 1:
        return True
    counts = Counter(parts)
    smallest = min(parts)
    if counts[smallest] > 2:
        return False
    return all(c == 1 for v, c in counts.items() if v != smallest)


PREDICATES = {"A": in_class_a, "B": in_class_b, "C": in_class_c, "D": in_class_d}


def brute_members(n: int, label: str) -> list[tuple[int, ...]]:
    pred = PREDICATES[label]
    return [p for p in all_partitions(n) if pred(p)]


def brute_count(n: int, label: str) -> int:
    return len(brute_members(n, label))


def split_to_odd(parts: Sequence[int]) -> tuple[int, ...]:
    """Glaisher's split by repeated halving: an even part becomes two halves."""
    pending = list(parts)
    out = []
    while pending:
        part = pending.pop()
        if part % 2:
            out.append(part)
        else:
            pending += [part // 2, part // 2]
    return tuple(sorted(out, reverse=True))


def merge_to_distinct(parts: Sequence[int]) -> tuple[int, ...]:
    """Glaisher's merge by carrying: two equal parts become one of twice the
    size, smallest value first, until no value repeats."""
    counts = Counter(parts)
    out = []
    while counts:
        value = min(counts)
        pairs, single = divmod(counts.pop(value), 2)
        if pairs:
            counts[2 * value] += pairs
        if single:
            out.append(value)
    return tuple(sorted(out, reverse=True))


# ----------------------------------------------------------- slow listing
# The package's original recursive class generators, kept verbatim: each
# listed tuple climbs a yield-from chain as deep as it has parts.  They list
# lex decreasing within each chained piece; the ascending-composition loop of
# eulerlab.partitions must list the same tuples, in its own order.


def slow_gen_distinct(n: int, floor: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of n into distinct parts, each >= floor, lex decreasing."""
    buf: list[int] = []

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(buf)
            return
        below_floor = (floor - 1) * floor // 2
        for first in range(min(cap, remaining), floor - 1, -1):
            if first * (first + 1) // 2 - below_floor < remaining:
                break
            buf.append(first)
            yield from rec(remaining - first, first - 1)
            buf.pop()

    return rec(n, n)


def slow_gen_odd(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into odd parts, lex decreasing."""
    buf: list[int] = []

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(buf)
            return
        first = min(cap, remaining)
        if first % 2 == 0:
            first -= 1
        for part in range(first, 0, -2):
            buf.append(part)
            yield from rec(remaining - part, part)
            buf.pop()

    return rec(n, n)


def slow_gen_class_c(n: int) -> Iterator[tuple[int, ...]]:
    """Class-C partitions of n: largest part 2N even, parts <= N distinct."""
    buf: list[int] = []

    def rec(remaining: int, cap: int, half: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(buf)
            return
        for first in range(min(cap, remaining), 0, -1):
            if first > half:
                buf.append(first)
                yield from rec(remaining - first, first, half)
                buf.pop()
            else:
                if first * (first + 1) // 2 < remaining:
                    break
                buf.append(first)
                yield from rec(remaining - first, first - 1, half)
                buf.pop()

    def outer() -> Iterator[tuple[int, ...]]:
        for largest in range(2 * (n // 2), 1, -2):
            buf.append(largest)
            yield from rec(n - largest, largest, largest // 2)
            buf.pop()

    return outer()


def slow_gen_class_d(n: int) -> Iterator[tuple[int, ...]]:
    """Class-D partitions of n: distinct parts, or the smallest part doubled."""
    if n == 0:
        yield ()
        return
    yield from slow_gen_distinct(n)
    for s in range(1, n // 2 + 1):
        for rest in slow_gen_distinct(n - 2 * s, floor=s + 1):
            yield rest + (s, s)


# ---------------------------------------------------------- slow counting
# The package's original O(n^3) class-C dynamic program, kept verbatim: it
# builds a fresh knapsack table for every largest part.  The O(n^2) table
# update of eulerlab.partitions._dp_counts must give exactly these counts.


def slow_dp_counts_c(n_max: int) -> list[int]:
    """Class-C counts for n = 0..n_max, one knapsack per largest part."""
    # Condition on the largest part 2N: one copy of 2N is placed, parts in
    # (N, 2N] repeat freely, parts <= N are used at most once.  C(0)=1 is
    # the counting convention for the empty partition.
    out = [0] * (n_max + 1)
    out[0] = 1
    for half in range(1, n_max // 2 + 1):
        m_max = n_max - 2 * half
        dp = [0] * (m_max + 1)
        dp[0] = 1
        for k in range(half + 1, 2 * half + 1):
            for j in range(k, m_max + 1):
                dp[j] += dp[j - k]
        for k in range(1, half + 1):
            for j in range(m_max, k - 1, -1):
                dp[j] += dp[j - k]
        for m in range(m_max + 1):
            out[m + 2 * half] += dp[m]
    return out


# ------------------------------------------------------------------- ring
# The reference generic ring: exact integer series known for exponents
# 0..order, with +, * and reciprocal truncated to the smaller order, and the
# product of factors (1 - sign*q^(offset + step*i)).


class TruncatedSeries:
    """Integer power series known exactly for exponents 0..order."""

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        if order is None:
            order = len(coeffs) - 1
        padded = list(coeffs[: order + 1])
        padded.extend([0] * (order + 1 - len(padded)))
        self.order = order
        self.coeffs = tuple(padded)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(order + 1)], order
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries([other * c for c in self.coeffs], self.order)
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
        """Inverse modulo q^(order+1); the constant term must be +1 or -1."""
        a = self.coeffs
        c0 = a[0]
        if c0 not in (1, -1):
            raise ValueError(f"constant term {c0} is not +1 or -1")
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


def _poch(sign: int, offset: int, step: int, terms: int | None, order: int) -> TruncatedSeries:
    """Product of (1 - sign*q^(offset + step*i)) for i < terms (all i if None)."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    i = 0
    while terms is None or i < terms:
        e = offset + step * i
        if e > order:
            break
        for j in range(order, e - 1, -1):
            c = coeffs[j - e]
            if c:
                coeffs[j] -= sign * c
        i += 1
    return TruncatedSeries(coeffs, order)


# ----------------------------------------------------------------- kernel
# A copy of the in-place factor passes and the shifted add of
# eulerlab.partitions, as plain loops.


def mul_factor(c: list[int], sign: int, e: int) -> None:
    """c *= (1 - sign*q^e) in place, truncated at len(c); e >= 1."""
    for j in range(len(c) - 1, e - 1, -1):
        c[j] -= sign * c[j - e]


def div_factor(c: list[int], sign: int, e: int) -> None:
    """c /= (1 - sign*q^e) in place, truncated at len(c); e >= 1."""
    for j in range(e, len(c)):
        c[j] += sign * c[j - e]


def add_into(target: list[int], coeffs: Sequence[int], at: int) -> None:
    """target += q^at * coeffs in place, truncated at len(target); at >= 0."""
    for j in range(at, min(len(target), at + len(coeffs))):
        target[j] += coeffs[j - at]


# ------------------------------------------------------------ slow series

_Series = TruncatedSeries | list[int]


def _served_as_prefixes(build: Callable[..., _Series]) -> Callable[..., _Series]:
    """Build each key (every argument but the last, the order) only when its
    order is above the highest one built, and serve lower orders as prefixes."""
    built: dict[tuple, tuple[int, _Series]] = {}

    @functools.wraps(build)
    def serve(*args):
        *key, order = args
        key = tuple(key)
        if key not in built or built[key][0] < order:
            built[key] = (order, build(*args))
        series = built[key][1]
        if isinstance(series, TruncatedSeries):
            return TruncatedSeries(series.coeffs, order)
        return series[: order + 1]

    return serve


@_served_as_prefixes
def slow_gf_class(cls: PartitionClass, order: int) -> TruncatedSeries:
    if cls is PartitionClass.A:
        return _poch(-1, 1, 1, None, order)
    if cls is PartitionClass.B:
        return _poch(+1, 1, 2, None, order).reciprocal()
    if cls is PartitionClass.C:
        return slow_c_variant("sum_over_largest", order)
    if cls is PartitionClass.D:
        out = [0] * (order + 1)
        m = 0
        while 2 * m <= order:
            tail = _poch(-1, m + 1, 1, None, order - 2 * m)
            add_into(out, tail.coeffs, 2 * m)
            m += 1
        return TruncatedSeries(out, order)
    raise TypeError(f"not a partition class: {cls!r}")


@_served_as_prefixes
def slow_c_variant(form: str, order: int) -> TruncatedSeries:
    if form not in C_FORMS:
        raise ValueError(f"unknown C form: {form!r}")
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while 2 * n <= order:
        m = order - 2 * n
        if form == "sum_over_largest":
            num = _poch(-1, 1, 1, n, m)
            term = num * _poch(+1, n + 1, 1, n, m).reciprocal()
        elif form == "even_poch_ratio":
            num = _poch(+1, 2, 2, n, m)
            term = num * _poch(+1, 1, 1, 2 * n, m).reciprocal()
        else:  # odd_poch_ratio
            term = _poch(+1, 1, 2, n, m).reciprocal()
        add_into(out, term.coeffs, 2 * n)
        n += 1
    return TruncatedSeries(out, order)


@_served_as_prefixes
def slow_chain_stage(stage: str, order: int) -> TruncatedSeries:
    if stage not in CHAIN_STAGES:
        raise ValueError(f"unknown chain stage: {stage!r}")

    if stage == "factored":
        # 2 * (q^2;q^2)_inf * sum_n q^(2n) / ( (q;q)_{2n} (q^(2n+2);q^2)_inf )
        acc = [0] * (order + 1)
        n = 0
        while 2 * n <= order:
            m = order - 2 * n
            term = _poch(+1, 1, 1, 2 * n, m).reciprocal() * _poch(
                +1, 2 * n + 2, 2, None, m
            ).reciprocal()
            add_into(acc, term.coeffs, 2 * n)
            n += 1
        return TruncatedSeries(acc, order) * _poch(+1, 2, 2, None, order) * 2

    if stage == "double_sum":
        # 2 * (q^2;q^2)_inf * sum_{n,m} q^(2n+2nm+2m) / ( (q;q)_{2n} (q^2;q^2)_m ),
        # grouped by n; summands vanish once 2n + m(2n+2) passes the order.
        acc = [0] * (order + 1)
        n = 0
        while 2 * n <= order:
            mo = order - 2 * n
            inner = [0] * (mo + 1)
            m = 0
            while m * (2 * n + 2) <= mo:
                term = _poch(+1, 2, 2, m, mo - m * (2 * n + 2)).reciprocal()
                add_into(inner, term.coeffs, m * (2 * n + 2))
                m += 1
            grouped = TruncatedSeries(inner, mo) * _poch(+1, 1, 1, 2 * n, mo).reciprocal()
            add_into(acc, grouped.coeffs, 2 * n)
            n += 1
        return TruncatedSeries(acc, order) * _poch(+1, 2, 2, None, order) * 2

    if stage == "split_sum":
        # (q^2;q^2)_inf * sum_{n,m} (1 + (-1)^n) q^(n+nm+2m) / ( (q;q)_n (q^2;q^2)_m ):
        # the doubled halving trick; odd n carry weight 0 and contribute nothing.
        acc = [0] * (order + 1)
        n = 0
        while n <= order:
            weight = 1 + (-1) ** n
            if weight:
                mo = order - n
                inner = [0] * (mo + 1)
                m = 0
                while m * (n + 2) <= mo:
                    term = _poch(+1, 2, 2, m, mo - m * (n + 2)).reciprocal()
                    add_into(inner, term.coeffs, m * (n + 2))
                    m += 1
                grouped = TruncatedSeries(inner, mo) * _poch(+1, 1, 1, n, mo).reciprocal()
                add_into(acc, [weight * c for c in grouped.coeffs], n)
            n += 1
        return TruncatedSeries(acc, order) * _poch(+1, 2, 2, None, order)

    if stage == "bracket_reciprocals":
        # (q^2;q^2)_inf * sum_m q^(2m)/(q^2;q^2)_m *
        #   [ 1/(q^(m+1);q)_inf + 1/(-q^(m+1);q)_inf ]
        acc = [0] * (order + 1)
        m = 0
        while 2 * m <= order:
            mo = order - 2 * m
            bracket = (
                _poch(+1, m + 1, 1, None, mo).reciprocal()
                + _poch(-1, m + 1, 1, None, mo).reciprocal()
            )
            term = bracket * _poch(+1, 2, 2, m, mo).reciprocal()
            add_into(acc, term.coeffs, 2 * m)
            m += 1
        return TruncatedSeries(acc, order) * _poch(+1, 2, 2, None, order)

    # final: sum_m q^(2m) (-q^(m+1);q)_inf + (1 - q), i.e. gf_D + 1 - q
    d = slow_gf_class(PartitionClass.D, order)
    out = list(d.coeffs)
    out[0] += 1
    if order >= 1:
        out[1] -= 1
    return TruncatedSeries(out, order)


@_served_as_prefixes
def slow_euler_lhs(c: int, sign: int, order: int) -> list[int]:
    """1/(t;q)_inf at t = sign*q^c, coefficients 0..order."""
    return list(_poch(sign, c, 1, None, order).reciprocal().coeffs)


@_served_as_prefixes
def slow_euler_rhs(c: int, sign: int, order: int) -> list[int]:
    """sum_m t^m/(q;q)_m at t = sign*q^c, coefficients 0..order."""
    rhs = [0] * (order + 1)
    m = 0
    while c * m <= order:
        inv = _poch(+1, 1, 1, m, order - c * m).reciprocal()
        if sign == -1 and m % 2 == 1:
            add_into(rhs, [-x for x in inv.coeffs], c * m)
        else:
            add_into(rhs, inv.coeffs, c * m)
        m += 1
    return rhs


# ---------------------------------------------------- front-to-back sum
# The package's original _sum_by_ratio, with an optional addend U_n that is
# multiplied in by the ring: T_0 is a given list, each T_n is derived from
# T_(n-1) in place, and every summand is added into a full-length output,
# front to back.  The Horner fold of eulerlab.series must give exactly these
# sums once T_0 is multiplied in.


def slow_sum_by_ratio(
    order: int,
    first: list[int],
    gap: int,
    ratio: Ratio,
    scale: int = 1,
    term: Callable[[int, int], Sequence[int]] | None = None,
) -> list[int]:
    """Coefficients 0..order of sum_{n >= 0} scale^n q^(gap*n) T_n U_n.

    T_0 is `first`, which is consumed; T_n is T_(n-1) times the factors of
    `ratio` at n.  U_n is 1, or term(n, mo) to relative order mo = order - gap*n.
    """
    factors = [(mul_factor if p == 1 else div_factor, sign, a, b) for sign, a, b, p in ratio]
    out = [0] * (order + 1)
    t = first
    n = 0
    while gap * n <= order:
        mo = order - gap * n
        del t[mo + 1 :]
        if n:
            for apply, sign, a, b in factors:
                apply(t, sign, a * n + b)
        summand = t
        if term is not None:
            summand = (TruncatedSeries(t, mo) * TruncatedSeries(term(n, mo), mo)).coeffs
        add_into(out, [scale**n * x for x in summand], gap * n)
        n += 1
    return out


# ------------------------------------------------------- q-form inner sum
# The package's original inner m-sum of the chain's double sums, folded over
# every exponent of q, the odd ones that stay zero included.  The package now
# builds it in x = q^2 and holds it per gap; spread back to q it must give
# exactly this fold.  It runs the kernel part, not the package's kernel.


def inner_m_sum(order: int, gap: int) -> list[int]:
    """Coefficients 0..order of sum_m q^(gap*m) / (q^2;q^2)_m, by Horner's
    rule from the top m down: H_m = 1 + q^gap * H_(m+1) / (1 - q^(2m+2))."""
    h: list[int] = []
    for m in range(order // gap, -1, -1):
        div_factor(h, 1, 2 * (m + 1))
        h[:0] = [0] * min(gap, order - gap * m + 1)
        h[0] += 1
    return h
