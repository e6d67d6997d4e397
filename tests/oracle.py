"""Independent reference routes used by the tests.

The brute-force part shares no code with the package: partitions are
generated by a different recursion and the class predicates are re-derived
from the definitions, so agreement with eulerlab is a two-route check.

The slow-listing part keeps the package's original recursive class
generators, against which the flat generators are checked tuple by tuple.

The slow-counting part keeps the package's original O(n^3) class-C dynamic
program, against which the O(n^2) table update is checked count by count.

The slow-series part keeps the original O(N^3) series builders, which rebuild
every summand from scratch as a product, a reciprocal or a series product.
They use only the generic TruncatedSeries ring and pochhammer of
eulerlab.series (tested on their own), not the in-place term-ratio kernel
that the package builders use, so the kernel is checked against them.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from eulerlab.partitions import PartitionClass
from eulerlab.series import C_FORMS, CHAIN_STAGES, PochSpec, TruncatedSeries, pochhammer


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
# listed tuple climbs a yield-from chain as deep as it has parts.  The flat
# loops of eulerlab.partitions must emit exactly these tuples in this order.


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


# ------------------------------------------------------------ slow series


def _poch(sign: int, offset: int, step: int, terms: int | None, order: int) -> TruncatedSeries:
    return pochhammer(PochSpec(sign, offset, step, terms), order)


def _add_shifted(target: list[int], coeffs: Sequence[int], shift: int) -> None:
    limit = len(target)
    for j, c in enumerate(coeffs):
        k = j + shift
        if k >= limit:
            break
        if c:
            target[k] += c


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
            _add_shifted(out, tail.coeffs, 2 * m)
            m += 1
        return TruncatedSeries(out, order)
    raise TypeError(f"not a partition class: {cls!r}")


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
        _add_shifted(out, term.coeffs, 2 * n)
        n += 1
    return TruncatedSeries(out, order)


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
            _add_shifted(acc, term.coeffs, 2 * n)
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
                _add_shifted(inner, term.coeffs, m * (2 * n + 2))
                m += 1
            grouped = TruncatedSeries(inner, mo) * _poch(+1, 1, 1, 2 * n, mo).reciprocal()
            _add_shifted(acc, grouped.coeffs, 2 * n)
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
                    _add_shifted(inner, term.coeffs, m * (n + 2))
                    m += 1
                grouped = TruncatedSeries(inner, mo) * _poch(+1, 1, 1, n, mo).reciprocal()
                _add_shifted(acc, [weight * c for c in grouped.coeffs], n)
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
            _add_shifted(acc, term.coeffs, 2 * m)
            m += 1
        return TruncatedSeries(acc, order) * _poch(+1, 2, 2, None, order)

    # final: sum_m q^(2m) (-q^(m+1);q)_inf + (1 - q), i.e. gf_D + 1 - q
    d = slow_gf_class(PartitionClass.D, order)
    out = list(d.coeffs)
    out[0] += 1
    if order >= 1:
        out[1] -= 1
    return TruncatedSeries(out, order)


def slow_euler_lhs(c: int, sign: int, order: int) -> list[int]:
    """1/(t;q)_inf at t = sign*q^c, coefficients 0..order."""
    return list(_poch(sign, c, 1, None, order).reciprocal().coeffs)


def slow_euler_rhs(c: int, sign: int, order: int) -> list[int]:
    """sum_m t^m/(q;q)_m at t = sign*q^c, coefficients 0..order."""
    rhs = [0] * (order + 1)
    m = 0
    while c * m <= order:
        inv = _poch(+1, 1, 1, m, order - c * m).reciprocal()
        if sign == -1 and m % 2 == 1:
            _add_shifted(rhs, [-x for x in inv.coeffs], c * m)
        else:
            _add_shifted(rhs, inv.coeffs, c * m)
        m += 1
    return rhs
