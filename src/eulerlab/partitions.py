"""Integer partitions and the four counting classes A, B, C, D.

Class A: all parts distinct.  Class B: all parts odd.  Class C: largest part
even, say 2N, and every part not exceeding N occurs at most once.  Class D:
only the smallest part may repeat, and at most twice (equivalently, in a
rendering that allows two leading zeros, the smallest entry occurs exactly
twice and everything else is distinct).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from enum import Enum
from functools import partial
from itertools import chain, repeat
from operator import and_, gt

DEFAULT_ENUMERATION_CUTOFF = 60

METHOD_ENUMERATION = "enumeration"
METHOD_DYNAMIC_PROGRAM = "dynamic-program"
METHOD_SERIES_COEFFICIENT = "series-coefficient"
COUNT_METHODS = (METHOD_ENUMERATION, METHOD_DYNAMIC_PROGRAM, METHOD_SERIES_COEFFICIENT)


class CapacityError(ValueError):
    """Requested enumeration exceeds the configured cutoff."""


class ClassMembershipError(ValueError):
    """A partition does not belong to the class an operation requires."""


class PartitionParseError(ValueError):
    """A partition string does not match the 'a+b+c' grammar."""


class _Immutable:
    """Refuses attribute assignment and deletion, so one instance can be shared."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __setstate__(self, state: tuple[None, dict[str, object]]) -> None:
        # pickle and copy restore the slots through here, not through __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Partition(_Immutable):
    """A partition in canonical form: positive parts, non-increasing."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        if type(parts) is not tuple:
            raise TypeError(f"parts must be a tuple, not {type(parts).__name__}; use normalize()")
        # One comparison per part for order, then the sign of the last part.
        prev = parts[0] if parts else 1
        for part in parts:
            if part > prev:
                raise _refusal(parts)
            prev = part
        if prev < 1:
            raise _refusal(parts)
        _set_parts(self, parts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "(empty)"


# The slot's own setter: _Immutable.__setattr__ refuses every assignment.
_set_parts = Partition.parts.__set__


def _refusal(parts: tuple[int, ...]) -> ValueError:
    """The error for parts out of canonical form; the first offending part decides it."""
    prev = None
    for part in parts:
        if part < 1:
            return ValueError(f"non-positive part {part}; use normalize() first")
        if prev is not None and part > prev:
            break
        prev = part
    return ValueError("parts must be non-increasing; use normalize() first")


class PartitionClass(Enum):
    """Labels for the four partition families related by the verified identity."""

    A = "A"
    B = "B"
    C = "C"
    D = "D"


# Each read of an enum member goes through a descriptor, so the hot paths
# read the members through these module names.
A = PartitionClass.A
B = PartitionClass.B
C = PartitionClass.C
D = PartitionClass.D


def normalize(raw_parts: Iterable[int]) -> Partition:
    """Drop zero parts and sort the rest non-increasing.

    Zeros are legal input here because the class-D rendering carries them;
    negative entries are rejected.
    """
    parts = []
    for p in raw_parts:
        if p < 0:
            raise ValueError(f"negative part: {p}")
        if p > 0:
            parts.append(p)
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def parse_partition(text: str, allow_zeros: bool = False) -> Partition:
    """Parse 'a+b+c' with optional whitespace, parts in any order.

    Each part is ASCII decimal, [0-9]+; other Unicode digits are rejected.
    Zero parts are accepted only with allow_zeros=True (the class-D form).
    """
    tokens = [t.strip() for t in text.strip().split("+")]
    if tokens == [""]:
        raise PartitionParseError("empty partition string")
    values = []
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            raise PartitionParseError(f"bad part {tok!r} in {text!r}")
        v = int(tok)
        if v == 0 and not allow_zeros:
            raise PartitionParseError("zero parts are only allowed in the class-D form")
        values.append(v)
    return normalize(values)


def is_in_class(p: Partition, cls: PartitionClass) -> bool:
    """Membership predicate for one of the four classes.

    The empty partition is in A, B, and D (class D admits the bare '0+0'
    rendering); it is not in C, where the count C(0)=1 is a convention of
    the counting layer, not of this predicate.
    """
    parts = p.parts
    if cls is A:
        return len(set(parts)) == len(parts)
    if cls is B:
        return all(map(and_, parts, repeat(1)))  # every part & 1 is 1
    if cls is C:
        if not parts:
            return False
        largest = parts[0]
        if largest % 2 == 1:
            return False
        half = largest // 2
        small = [part for part in parts if part <= half]
        return len(set(small)) == len(small)
    if cls is D:
        # parts are non-increasing, so only the last two may be equal
        return all(map(gt, parts, parts[1:-1]))
    raise TypeError(f"not a partition class: {cls!r}")


def _gen(
    n: int,
    floor: int = 1,
    head: tuple = (),
    tail: tuple = (),
    half: int | None = None,
    cap: int | None = None,
    step: int = 1,
) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts in floor..cap with p = floor (mod step).

    Parts <= half are distinct and larger parts may repeat; half and cap
    default to n, so _gen(n) lists class A.  Each tuple is head + parts + tail
    with the parts non-increasing, and (n,), if allowed, comes first; the
    rest come in no set order.  The parts are built as ascending compositions
    (Kelleher and O'Sullivan, arXiv:0909.2331): a stack holds states (least
    next part, remainder, parts chosen so far, largest first), and one inner
    loop walks the last two parts (x, r - x), so most partitions cost one
    step.  floor >= 1.
    """
    if n == 0:
        yield head + tail
        return
    if half is None:
        half = n
    if cap is None:
        cap = n
    if floor <= n <= cap and (n - floor) % step == 0:
        yield head + (n,) + tail
    stack = [(floor, n, tail)]
    pop, push = stack.pop, stack.append
    while stack:
        x, r, rest = pop()
        # Two parts x <= r - x have the residue only if r has it; else three
        # or more parts are left, and then x <= r // 3.
        pairs = step == 1 or (r - 2 * floor) % step == 0
        top = r // 2 if pairs else r // 3
        if top > cap:
            top = cap
        while x <= top:
            y = r - x
            if x <= half:
                nx = x + step
                if y < nx:
                    break
            else:
                nx = x
            if y <= cap:
                if pairs:
                    yield head + (y, x) + rest
            elif nx * ((y - 1) // cap + 1) > y:
                # y needs ceil(y/cap) parts >= nx, too many to fit, and does
                # until y drops to the next multiple of cap below it
                x = r - (y - 1) // cap * cap
                x += (floor - x) % step
                continue
            if y >= nx + (nx + step if nx <= half else nx):
                push((nx, y, (x,) + rest))
            x += step


def _gen_class_c(n: int) -> Iterator[tuple[int, ...]]:
    """Class-C partitions of n: largest part 2N even, parts <= N distinct."""
    return chain.from_iterable(
        _gen(n - 2 * half, head=(2 * half,), half=half, cap=2 * half)
        for half in range(n // 2, 0, -1)
    )


def _gen_class_d(n: int) -> Iterator[tuple[int, ...]]:
    """Class-D partitions of n: distinct parts, or the smallest part doubled."""
    return chain(
        _gen(n),
        *(_gen(n - 2 * s, s + 1, tail=(s, s)) for s in range(1, n // 2 + 1)),
    )


_GENERATORS = {
    A: _gen,
    B: partial(_gen, half=0, step=2),
    C: _gen_class_c,
    D: _gen_class_d,
}


def enumerate_class(
    n: int, cls: PartitionClass, cutoff: int = DEFAULT_ENUMERATION_CUTOFF
) -> list[Partition]:
    """All canonical partitions of weight n in the class, lex decreasing.

    Refuses weights above the cutoff (default 60); raise the cutoff
    explicitly for larger runs.
    """
    if n < 0:
        raise ValueError("weight must be non-negative")
    if cls not in _GENERATORS:
        raise TypeError(f"not a partition class: {cls!r}")
    if n > cutoff:
        raise CapacityError(f"weight {n} exceeds enumeration cutoff {cutoff}")
    return list(map(Partition, sorted(_GENERATORS[cls](n), reverse=True)))


# The in-place coefficient kernel of the dynamic programs here and of the
# series builders: multiplying or dividing a coefficient list, truncated at
# its length, by one factor (1 - s*q^e) is an O(N) recurrence, and so is
# adding a shifted list into it.  The sign convention is series.PochSpec's:
# s = -1 gives the factor (1 + q^e).


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


def _add_into(target: list[int], coeffs: Sequence[int], at: int = 0) -> list[int]:
    """target += q^at * coeffs in place, truncated at len(target)."""
    end = min(len(target), at + len(coeffs))
    target[at:end] = [x + y for x, y in zip(target[at:end], coeffs)]
    return target


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


# Euler's pentagonal number theorem: (q;q)_inf = sum over all integers k of
# (-1)^k q^(k(3k-1)/2), so (q^s;q^s)_inf has about sqrt(8N/(3s)) nonzero terms
# up to q^N, and multiplying or dividing by it takes that many slice adds, or
# a sum of that many terms per coefficient, in place of N/s factor passes.


def _pentagonal_terms(length: int, step: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) of the terms of (q^step;q^step)_inf but the
    constant 1, below q^length, exponents ascending; each coefficient is +1 or -1."""
    terms = []
    k = 1
    while (e := step * k * (3 * k - 1) // 2) < length:
        sign = -1 if k % 2 else 1
        terms.append((e, sign))
        if e + step * k < length:  # the term of -k, at step*k(3k+1)/2
            terms.append((e + step * k, sign))
        k += 1
    return terms


def _mul_pentagonal(c: list[int], step: int) -> list[int]:
    """c *= (q^step;q^step)_inf in place, truncated at len(c): one slice add
    of the old values per pentagonal term."""
    old = c[:]
    for e, sign in _pentagonal_terms(len(c), step):
        if sign == 1:
            c[e:] = [x + y for x, y in zip(c[e:], old)]
        else:
            c[e:] = [x - y for x, y in zip(c[e:], old)]
    return c


def _div_pentagonal(c: list[int], step: int) -> list[int]:
    """c /= (q^step;q^step)_inf in place, truncated at len(c), by the
    recurrence Euler used for p(n): for j ascending, c[j] -= the sum of
    coefficient * c[j-e] over the pentagonal terms with e <= j, from the new values."""
    terms = _pentagonal_terms(len(c), step)
    for j in range(step, len(c)):
        acc = c[j]
        for e, sign in terms:
            if e > j:
                break
            if sign == 1:
                acc -= c[j - e]
            else:
                acc += c[j - e]
        c[j] = acc
    return c


def _unit(order: int) -> list[int]:
    return [1] + [0] * order


# Every coefficient table built for the life of the process, by key: a count
# table by dynamic program under (method, class), and each series of
# series.py under its class, C form, chain stage, ("euler_lhs", sign) or
# ("inner_m_sum", gap).
# Coefficient n depends only on exponents up to n, so each key holds the
# longest table built so far and serves a lower n as its prefix.  The
# builders stay uncached, so a rebound one is seen whenever its table is cold.
_held: dict[object, tuple[int, ...]] = {}


def _held_prefix(key: object, n: int, build: Callable[[int], Sequence[int]]) -> tuple[int, ...]:
    """Coefficients 0..n of the table held under key; build(n) runs only when
    the held table is shorter, and its table replaces the held one."""
    held = _held.get(key, ())
    if len(held) <= n:
        held = _held[key] = tuple(build(n))
    return held[: n + 1]


def _dp_counts(cls: PartitionClass, n_max: int) -> list[int]:
    """Counting table values[0..n_max] for one class, by dynamic program."""
    if cls is A:
        return _mul_poch_inf(_unit(n_max), -1, 1, 1)
    if cls is B:
        return _div_poch_inf(_unit(n_max), +1, 1, 2)
    if cls is C:
        # Condition on the largest part 2N: one copy of 2N is placed, parts in
        # (N, 2N] repeat freely, parts <= N are used at most once.  dp counts
        # the rest, prod_{k<=N} (1+q^k) / prod_{N<k<=2N} (1-q^k), and is
        # updated from N-1 to N in four O(n) passes: N stops being free and
        # may occur once, 2N-1 and 2N become free.  At N=1 the first and third
        # passes cancel, as part 1 was never free.  C(0)=1 is the counting
        # convention for the empty partition.
        out = _unit(n_max)
        dp = _unit(n_max)
        for half in range(1, n_max // 2 + 1):
            del dp[n_max - 2 * half + 1 :]
            _mul_factor(dp, 1, half)
            _mul_factor(dp, -1, half)
            _div_factor(dp, 1, 2 * half - 1)
            _div_factor(dp, 1, 2 * half)
            _add_into(out, dp, 2 * half)
        return out
    if cls is D:
        # Condition on the doubled smallest part s: the other parts are
        # distinct and above s, T_s = prod_{k>s} (1+q^k), and T_0 (no doubled
        # part) is class A.  Two distinct parts above n_max // 2 exceed n_max.
        top = n_max // 2
        t = [1] + [0] * top + [1] * (n_max - top)
        out = [0] * (n_max + 1)
        for s in range(top, 0, -1):
            _add_into(out, t, 2 * s)
            _mul_factor(t, -1, s)
        return _add_into(out, t)
    raise TypeError(f"not a partition class: {cls!r}")


def count_table(
    cls: PartitionClass,
    n_max: int,
    method: str = METHOD_DYNAMIC_PROGRAM,
    cutoff: int = DEFAULT_ENUMERATION_CUTOFF,
) -> tuple[int, ...]:
    """Counts of the class for n = 0..n_max, in one pass.

    All three methods agree everywhere, including the convention values
    C(0)=1, C(1)=0, D(0)=1, D(1)=1.  The dynamic-program tables and the
    series that gf_class reads are held in _held, one per class and method.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if method == METHOD_DYNAMIC_PROGRAM:
        return _held_prefix((method, cls), n_max, lambda n: _dp_counts(cls, n))
    if method == METHOD_SERIES_COEFFICIENT:
        from .series import gf_class  # deferred; series builds on this module

        return gf_class(cls, n_max).coeffs
    if method != METHOD_ENUMERATION:
        raise ValueError(f"unknown counting method: {method!r}")
    if cls not in _GENERATORS:
        raise TypeError(f"not a partition class: {cls!r}")
    if n_max > cutoff:  # refuse before listing the weights up to the cutoff
        raise CapacityError(f"weight {cutoff + 1} exceeds enumeration cutoff {cutoff}")
    values = [sum(1 for _ in _GENERATORS[cls](n)) for n in range(n_max + 1)]
    if cls is C:
        values[0] = 1  # counting-layer convention; the predicate excludes the empty partition
    return tuple(values)


def render_class_d(p: Partition) -> str:
    """Render a class-D partition in its two-leading-zeros style.

    Distinct parts (or a single part) get the '0+0+' prefix followed by the
    parts in decreasing order; a doubled smallest part is rendered ascending,
    so the repeated pair comes first.
    """
    if not is_in_class(p, D):
        raise ClassMembershipError(f"{p} is not in class D")
    if not p.parts:
        return "0+0"
    if len(p.parts) == 1 or p.parts[-2] != p.parts[-1]:
        return "0+0+" + "+".join(str(x) for x in p.parts)
    return "+".join(str(x) for x in reversed(p.parts))
