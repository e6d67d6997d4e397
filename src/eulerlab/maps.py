"""Invertible maps between the partition classes.

Glaisher's split/merge pair connects distinct parts (A) with odd parts (B);
a decrement of the largest part followed by the split carries C down to B,
with an explicit inverse; decrementing one copy of the smallest part carries
D down to A with fibers of size exactly two.
"""

from __future__ import annotations

from enum import Enum
from itertools import groupby
from typing import NamedTuple

from .partitions import A, B, C, D, ClassMembershipError, Partition, is_in_class


def _split_to_odd(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Glaisher's split of parts in any order: each part 2**k * a, a odd,
    becomes 2**k copies of a; the result is non-increasing."""
    out: list[int] = []
    for part in parts:
        if part & 1:
            out.append(part)
        else:
            power = (part & -part).bit_length() - 1
            out += [part >> power] * (1 << power)
    out.sort(reverse=True)
    return tuple(out)


def glaisher_to_odd(p: Partition) -> Partition:
    """Split every even part 2**k * a into 2**k copies of the odd part a.

    Accepts any partition; odd parts pass through untouched, so repeated odd
    parts in the input are fine.
    """
    return Partition(_split_to_odd(p.parts))


def glaisher_to_distinct(p: Partition) -> Partition:
    """Merge repeated odd parts into distinct parts.

    An odd part a of multiplicity f becomes one part a * 2**j per set bit of
    f; the result has all parts distinct and the same weight.
    """
    out: list[int] = []
    for part, run in groupby(p.parts):
        if part % 2 == 0:
            raise ClassMembershipError(f"part {part} is even; expected odd parts only")
        _merge_binary(out, part, len(list(run)))
    out.sort(reverse=True)
    return Partition(tuple(out))


def _merge_binary(out: list[int], part: int, mult: int) -> None:
    """Append part * 2**j to out for each set bit j of mult."""
    while mult:
        if mult & 1:
            out.append(part)
        part <<= 1
        mult >>= 1


class ReductionCase(Enum):
    """Which shape the class-D partition had before its smallest part lost 1."""

    SINGLE_PART = "single_part"
    SMALLEST_ABOVE_ONE = "smallest_above_one"
    SMALLEST_EQUALS_ONE = "smallest_equals_one"


_CASE_NUMBER = {
    ReductionCase.SINGLE_PART: 1,
    ReductionCase.SMALLEST_ABOVE_ONE: 2,
    ReductionCase.SMALLEST_EQUALS_ONE: 3,
}


class ReductionTag(NamedTuple):
    """Branch record of the two-to-one reduction from class D."""

    case: ReductionCase

    @property
    def bit(self) -> int:
        """Lift-branch selector: 1 exactly when the smallest part was 1."""
        return 1 if self.case is _SMALLEST_EQUALS_ONE else 0

    @property
    def case_number(self) -> int:
        return _CASE_NUMBER[self.case]


# Each read of an enum member goes through a descriptor, so d_reduce returns
# one of these three tags, built once, and bit compares with a module name.
_SMALLEST_EQUALS_ONE = ReductionCase.SMALLEST_EQUALS_ONE
_SINGLE_PART_TAG = ReductionTag(ReductionCase.SINGLE_PART)
_ABOVE_ONE_TAG = ReductionTag(ReductionCase.SMALLEST_ABOVE_ONE)
_EQUALS_ONE_TAG = ReductionTag(_SMALLEST_EQUALS_ONE)


def d_reduce(p: Partition) -> tuple[Partition, ReductionTag]:
    """Subtract 1 from one copy of the smallest part of a class-D partition.

    The result has distinct parts and weight one less; the tag records which
    of the three shapes applied, and its bit selects the inverse branch.
    """
    if not is_in_class(p, D):
        raise ClassMembershipError(f"{p} is not in class D")
    if p.weight < 2:
        raise ValueError("reduction needs weight at least 2")
    parts = p.parts
    smallest = parts[-1]
    if smallest == 1:
        return Partition(parts[:-1]), _EQUALS_ONE_TAG
    tag = _SINGLE_PART_TAG if len(parts) == 1 else _ABOVE_ONE_TAG
    return Partition(parts[:-1] + (smallest - 1,)), tag


def d_lift(mu: Partition, bit: int) -> Partition:
    """Invert d_reduce: bit 0 bumps the smallest part, bit 1 appends a 1.

    Both branches land in class D with weight one more, and the branches are
    disjoint (bit 0 gives smallest part >= 2, bit 1 gives smallest part 1).
    """
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if not mu.parts:
        raise ClassMembershipError("cannot lift the empty partition")
    if not is_in_class(mu, A):
        raise ClassMembershipError(f"{mu} does not have distinct parts")
    if bit == 1:
        return Partition(mu.parts + (1,))
    return Partition(mu.parts[:-1] + (mu.parts[-1] + 1,))


def c_to_b(p: Partition) -> Partition:
    """Send a class-C partition to odd parts, dropping its weight by 1.

    One copy of the even largest part 2N becomes 2N-1, then every remaining
    even part is split down to odd parts; the image's largest part is 2N-1.
    """
    if not is_in_class(p, C):
        raise ClassMembershipError(f"{p} is not in class C")
    return Partition(_split_to_odd(p.parts[1:] + (p.parts[0] - 1,)))


def b_to_c(p: Partition) -> Partition:
    """Invert c_to_b on odd-part partitions, raising the weight by 1.

    With 2N-1 the largest part, one copy of it is restored to 2N.  Every
    remaining odd value a regroups by the unique power 2**k with
    N < a * 2**k <= 2N: multiplicity t = u * 2**k + r puts u copies at
    a * 2**k (free to repeat above N) and scatters r over distinct parts
    a * 2**j with j < k (all at most N).
    """
    if not p.parts:
        raise ClassMembershipError("the empty partition has no largest part to restore")
    if not is_in_class(p, B):
        raise ClassMembershipError(f"{p} is not in class B")
    target_max = p.parts[0] + 1
    out = [target_max]
    for base, run in groupby(p.parts[1:]):
        mult = len(list(run))
        k = (target_max // base).bit_length() - 1
        copies, rest = divmod(mult, 1 << k)
        out.extend([base << k] * copies)
        _merge_binary(out, base, rest)
    out.sort(reverse=True)
    return Partition(tuple(out))
