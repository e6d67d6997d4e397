import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from eulerlab.maps import (
    ReductionCase,
    ReductionTag,
    b_to_c,
    c_to_b,
    d_lift,
    d_reduce,
    glaisher_to_distinct,
    glaisher_to_odd,
)
from eulerlab.partitions import (
    ClassMembershipError,
    Partition,
    PartitionClass,
    enumerate_class,
    is_in_class,
    normalize,
)

A, B, C, D = PartitionClass

MAX_WEIGHT = 16  # exhaustive unit-test range; the acceptance suite goes to 40


def P(*parts: int) -> Partition:
    return normalize(parts)


# ------------------------------------------------------------ glaisher map


@pytest.mark.parametrize(
    "before,after",
    [((6,), (3, 3)), ((5, 1), (5, 1)), ((4, 2), (1, 1, 1, 1, 1, 1))],
)
def test_glaisher_to_odd_examples(before, after):
    assert glaisher_to_odd(P(*before)).parts == after


@pytest.mark.parametrize(
    "before,after",
    [((3, 3), (6,)), ((3, 1, 1, 1), (3, 2, 1)), ((1, 1, 1, 1, 1, 1), (4, 2))],
)
def test_glaisher_to_distinct_examples(before, after):
    assert glaisher_to_distinct(P(*before)).parts == after


def test_glaisher_to_odd_splits_by_the_power_of_two():
    # 12 = 3 * 2**2 with multiplicity 3 splits into 3 * 4 = twelve 3s.
    assert glaisher_to_odd(P(12, 12, 12)).parts == (3,) * 12


def test_glaisher_to_distinct_merges_by_binary_digits():
    # 5 with multiplicity 6 = 0b110 merges into 5*2 + 5*4.
    assert glaisher_to_distinct(P(*[5] * 6)).parts == (20, 10)


ODD = st.integers(0, 60).map(lambda k: 2 * k + 1)


@given(st.lists(st.tuples(ODD, st.integers(0, 11)), max_size=6))
def test_glaisher_to_odd_matches_oracle(pieces):
    p = normalize([a << k for a, k in pieces])
    assert glaisher_to_odd(p).parts == oracle.split_to_odd(p.parts)


@given(st.lists(st.tuples(ODD, st.integers(1, 3000)), max_size=5))
def test_glaisher_to_distinct_matches_oracle(pieces):
    p = normalize([a for a, mult in pieces for _ in range(mult)])
    assert glaisher_to_distinct(p).parts == oracle.merge_to_distinct(p.parts)


def test_glaisher_to_distinct_rejects_even_parts():
    with pytest.raises(ClassMembershipError):
        glaisher_to_distinct(P(4, 1))


def test_glaisher_accepts_repeated_odd_parts():
    # Needed by the C-to-B map: odd parts pass through untouched.
    assert glaisher_to_odd(P(3, 3, 2)).parts == (3, 3, 1, 1)


def test_glaisher_round_trips_exhaustive():
    for n in range(MAX_WEIGHT + 1):
        for p in enumerate_class(n, A):
            image = glaisher_to_odd(p)
            assert image.weight == n
            assert is_in_class(image, B)
            assert glaisher_to_distinct(image) == p
        for p in enumerate_class(n, B):
            image = glaisher_to_distinct(p)
            assert image.weight == n
            assert is_in_class(image, A)
            assert glaisher_to_odd(image) == p


# -------------------------------------------------------------- d maps


@pytest.mark.parametrize(
    "parts,reduced,case",
    [
        ((3, 2, 2), (3, 2, 1), ReductionCase.SMALLEST_ABOVE_ONE),
        ((5, 1, 1), (5, 1), ReductionCase.SMALLEST_EQUALS_ONE),
        ((7,), (6,), ReductionCase.SINGLE_PART),
        ((1, 1), (1,), ReductionCase.SMALLEST_EQUALS_ONE),
    ],
)
def test_d_reduce_examples(parts, reduced, case):
    mu, tag = d_reduce(P(*parts))
    assert mu.parts == reduced
    assert tag.case is case


def test_reduction_tag_bits():
    assert ReductionTag(ReductionCase.SINGLE_PART).bit == 0
    assert ReductionTag(ReductionCase.SMALLEST_ABOVE_ONE).bit == 0
    assert ReductionTag(ReductionCase.SMALLEST_EQUALS_ONE).bit == 1
    assert ReductionTag(ReductionCase.SINGLE_PART).case_number == 1


def test_d_reduce_errors():
    with pytest.raises(ClassMembershipError):
        d_reduce(P(5, 1, 1, 1))
    with pytest.raises(ValueError):
        d_reduce(P(1))


@pytest.mark.parametrize(
    "mu,bit,lifted",
    [
        ((6,), 0, (7,)),
        ((6,), 1, (6, 1)),
        ((3, 2, 1), 0, (3, 2, 2)),
        ((5, 1), 1, (5, 1, 1)),
    ],
)
def test_d_lift_examples(mu, bit, lifted):
    assert d_lift(P(*mu), bit).parts == lifted


def test_d_lift_errors():
    with pytest.raises(ClassMembershipError):
        d_lift(P(), 0)
    with pytest.raises(ClassMembershipError):
        d_lift(P(3, 3), 0)
    with pytest.raises(ValueError):
        d_lift(P(3), 2)


def test_d_fibers_are_exactly_two_exhaustive():
    for n in range(2, MAX_WEIGHT + 1):
        seen = {}
        for p in enumerate_class(n, D):
            mu, tag = d_reduce(p)
            assert mu.weight == n - 1
            assert is_in_class(mu, A)
            assert d_lift(mu, tag.bit) == p
            seen.setdefault(mu, set()).add(tag.bit)
        expected = {mu: {0, 1} for mu in enumerate_class(n - 1, A)}
        assert seen == expected


# -------------------------------------------------------------- c/b maps


@pytest.mark.parametrize(
    "before,after",
    [
        ((4, 2, 1), (3, 1, 1, 1)),
        ((2, 2, 2, 1), (1, 1, 1, 1, 1, 1)),
        ((6, 1), (5, 1)),
        ((2,), (1,)),
    ],
)
def test_c_to_b_examples(before, after):
    assert c_to_b(P(*before)).parts == after


@pytest.mark.parametrize(
    "before,after",
    [
        ((1, 1, 1, 1, 1, 1), (2, 2, 2, 1)),
        ((3, 1, 1, 1), (4, 2, 1)),
        ((3, 3), (4, 3)),
        ((1,), (2,)),
    ],
)
def test_b_to_c_examples(before, after):
    assert b_to_c(P(*before)).parts == after


def test_c_to_b_matches_the_definition():
    # One copy of the largest part 2N lowered to 2N-1, then Glaisher's split,
    # here by the oracle's repeated halving.
    for n in range(2, 31):
        for p in enumerate_class(n, C):
            lowered = (p.parts[0] - 1,) + p.parts[1:]
            assert c_to_b(p).parts == oracle.split_to_odd(lowered), p


def test_c_to_b_errors():
    with pytest.raises(ClassMembershipError):
        c_to_b(P(3, 3))  # largest part odd
    with pytest.raises(ClassMembershipError):
        c_to_b(P())


def test_b_to_c_errors():
    with pytest.raises(ClassMembershipError):
        b_to_c(P(4, 1))
    with pytest.raises(ClassMembershipError):
        b_to_c(P())


def test_c_b_round_trips_exhaustive():
    for n in range(2, MAX_WEIGHT + 1):
        for p in enumerate_class(n, C):
            image = c_to_b(p)
            assert image.weight == n - 1
            assert is_in_class(image, B)
            assert image.parts[0] == p.parts[0] - 1
            assert b_to_c(image) == p
    for n in range(1, MAX_WEIGHT + 1):
        for p in enumerate_class(n, B):
            image = b_to_c(p)
            assert image.weight == n + 1
            assert is_in_class(image, C)
            assert c_to_b(image) == p


def test_c_to_b_is_a_bijection_onto_b():
    for n in range(1, MAX_WEIGHT + 1):
        images = sorted(c_to_b(p).parts for p in enumerate_class(n + 1, C))
        assert images == sorted(p.parts for p in enumerate_class(n, B))
