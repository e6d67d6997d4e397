import functools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from eulerlab import acceptance, partitions
from eulerlab.partitions import (
    COUNT_METHODS,
    CapacityError,
    ClassMembershipError,
    Partition,
    PartitionClass,
    PartitionParseError,
    count_table,
    enumerate_class,
    is_in_class,
    normalize,
    parse_partition,
    render_class_d,
)
from eulerlab.series import gf_class

A, B, C, D = PartitionClass


def P(*parts: int) -> Partition:
    return normalize(parts)


# ---------------------------------------------------------------- normalize


def test_normalize_strips_zeros_and_sorts():
    assert normalize([7, 0, 0]).parts == (7,)
    assert normalize([7, 0, 0]).weight == 7
    assert normalize([1, 5, 1]).parts == (5, 1, 1)
    assert normalize([1, 5, 1]).weight == 7


def test_normalize_empty():
    empty = normalize([])
    assert empty.parts == ()
    assert empty.weight == 0


def test_normalize_rejects_negative():
    # The first negative part in input order is named, from a list or a generator.
    for raw in ([3, -1, -2], (x for x in (3, -1, 0, -2))):
        with pytest.raises(ValueError, match="^negative part: -1$"):
            normalize(raw)


def test_partition_constructor_enforces_canonical_form():
    # The first offending part decides which error is raised.
    with pytest.raises(ValueError, match="non-increasing"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="non-increasing"):
        Partition((1, 2, 0))
    with pytest.raises(ValueError, match=r"^non-positive part 0; use normalize\(\) first$"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="non-positive part -1"):
        Partition((-1, 2))


def test_partition_constructor_takes_a_tuple_only():
    # A generator would be drained by the check and stored spent; a list
    # could be changed after the check, and it cannot be hashed.
    for parts, kind in (((x for x in (3, 1)), "generator"), ([3, 1], "list")):
        refusal = rf"^parts must be a tuple, not {kind}; use normalize\(\)$"
        with pytest.raises(TypeError, match=refusal):
            Partition(parts)


def _canonical_form_error(parts):
    """The error the constructor raises, by checking part after part: the
    first part that is non-positive or above its predecessor decides it."""
    for i, part in enumerate(parts):
        if part < 1:
            return f"non-positive part {part}; use normalize() first"
        if i and part > parts[i - 1]:
            return "parts must be non-increasing; use normalize() first"
    return None


@given(st.lists(st.integers(-2, 4), max_size=8).map(tuple))
def test_partition_constructor_matches_a_part_by_part_check(parts):
    # The constructor checks order and sign in one pass and names the first
    # offending part only when that pass fails.
    expected = _canonical_form_error(parts)
    if expected is None:
        assert Partition(parts).parts is parts
    else:
        with pytest.raises(ValueError) as refused:
            Partition(parts)
        assert str(refused.value) == expected


@given(st.lists(st.integers(0, 50), max_size=20))
def test_normalize_properties(raw):
    p = normalize(raw)
    assert all(x >= 1 for x in p.parts)
    assert list(p.parts) == sorted(p.parts, reverse=True)
    assert p.weight == sum(raw)
    assert normalize(p.parts) == p


# ------------------------------------------------------------- is_in_class


@pytest.mark.parametrize(
    "parts,cls,expected",
    [
        ((2, 2, 2, 1), C, True),
        ((4, 2, 1), A, True),
        ((4, 2, 1), B, False),
        ((3, 3, 1), C, False),  # largest part odd
        ((6, 3, 3), C, False),  # 3 <= N=3 must not repeat
        ((6, 5, 4), C, True),  # parts above N=3 are unrestricted
        ((5, 1, 1), D, True),
        ((5, 1, 1, 1), D, False),
        ((3, 3, 1), D, False),  # repeat is not the smallest part
        ((7,), D, True),
        ((1,), D, True),
    ],
)
def test_membership_cases(parts, cls, expected):
    assert is_in_class(P(*parts), cls) is expected


def test_membership_of_empty_partition():
    empty = P()
    assert is_in_class(empty, A)
    assert is_in_class(empty, B)
    assert not is_in_class(empty, C)  # C(0)=1 lives in the counting layer
    assert is_in_class(empty, D)  # the bare two-zeros rendering


@pytest.mark.parametrize("n", range(0, 13))
@pytest.mark.parametrize("cls", list(PartitionClass))
def test_membership_agrees_with_oracle(n, cls):
    ours = {p for p in oracle.all_partitions(n) if is_in_class(Partition(p), cls)}
    theirs = set(oracle.brute_members(n, cls.value))
    assert ours == theirs


@st.composite
def multisets(draw, limit: int = 80) -> Partition:
    """Parts with repeats, each drawn with its multiplicity while the weight fits limit."""
    parts, room = [], limit
    pieces = st.tuples(st.integers(1, 40), st.sampled_from((1, 1, 2, 3)))
    for value, mult in draw(st.lists(pieces, max_size=12)):
        mult = min(mult, room // value)
        parts += [value] * mult
        room -= value * mult
    return normalize(parts)


@given(multisets())
def test_membership_agrees_with_oracle_on_drawn_multisets(p):
    # Beyond the exhaustive range above: weights up to 80, every class.
    for cls in PartitionClass:
        assert is_in_class(p, cls) is oracle.PREDICATES[cls.value](p.parts), cls


# --------------------------------------------------------- enumerate_class


def test_enumerate_a6_exact_order():
    got = [p.parts for p in enumerate_class(6, A)]
    assert got == [(6,), (5, 1), (4, 2), (3, 2, 1)]


def test_enumerate_c7_exact_order():
    got = [p.parts for p in enumerate_class(7, C)]
    assert got == [(6, 1), (4, 3), (4, 2, 1), (2, 2, 2, 1)]


def test_enumerate_weight_zero():
    assert [p.parts for p in enumerate_class(0, A)] == [()]
    assert [p.parts for p in enumerate_class(0, B)] == [()]
    assert [p.parts for p in enumerate_class(0, C)] == []
    assert [p.parts for p in enumerate_class(0, D)] == [()]


def test_enumerate_d7_matches_table_after_zero_stripping():
    got = {p.parts for p in enumerate_class(7, D)}
    table = {(7,), (6, 1), (5, 2), (4, 3), (4, 2, 1), (5, 1, 1), (3, 2, 1, 1), (3, 2, 2)}
    assert got == table
    assert len(enumerate_class(7, D)) == 2 * len(enumerate_class(6, A))


@pytest.mark.parametrize("n", range(0, 15))
@pytest.mark.parametrize("cls", list(PartitionClass))
def test_enumerate_properties(n, cls):
    listed = enumerate_class(n, cls)
    parts = [p.parts for p in listed]
    assert parts == sorted(parts, reverse=True)
    assert len(set(parts)) == len(parts)
    assert all(p.weight == n for p in listed)
    assert all(is_in_class(p, cls) for p in listed)
    assert parts == sorted(oracle.brute_members(n, cls.value), reverse=True)


SLOW_GENERATORS = {
    A: oracle.slow_gen_distinct,
    B: oracle.slow_gen_odd,
    C: oracle.slow_gen_class_c,
    D: oracle.slow_gen_class_d,
}


@functools.lru_cache(maxsize=1)
def slow_listings(cls: PartitionClass) -> tuple[list[tuple[int, ...]], ...]:
    """The recursive reference's listings of weights 0..61, for one class at a time."""
    return tuple(list(SLOW_GENERATORS[cls](n)) for n in range(0, 62))


# Grouped by class, so the two tests of one class share its reference listings.
@pytest.mark.parametrize("cls", list(PartitionClass), scope="module")
def test_generator_matches_recursive_reference(cls):
    # Raw generator output, before enumerate_class sorts it: the same tuples
    # as the original recursion, each once, in any order.
    flat = partitions._GENERATORS[cls]
    for n, expected in enumerate(slow_listings(cls)):
        got = Counter(flat(n))
        assert got == Counter(expected), n
        assert set(got.values()) <= {1}, n


def test_distinct_generator_with_floor_matches_recursive_reference():
    # Class D lists distinct parts above a floor s + 1, then the tail (s, s).
    for n in range(0, 41):
        for floor in range(1, n + 2):
            expected = list(oracle.slow_gen_distinct(n, floor))
            for tail in ((), (floor - 1, floor - 1)):
                got = Counter(partitions._gen(n, floor, tail=tail))
                assert got == Counter(t + tail for t in expected), (n, floor, tail)
                assert set(got.values()) <= {1}, (n, floor, tail)


@pytest.mark.parametrize("cls", list(PartitionClass), scope="module")
def test_enumerate_class_is_sorted_reference(cls):
    # The sort in enumerate_class is the only guarantee of order: the
    # generators list in their own order.
    for n, expected in enumerate(slow_listings(cls)):
        listed = [p.parts for p in enumerate_class(n, cls, cutoff=61)]
        assert listed == sorted(expected, reverse=True), n


@st.composite
def loop_arguments(draw):
    """n <= 30 and the arguments of one class's call of the loop, or random ones."""
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from("ABCDR"))
    if kind == "A":
        return n, {}
    if kind == "B":
        return n, {"half": 0, "step": 2}
    if kind == "C":
        half = draw(st.integers(1, 16))
        return n, {"head": (2 * half,), "half": half, "cap": 2 * half}
    if kind == "D":
        s = draw(st.integers(1, 15))
        return n, {"floor": s + 1, "tail": (s, s)}
    return n, {
        "floor": draw(st.integers(1, 8)),
        "half": draw(st.integers(0, 31)),
        "cap": draw(st.integers(1, 31)),
        "step": draw(st.sampled_from([1, 2])),
    }


@given(loop_arguments())
def test_loop_matches_brute_filter(arguments):
    n, kw = arguments
    floor, step = kw.get("floor", 1), kw.get("step", 1)
    half, cap = kw.get("half", n), kw.get("cap", n)
    head, tail = kw.get("head", ()), kw.get("tail", ())

    def allowed(parts):
        small = [p for p in parts if p <= half]
        return len(set(small)) == len(small) and all(
            floor <= p <= cap and (p - floor) % step == 0 for p in parts
        )

    listed = list(partitions._gen(n, **kw))
    assert len(set(listed)) == len(listed)
    assert all(t[: len(head)] == head and t[len(t) - len(tail) :] == tail for t in listed)
    assert all(min(t, default=1) >= 1 and list(t) == sorted(t, reverse=True) for t in listed)
    middles = {t[len(head) : len(t) - len(tail)] for t in listed}
    assert middles == {p for p in all_partitions(n) if allowed(p)}


@functools.cache
def all_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(oracle.all_partitions(n))


def test_enumerate_cutoff():
    with pytest.raises(CapacityError):
        enumerate_class(61, A)
    assert enumerate_class(61, A, cutoff=61)  # explicit raise of the cutoff works


# ------------------------------------------------------------- count_table


@pytest.mark.parametrize(
    "n,cls,expected",
    [(6, A, 4), (6, B, 4), (7, C, 4), (7, D, 8), (0, C, 1), (1, C, 0), (10, A, 10)],
)
@pytest.mark.parametrize("method", ["enumeration", "dynamic-program", "series-coefficient"])
def test_count_examples_all_methods(n, cls, expected, method):
    assert count_table(cls, n, method)[n] == expected


def test_count_conventions():
    assert count_table(D, 0)[0] == 1
    assert count_table(D, 1)[1] == 1
    assert count_table(A, 0)[0] == 1
    assert count_table(B, 0)[0] == 1


def test_count_unknown_method():
    with pytest.raises(ValueError):
        count_table(A, 5, "guesswork")


# The enumeration route rejects a non-class as the other routes do.
@pytest.mark.parametrize(
    "route,args",
    [
        (enumerate_class, (5, "A")),
        *((count_table, ("A", 5, method)) for method in COUNT_METHODS),
        (gf_class, ("A", 5)),
        (is_in_class, (P(3, 1), "A")),
    ],
    ids=["enumerate_class", *(f"count_table-{m}" for m in COUNT_METHODS)]
    + ["gf_class", "is_in_class"],
)
def test_every_route_rejects_a_non_class(route, args):
    with pytest.raises(TypeError) as excinfo:
        route(*args)
    assert str(excinfo.value) == "not a partition class: 'A'"


def test_count_enumeration_respects_cutoff():
    with pytest.raises(CapacityError):
        count_table(A, 75, "enumeration")


def test_count_enumeration_refuses_before_listing(monkeypatch):
    calls = []
    original = partitions._GENERATORS[A]

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setitem(partitions._GENERATORS, A, counting)
    with pytest.raises(CapacityError) as excinfo:
        count_table(A, 12, "enumeration", 10)
    assert str(excinfo.value) == "weight 11 exceeds enumeration cutoff 10"
    assert calls == []


def test_count_by_enumeration_builds_no_partition(monkeypatch):
    # A count reads only how many tuples each generator yields, so neither the
    # enumeration count nor the theorem's listing criterion constructs one.
    listed = {cls: [len(enumerate_class(n, cls)) for n in range(31)] for cls in PartitionClass}
    listed[C][0] = 1  # counting convention

    def forbidden(*args, **kwargs):
        raise AssertionError("Partition built on the count path")

    monkeypatch.setattr(partitions, "Partition", forbidden)
    for cls in PartitionClass:
        assert count_table(cls, 30, "enumeration") == tuple(listed[cls]), cls
    assert acceptance.theorem_by_enumeration(12).passed


@pytest.mark.parametrize("cls", list(PartitionClass))
def test_count_matches_oracle(cls):
    for n in range(0, 16):
        expected = oracle.brute_count(n, cls.value)
        if cls is C and n == 0:
            expected = 1  # counting convention
        assert count_table(cls, n, "dynamic-program")[n] == expected


def test_class_c_dp_matches_cubic_reference():
    for n_max in [*range(121), 300]:
        assert partitions._dp_counts(C, n_max) == oracle.slow_dp_counts_c(n_max), n_max


def test_class_d_dp_matches_slow_series():
    # Both parities of n_max // 2, the largest doubled part the table starts
    # from, against the oracle's sum of products built in its own ring.
    for n_max in [300, *range(121)]:
        expected = oracle.slow_gf_class(D, n_max).coeffs
        assert tuple(partitions._dp_counts(D, n_max)) == expected, n_max


def test_class_d_dp_does_not_read_class_a(monkeypatch):
    # D(n+1) = 2*A(n) is the theorem; the class-D table must count D from its
    # definition, so a wrong A table leaves it right.
    original = partitions._dp_counts

    def patched(cls, n_max):
        values = original(cls, n_max)
        if cls is A and n_max >= 17:
            values[17] += 1
        return values

    monkeypatch.setattr(partitions, "_dp_counts", patched)
    assert count_table(A, 40)[17] == oracle.brute_count(17, "A") + 1
    assert count_table(D, 40) == oracle.slow_gf_class(D, 40).coeffs


@pytest.mark.parametrize("cls", list(PartitionClass))
def test_dp_matches_series_at_max_n(cls):
    # The independent check at the CLI's largest --n, where the cubic reference
    # would take seconds.  The dynamic programs of A and B are gf_class's own
    # products, so they are checked against the slow oracle's pochhammer and
    # ring reciprocal; those of C and D against the series builders.
    expected = (oracle.slow_gf_class if cls in (A, B) else gf_class)(cls, 1000)
    assert tuple(partitions._dp_counts(cls, 1000)) == expected.coeffs


@pytest.mark.parametrize("cls", list(PartitionClass))
def test_dp_table_is_held_and_served_as_prefix(monkeypatch, cls):
    original = partitions._dp_counts
    cold = {n_max: tuple(original(cls, n_max)) for n_max in range(122)}
    built = []

    def counted(c, n_max):
        built.append((c, n_max))
        return original(c, n_max)

    monkeypatch.setattr(partitions, "_dp_counts", counted)
    assert count_table(cls, 120) == cold[120]
    assert built == [(cls, 120)]
    for n_max in range(121):
        assert count_table(cls, n_max) == cold[n_max], n_max
    assert built == [(cls, 120)]
    assert count_table(cls, 121) == cold[121]
    assert built == [(cls, 120), (cls, 121)]
    assert partitions._held == {("dynamic-program", cls): cold[121]}
    # the conventions C(0)=1, D(0)=D(1)=1 and the bound check on the warm table
    assert count_table(cls, 0) == (1,)
    assert count_table(cls, 1) == ((1, 0) if cls is C else (1, 1))
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        count_table(cls, -1)
    assert built == [(cls, 120), (cls, 121)]


def test_dp_tables_are_one_per_class():
    for n_max in (5, 40, 12, 60, 0):
        for cls in PartitionClass:
            count_table(cls, n_max)
    keys = [("dynamic-program", cls) for cls in PartitionClass]
    assert {key: len(t) for key, t in partitions._held.items()} == dict.fromkeys(keys, 61)
    assert all(type(t) is tuple for t in partitions._held.values())
    # the series share the store, and one clear empties tables and series alike
    count_table(C, 30, "series-coefficient")
    assert set(partitions._held) == {*keys, "sum_over_largest"}
    partitions._held.clear()
    assert partitions._held == {}


def test_count_d_range_from_reduction_identity():
    # Independent oracle: count via enumeration, then confirm the doubling
    # relation against the enumerated distinct-part counts.
    got = [count_table(D, n, "enumeration")[n] for n in range(2, 9)]
    assert got == [2, 2, 4, 4, 6, 8, 10]
    doubled = [2 * count_table(A, n - 1, "enumeration")[n - 1] for n in range(2, 9)]
    assert got == doubled


def test_count_table_methods_agree():
    for cls in PartitionClass:
        dyn = count_table(cls, 20, "dynamic-program")
        enu = count_table(cls, 20, "enumeration")
        ser = count_table(cls, 20, "series-coefficient")
        assert dyn == enu == ser


def test_theorem_at_small_scale_by_enumeration():
    for n in range(2, 26):
        a = count_table(A, n, "enumeration")[n]
        assert a == count_table(B, n, "enumeration")[n]
        assert a == count_table(C, n + 1, "enumeration")[n + 1]
        d = count_table(D, n + 1, "enumeration")[n + 1]
        assert d == 2 * a
        assert d % 2 == 0


def test_theorem_to_60_by_dynamic_program():
    a = count_table(A, 60)
    b = count_table(B, 60)
    c = count_table(C, 61)
    d = count_table(D, 61)
    for n in range(2, 61):
        assert a[n] == b[n] == c[n + 1]
        assert d[n + 1] == 2 * a[n]
        assert d[n + 1] % 2 == 0


# -------------------------------------------------------- render and parse


@pytest.mark.parametrize(
    "parts,expected",
    [
        ((7,), "0+0+7"),
        ((5, 1, 1), "1+1+5"),
        ((3, 2, 2), "2+2+3"),
        ((6, 1), "0+0+6+1"),
        ((3, 2, 1, 1), "1+1+2+3"),
        ((), "0+0"),
    ],
)
def test_render_class_d(parts, expected):
    assert render_class_d(P(*parts)) == expected


def test_render_rejects_non_d():
    with pytest.raises(ClassMembershipError):
        render_class_d(P(5, 1, 1, 1))


@pytest.mark.parametrize("n", range(0, 13))
def test_render_parse_round_trip(n):
    for p in enumerate_class(n, D):
        assert parse_partition(render_class_d(p), allow_zeros=True) == p


def test_parse_grammar():
    assert parse_partition(" 3 + 1+2 ").parts == (3, 2, 1)
    assert parse_partition("0+0+7", allow_zeros=True).parts == (7,)
    with pytest.raises(PartitionParseError):
        parse_partition("0+0+7")  # zeros need the class-D form
    with pytest.raises(PartitionParseError):
        parse_partition("")
    with pytest.raises(PartitionParseError):
        parse_partition("3++2")
    with pytest.raises(PartitionParseError):
        parse_partition("-3+2")
    for text in ("\u0663+1", "\u00b2", "3+\uff11"):  # Arabic-Indic 3, superscript 2, fullwidth 1
        with pytest.raises(PartitionParseError):
            parse_partition(text)


@given(st.lists(st.integers(1, 30), min_size=1, max_size=10))
def test_parse_render_any_partition(parts):
    text = "+".join(str(x) for x in parts)
    assert parse_partition(text) == normalize(parts)
