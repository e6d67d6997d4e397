"""Acceptance gate: every headline criterion at full scale, one test each.

Each test prints the criterion's name, verdict and time (visible with
pytest -s or on failure), checks that the result carries the name the
criterion is registered under, and enforces the criterion's runtime budget
where one is stated.
"""

import pytest

from eulerlab import acceptance


def _check(criterion, *args, budget=None):
    result = criterion(*args)
    print(result.name, result.passed, f"{result.elapsed:.2f}s")
    assert acceptance.CRITERIA[result.name] is criterion
    assert result.passed, result.detail
    if budget is not None:
        assert result.elapsed < budget, f"{result.name} took {result.elapsed:.2f}s"


def test_golden_table_weight_six():
    # Exact counts 4/4/4/8 and the four exact partition lists, class D in
    # its two-leading-zeros rendering.  Budget: 1 s.
    _check(acceptance.golden_table, budget=1.0)


def test_theorem_by_enumeration_to_60():
    # A(n) = B(n) = C(n+1) = D(n+1)/2 for 1 <= n <= 60, every count obtained
    # by exhaustive listing.  Budget: 2 min.
    _check(acceptance.theorem_by_enumeration, 60, budget=120.0)


def test_theorem_by_series_to_199():
    # Same identity through series coefficients for 1 <= n <= 199 at
    # truncation order 200.  Budget: 30 s.
    _check(acceptance.theorem_by_series, 200, budget=30.0)


def test_c_forms_shift_onto_b_to_199():
    # coeff(gf_C, n+1) = B(n) for 1 <= n <= 199 in all three sum forms.
    _check(acceptance.c_forms_match_b, 200)


def test_chain_stages_at_order_200():
    # All five doubled derivation stages equal 2*gf_C through q^200, and
    # 2*gf_C = gf_D + 1 - q at every exponent 0..200.
    _check(acceptance.chain_stages, 200)


def test_euler_expansion_orders_1_to_5():
    # Reciprocal-product versus term sum at t = q^c and t = -q^c for
    # c = 1..5, order 100.
    _check(acceptance.euler_expansion, 5, 100)


def test_bijection_suite_to_weight_40():
    # Exhaustive round trips, image-class membership, fiber sizes of two,
    # and image-set equality, for all partitions of weight <= 40 in classes
    # A and B and of weight <= 41 in classes C and D.  Budget: 5 min.
    _check(acceptance.bijection_suite, 40, budget=300.0)


def test_oracle_equivalence_to_30():
    # Enumeration, dynamic program, and series coefficient agree for every
    # class and all n <= 30.
    _check(acceptance.oracle_equivalence, 30)


# Degenerate arguments raise rather than pass with nothing compared, and the
# error names the criterion's own argument.
@pytest.mark.parametrize(
    "criterion,args,message",
    [
        (acceptance.euler_expansion, (0, 50), "max_c must be >= 1"),
        (acceptance.c_forms_match_b, (0,), "order must be >= 2"),
        (acceptance.c_forms_match_b, (1,), "order must be >= 2"),
        (acceptance.theorem_by_enumeration, (0,), "n_max must be >= 1"),
        (acceptance.theorem_by_enumeration, (-1,), "n_max must be >= 1"),
        (acceptance.bijection_suite, (-1,), "max_weight must be >= 0"),
    ],
)
def test_degenerate_arguments_raise(criterion, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        criterion(*args)


# The lowest arguments that still compare something pass: n = 1, and weight 0,
# whose Glaisher round trips take the empty partition.
@pytest.mark.parametrize(
    "criterion,arg", [(acceptance.theorem_by_enumeration, 1), (acceptance.bijection_suite, 0)]
)
def test_lowest_arguments_pass(criterion, arg):
    _check(criterion, arg)
