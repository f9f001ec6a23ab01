"""Factored integers: cyclotomic factors of q^d - 1 and element orders."""

import math
import time

import pytest
import sympy

from sympgen.errors import CheckFailed, OutOfRange, SympgenError
from sympgen.factorint import (
    FactoredInt,
    _phi,
    _phi_factors,
    factor_q_pow_minus_one,
    multiplicative_order,
)

QS = [2, 3, 4, 5, 7, 8, 9, 16, 25]


def _value(pairs):
    return math.prod(prime**exp for prime, exp in pairs)


def _mod_power(m):
    return lambda y, n: pow(y, n, m)


def _is_one(y):
    return y == 1


@pytest.mark.parametrize("q", QS)
def test_integer_phi_matches_sympy_cyclotomic_values(q):
    # sympy's symbolic cyclotomic polynomial stays the oracle for the
    # integer Moebius product; the factors must multiply back to it.  Only
    # values below 2^64 are factored here: sympy takes seconds or more on
    # some larger ones, such as Phi_59(5) or Phi_41(25)
    for e in range(1, 61):
        value = int(sympy.cyclotomic_poly(e, q))
        assert _phi(e, q) == value, e
        if value < 2**64:
            assert _value(_phi_factors(e, q)) == value, e


@pytest.mark.parametrize("q", QS)
def test_factor_q_pow_minus_one_multiplies_back(q):
    for d in range(1, 41):
        if q**d < 2**64:
            assert factor_q_pow_minus_one(q, d).value_unchecked() == q**d - 1, d


def test_a_cyclotomic_factor_past_the_budget_is_refused_at_once():
    # Phi_59(5) has 135 bits; sympy took over 3 s to factor it
    start = time.perf_counter()
    with pytest.raises(OutOfRange, match=r"Phi_59\(5\)"):
        factor_q_pow_minus_one(5, 59)
    assert time.perf_counter() - start < 0.5
    # the largest Phi_e(q) that the suite factors stays inside it
    assert _phi(51, 4).bit_length() == 64 and _phi_factors(51, 4)


def test_multiplicative_order_matches_the_naive_order():
    # units mod 2^4 3^2 5 7: a group of exponent lcm(4, 6, 4, 6) = 12,
    # which divides the group order given
    m = 2**4 * 3**2 * 5 * 7
    group = FactoredInt({2: 2, 3: 1})
    for x in range(1, m):
        if math.gcd(x, m) > 1:
            continue
        naive = next(k for k in range(1, 13) if pow(x, k, m) == 1)
        assert multiplicative_order(group, x, _mod_power(m), _is_one).value() == naive


def test_multiplicative_order_of_the_identity_in_the_trivial_group():
    assert multiplicative_order(FactoredInt.one(), 1, _mod_power(7), _is_one).value() == 1


@pytest.mark.parametrize("group", [FactoredInt({3: 1}), FactoredInt({2: 1, 5: 1}),
                                   FactoredInt({2: 2}), FactoredInt.one()])
def test_multiplicative_order_with_a_too_small_group_order_fails_loudly(group):
    # 3 has order 6 mod 7: each group order here misses its 2-part or its
    # 3-part, so x^N != 1, and some prime's steps reach its exponent first
    with pytest.raises(CheckFailed) as info:
        multiplicative_order(group, 3, _mod_power(7), _is_one)
    assert isinstance(info.value, SympgenError)


def test_multiplicative_order_raises_by_a_product_tree():
    # N = 2 3 5 7: the tree raises by 35 and 6 (the halves), then by 3, 2
    # and 7, 5 (the quarters); each leaf then takes one step by its prime.
    # The tree's exponents multiply to N^2, two levels of about N each,
    # where one power x^(N/l) per prime would multiply to N^3
    exponents = []

    def power(y, n):
        exponents.append(n)
        return pow(y, n, 211)

    # 2 is a primitive root mod the prime 211 = 2 3 5 7 + 1
    group = FactoredInt({2: 1, 3: 1, 5: 1, 7: 1})
    assert multiplicative_order(group, 2, power, _is_one).value() == 210
    assert exponents == [35, 3, 2, 6, 7, 5, 2]
