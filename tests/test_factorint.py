"""Factored integers: exact primality and factoring, cyclotomic factors of
q^d - 1 and element orders.  sympy is the oracle for the integer functions."""

import math
import random
import time

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from sympgen import factorint
from sympgen.errors import BadParam, CheckFailed, OutOfRange, SympgenError
from sympgen.factorint import (
    FactoredInt,
    _integer_root,
    _phi,
    _phi_factors,
    _strong_lucas_probable_prime,
    divisors,
    factor_q_pow_minus_one,
    factorize,
    is_prime,
    multiplicative_order,
    prime_factors,
)
from sympgen.gf import _split_prime_power

PSI_12 = 318665857834031151167461
# strong pseudoprimes to the first k prime bases: psi_1 .. psi_13 (OEIS
# A014233), so each passes every Miller-Rabin base set below its own bound
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       PSI_12, 3317044064679887385961981]
MERSENNE_61, MERSENNE_89, MERSENNE_127 = 2**61 - 1, 2**89 - 1, 2**127 - 1

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


def test_is_prime_matches_sympy_below_10_5():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == list(sympy.primerange(10**5))


def _chernick(k):
    """(6k + 1)(12k + 1)(18k + 1): a Carmichael number when all three are prime."""
    parts = (6 * k + 1, 12 * k + 1, 18 * k + 1)
    return math.prod(parts) if all(sympy.isprime(m) for m in parts) else None


def test_carmichael_numbers_are_composite():
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
             46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401]
    # Chernick's numbers from 1729 up to past psi_12, where BPSW decides
    chernick = [c for start in (1, 10**3, 10**5, 10**6, 10**7)
                for c in map(_chernick, range(start, start + 400)) if c][::3]
    assert len(chernick) > 10 and max(chernick) > PSI_12
    for n in small + chernick:
        assert not is_prime(n) and not sympy.isprime(n), n


def test_strong_pseudoprimes_to_many_bases_are_composite():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n) and not sympy.isprime(n), n


@pytest.mark.parametrize("center", [2**32, 2**61, 2**64, 3825123056546413051, PSI_12])
def test_is_prime_matches_sympy_near_the_bounds(center):
    window = range(center - 300, center + 300)
    assert [n for n in window if is_prime(n)] == [n for n in window if sympy.isprime(n)]


def test_bpsw_range():
    cases = [MERSENNE_89, MERSENNE_127, MERSENNE_61 * MERSENNE_89,
             MERSENNE_89 * MERSENNE_89, MERSENNE_127 * MERSENNE_127,
             sympy.nextprime(2**100), sympy.nextprime(2**100) * sympy.nextprime(2**101)]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
    assert is_prime(MERSENNE_89) and is_prime(MERSENNE_127)


def test_strong_lucas_test_matches_sympy():
    # the strong Lucas pseudoprimes 5459, 5777, 10877, ... pass, as they should
    odd = [n for n in range(101, 60000, 2) if math.isqrt(n) ** 2 != n]
    passed = [n for n in odd if _strong_lucas_probable_prime(n)]
    assert passed == [n for n in odd if is_strong_lucas_prp(n)]
    assert [n for n in passed if not sympy.isprime(n)][:3] == [5459, 5777, 10877]


def _sample():
    """A fixed sample below 2^64: random values of every bit length, and
    products of two primes of 32 bits, prime squares and cubes, for rho."""
    rng = random.Random(20170101)
    values = [rng.getrandbits(bits) | 1 << (bits - 1)
              for bits in range(1, 65) for _ in range(4)]
    values += [(2**32 - 5) * (2**32 - 17), (2**31 - 1) ** 2, 65521**3, 101**2,
               2**64 - 1, 2**63, MERSENNE_61, 4294967291 * 101, 1]
    return values


def test_factorize_matches_sympy():
    for n in _sample():
        assert factorize(n) == sympy.factorint(n), n
        assert prime_factors(n) == sympy.primefactors(n), n
        assert math.prod(p**e for p, e in factorize(n).items()) == n


def test_divisors_match_sympy():
    for n in _sample():
        if n < 2**40:
            assert divisors(n) == sympy.divisors(n), n
    assert divisors(1) == [1] and divisors(2**64 - 1)[-1] == 2**64 - 1


def test_factorize_refuses_values_outside_its_range():
    with pytest.raises(OutOfRange):
        factorize(2**64)
    for n in (0, -6):
        with pytest.raises(ValueError):
            factorize(n)


def test_integer_root_matches_sympy():
    rng = random.Random(7)
    for _ in range(300):
        n, k = rng.getrandbits(rng.randrange(1, 300)), rng.randrange(1, 40)
        assert _integer_root(n, k) == sympy.integer_nthroot(n, k)[0], (n, k)


def test_split_prime_power_matches_sympy():
    for q in range(-3, 5000):
        factors = sympy.factorint(q) if q > 1 else {}
        if len(factors) == 1:
            assert _split_prime_power(q) == next(iter(factors.items())), q
        else:
            with pytest.raises(BadParam):
                _split_prime_power(q)
    for p, f in [(MERSENNE_61, 3), (2, 100), (3, 60), (MERSENNE_127, 1)]:
        assert _split_prime_power(p**f) == (p, f)
    with pytest.raises(BadParam):
        _split_prime_power(MERSENNE_61**2 * 2)


def test_the_public_constructor_rejects_a_composite_key():
    with pytest.raises(ValueError, match="not prime"):
        FactoredInt({4: 1})
    with pytest.raises(ValueError, match="negative"):
        FactoredInt({3: -1})


def test_products_of_factored_ints_test_no_prime_again(monkeypatch):
    a, b = FactoredInt({2: 3, 5: 1}), FactoredInt({3: 1, 5: 2})

    def untrusted(n):
        raise AssertionError(f"{n} was tested again")

    monkeypatch.setattr(factorint, "is_prime", untrusted)
    assert (a * b).factors == {2: 3, 3: 1, 5: 3}
    assert a.lcm(b).factors == {2: 3, 3: 1, 5: 2}
    # 2 has order 12 mod 13
    assert multiplicative_order(FactoredInt._make({2: 2, 3: 1}), 2, _mod_power(13),
                                _is_one).factors == {2: 2, 3: 1}
