"""Factored positive integers: the prime -> exponent map behind all order bookkeeping.

Group orders such as |Sp_28(7)| never need to exist as flat integers; they are
kept factored.  Cyclotomic decomposition q^d - 1 = prod_{e | d} Phi_e(q) keeps
every integer handed to the factoring backend small (~10^12 at worst for the
parameters exercised here).
"""

from __future__ import annotations

import functools

import sympy

from .errors import OutOfRange

_FLAT_LIMIT = 1 << 64


class FactoredInt:
    """A positive integer stored as a map prime -> exponent >= 1."""

    __slots__ = ("factors",)

    def __init__(self, factors=None):
        factors = dict(factors or {})
        for prime, exp in factors.items():
            if exp < 0:
                raise ValueError(f"negative exponent for {prime}")
            if exp >= 1 and not sympy.isprime(prime):
                raise ValueError(f"{prime} is not prime")
        self.factors = {p: e for p, e in sorted(factors.items()) if e >= 1}

    @classmethod
    def of(cls, value: int) -> "FactoredInt":
        if value <= 0:
            raise ValueError("FactoredInt requires a positive integer")
        return cls(sympy.factorint(value))

    @classmethod
    def one(cls) -> "FactoredInt":
        return cls({})

    def primes(self):
        return sorted(self.factors)

    def value(self) -> int:
        """Flat integer value; refuses to materialize anything >= 2^64."""
        result = 1
        for prime, exp in self.factors.items():
            result *= prime**exp
            if result >= _FLAT_LIMIT:
                raise OutOfRange("value does not fit the 64-bit budget")
        return result

    def value_unchecked(self) -> int:
        result = 1
        for prime, exp in self.factors.items():
            result *= prime**exp
        return result

    def __mul__(self, other: "FactoredInt") -> "FactoredInt":
        merged = dict(self.factors)
        for prime, exp in other.factors.items():
            merged[prime] = merged.get(prime, 0) + exp
        return FactoredInt(merged)

    def lcm(self, other: "FactoredInt") -> "FactoredInt":
        merged = dict(self.factors)
        for prime, exp in other.factors.items():
            merged[prime] = max(merged.get(prime, 0), exp)
        return FactoredInt(merged)

    def __eq__(self, other):
        return isinstance(other, FactoredInt) and self.factors == other.factors

    def __hash__(self):
        return hash(tuple(sorted(self.factors.items())))

    def __repr__(self):
        if not self.factors:
            return "FactoredInt(1)"
        body = " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(self.factors.items()))
        return f"FactoredInt({body})"

    def to_json(self):
        return {str(p): e for p, e in sorted(self.factors.items())}


@functools.lru_cache(maxsize=None)
def _phi_factors(e: int, q: int):
    """Factorization of Phi_e(q) as a tuple of (prime, exponent)."""
    value = int(sympy.cyclotomic_poly(e, q))
    return tuple(sorted(sympy.factorint(value).items()))


@functools.lru_cache(maxsize=None)
def factor_q_pow_minus_one(q: int, d: int) -> FactoredInt:
    """q^d - 1 factored via the cyclotomic product over divisors of d."""
    if q < 2 or d < 1:
        raise ValueError("need q >= 2, d >= 1")
    result: dict[int, int] = {}
    for e in sympy.divisors(d):
        for prime, exp in _phi_factors(e, q):
            result[prime] = result.get(prime, 0) + exp
    return FactoredInt(result)


def multiplicative_order(modulus_order: FactoredInt, power) -> FactoredInt:
    """Order of an abstract element given group order and a power oracle.

    ``power(n)`` must return the element raised to the n-th power, and the
    identity must compare equal to ``power(0)``.
    """
    identity = power(0)
    order = dict(modulus_order.factors)
    n = modulus_order.value_unchecked()
    for prime in list(order):
        while order[prime] > 0:
            candidate = n // prime
            if power(candidate) == identity:
                n = candidate
                order[prime] -= 1
            else:
                break
        if order[prime] == 0:
            del order[prime]
    return FactoredInt(order)

