"""Factored positive integers: the prime -> exponent map behind all order bookkeeping.

Group orders such as |Sp_28(7)| never need to exist as flat integers; they are
kept factored.  Cyclotomic decomposition q^d - 1 = prod_{e | d} Phi_e(q) keeps
every integer handed to the factoring backend below 2^64 (_FLAT_LIMIT, the
budget of FactoredInt.value): a larger Phi_e(q) raises OutOfRange, since
the backend can take seconds or more on one (Phi_59(5), Phi_41(25)).
Phi_e(q) itself is the integer prod_{d | e} (q^d - 1)^mu(e/d), with no
symbolic polynomial.

multiplicative_order works in any group given its power map: the powers
x^(N / l^e) for all prime powers l^e of N come from one product tree
(_cofactor_powers, a Huffman tree on their bit lengths), and each is then
raised by l until it is the identity (Sutherland, Order computations in
generic groups, PhD thesis, MIT 2007, ch. 7).  A group order that x^N does
not reach raises CheckFailed.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import sympy

from .errors import CheckFailed, OutOfRange

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


def _mobius(n: int) -> int:
    exps = sympy.factorint(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def _phi(e: int, q: int) -> int:
    """Phi_e(q) = prod_{d | e} (q^d - 1)^mu(e/d), in integers."""
    num = den = 1
    for d in sympy.divisors(e):
        mu = _mobius(e // d)
        if mu > 0:
            num *= q**d - 1
        elif mu < 0:
            den *= q**d - 1
    return num // den


@functools.lru_cache(maxsize=None)
def _phi_factors(e: int, q: int):
    """Factorization of Phi_e(q) as a tuple of (prime, exponent); OutOfRange
    from 2^64 on."""
    value = _phi(e, q)
    if value >= _FLAT_LIMIT:
        raise OutOfRange(f"Phi_{e}({q}) has {value.bit_length()} bits, past the "
                         "64-bit factoring budget")
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


def _cofactor_powers(x, parts, power):
    """[x^(P / m) for m in parts], P the product of the parts, with power(y, n)
    giving y^n, from one product tree (Sutherland, Order computations in
    generic groups, 2007, ch. 7).  A node holding the parts S has
    y = x^(P / prod S), and each child is reached by raising y by the
    product of the other child's parts.  A part at depth k is thus raised
    through k times, about sum bits(m) depth(m) squarings in all, which a
    Huffman tree on the bit lengths of the parts makes least; separate
    powers would take about bits(P) squarings per part."""
    # a node is (bits, tie-break, indices of its parts, its two children)
    heap = [(m.bit_length(), i, (i,), ()) for i, m in enumerate(parts)]
    heapq.heapify(heap)
    tick = itertools.count(len(parts))
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        heapq.heappush(heap, (a[0] + b[0], next(tick), a[2] + b[2], (a, b)))
    out = [None] * len(parts)

    def walk(y, node):
        _, _, leaves, children = node
        if not children:
            out[leaves[0]] = y
            return
        left, right = children
        walk(power(y, math.prod(parts[i] for i in right[2])), left)
        walk(power(y, math.prod(parts[i] for i in left[2])), right)

    if heap:
        walk(x, heap[0])
    return out


def multiplicative_order(modulus_order: FactoredInt, x, power, is_one) -> FactoredInt:
    """Order of x in a group whose exponent divides N = modulus_order.

    power(y, n) must return y^n and is_one(y) tell whether y is the
    identity.  For each prime power l^e of N, y = x^(N / l^e) comes from one
    product tree (_cofactor_powers) and is raised by l until it is the
    identity; the count of steps is the exponent of l in the order.  Every
    such y reaches x^N after e steps, so x^N = 1 is checked once, in the
    leaf of the least l^e: there, reaching e steps without the identity
    raises CheckFailed.  Every other leaf stops after e - 1 steps.
    """
    exps = modulus_order.factors
    primes = sorted(exps)
    parts = [prime**exps[prime] for prime in primes]
    check = parts.index(min(parts)) if parts else None
    if not parts and not is_one(x):
        raise CheckFailed("x is not the identity in a group of order 1")
    order = {}
    for i, (prime, y) in enumerate(zip(primes, _cofactor_powers(x, parts, power))):
        e, k = exps[prime], 0
        while not is_one(y):
            if k == e:
                raise CheckFailed(f"x^{modulus_order.value_unchecked()} is not the identity")
            k += 1
            if k == e and i != check:
                break  # y^(l^e) = x^N, the identity by the check leaf
            y = power(y, prime)
        order[prime] = k
    return FactoredInt(order)
