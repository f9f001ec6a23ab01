"""Factored positive integers: the prime -> exponent map behind all order bookkeeping.

Group orders such as |Sp_28(7)| never need to exist as flat integers; they are
kept factored.  Cyclotomic decomposition q^d - 1 = prod_{e | d} Phi_e(q) keeps
every integer handed to factorize below 2^64 (_FLAT_LIMIT, the budget of
FactoredInt.value): a larger Phi_e(q) raises OutOfRange, since factoring
one can take seconds or more (Phi_59(5), Phi_41(25)).
Phi_e(q) itself is the integer prod_{d | e} (q^d - 1)^mu(e/d), with no
symbolic polynomial.

The integer functions are exact and need no package: is_prime is trial
division, then Miller-Rabin on the first k prime bases, which is exact below
psi_k (Jaeschke 1993; Sorenson & Webster, Strong pseudoprimes to twelve
prime bases, Math. Comp. 2017), and BPSW from psi_12 ~ 3.18e23 on (Baillie &
Wagstaff, Lucas pseudoprimes, Math. Comp. 1980).  factorize is trial
division, then Pollard-Brent rho (Brent, An improved Monte Carlo
factorization algorithm, BIT 1980) with the fixed constants c = 1, 2, ...,
so nothing here is random.  divisors and prime_factors read the
factorization.

multiplicative_order works in any group given its power map: the powers
x^(N / l^e) for all prime powers l^e of N come from one product tree
(_cofactor_powers, a Huffman tree on their bit lengths), and each is then
raised by l until it is the identity (Sutherland, Order computations in
generic groups, PhD thesis, MIT 2007, ch. 7).  A group order that x^N does
not reach raises CheckFailed.  It is the one order search of the package:
gf's multiplicative orders and grouporder's element orders both call it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

from .errors import CheckFailed, OutOfRange

_FLAT_LIMIT = 1 << 64
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97)
# an n with no factor below 100 is prime below 101^2
_TRIAL_LIMIT = 101 * 101
# (psi_k, k): Miller-Rabin on the first k primes is exact below psi_k (OEIS
# A014233); psi_7 = psi_8 and psi_9 = psi_10 = psi_11
_MR_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (318665857834031151167461, 12))
# rho steps between two gcds
_RHO_BATCH = 128


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin: n odd, > every base, passes the strong test to each."""
    m = n - 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a, result = a % n, 1
    while a:
        twos = (a & -a).bit_length() - 1
        a = a >> twos
        if twos & 1 and n % 8 in (3, 5):
            result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters: the first D of 5,
    -7, 9, -11, ... with (D / n) = -1, P = 1, Q = (1 - D) / 4.  For n odd,
    not a square and free of small factors.  In Z_n[x]/(x^2 - x + Q),
    x^k = -Q U_(k-1) + U_k x, and V_k = U_k - 2Q U_(k-1)."""
    from .gf import _power  # gf imports this module

    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a factor with n > |D|
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    if math.gcd(n, Q) > 1:
        return False

    def mul(u, v):
        (a, b), (c, e) = u, v
        be = b * e
        return (a * c - Q * be) % n, (a * e + b * c + be) % n

    # n + 1 = d 2^s: n passes if U_d = 0 or V_(d 2^r) = 0 for some r < s
    m = n + 1
    s = (m & -m).bit_length() - 1
    a, b = _power((0, 1), m >> s, mul, (1, 0))
    if b == 0:
        return True
    for _ in range(s - 1):
        if (2 * a + b) % n == 0:
            return True
        a, b = mul((a, b), (a, b))
    return (2 * a + b) % n == 0


def is_prime(n: int) -> bool:
    """Whether n is prime: trial division by the primes below 100, then
    Miller-Rabin on the fewest first prime bases that are exact for n (all
    n below psi_12), and BPSW from psi_12 on."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_LIMIT:
        return True
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return _strong_probable_prime(n, _SMALL_PRIMES[:k])
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _integer_root(n: int, k: int) -> int:
    """The floor of the k-th root of n >= 0, by Newton's method from above."""
    if k == 1 or n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho(n: int) -> int:
    """A proper factor of the composite n, which has no factor below 100:
    Pollard-Brent rho on x -> x^2 + c for c = 1, 2, ..., each step's
    difference multiplied into one gcd per _RHO_BATCH steps."""
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch passed the collision: step from its start
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """n >= 1 as {prime: exponent}, primes ascending: trial division by the
    primes below 100, then Pollard-Brent rho; OutOfRange from 2^64 on."""
    if n < 1:
        raise ValueError("factorize requires a positive integer")
    if n >= _FLAT_LIMIT:
        raise OutOfRange(f"{n} has {n.bit_length()} bits, past the 64-bit "
                         "factoring budget")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            g = _rho(m)
            stack += [g, m // g]
    return dict(sorted(factors.items()))


def prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending."""
    return list(factorize(n))


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


class FactoredInt:
    """A positive integer stored as a map prime -> exponent >= 1."""

    __slots__ = ("factors",)

    def __init__(self, factors=None):
        factors = dict(factors or {})
        for prime, exp in factors.items():
            if exp < 0:
                raise ValueError(f"negative exponent for {prime}")
            if exp >= 1 and not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
        self.factors = {p: e for p, e in sorted(factors.items()) if e >= 1}

    @classmethod
    def _make(cls, factors) -> "FactoredInt":
        """Trusted constructor: every key with exponent >= 1 is known to be
        prime, so none is tested again."""
        result = object.__new__(cls)
        result.factors = {p: e for p, e in sorted(factors.items()) if e >= 1}
        return result

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
        return FactoredInt._make(merged)

    def lcm(self, other: "FactoredInt") -> "FactoredInt":
        merged = dict(self.factors)
        for prime, exp in other.factors.items():
            merged[prime] = max(merged.get(prime, 0), exp)
        return FactoredInt._make(merged)

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
    exps = factorize(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def _phi(e: int, q: int) -> int:
    """Phi_e(q) = prod_{d | e} (q^d - 1)^mu(e/d), in integers."""
    num = den = 1
    for d in divisors(e):
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
    return tuple(factorize(value).items())


@functools.lru_cache(maxsize=None)
def factor_q_pow_minus_one(q: int, d: int) -> FactoredInt:
    """q^d - 1 factored via the cyclotomic product over divisors of d."""
    if q < 2 or d < 1:
        raise ValueError("need q >= 2, d >= 1")
    result: dict[int, int] = {}
    for e in divisors(d):
        for prime, exp in _phi_factors(e, q):
            result[prime] = result.get(prime, 0) + exp
    return FactoredInt._make(result)


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
    """Order of x, for N = modulus_order a multiple of it, such as the
    exponent of x's group; x^N = 1 is checked, not trusted.

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
    return FactoredInt._make(order)
