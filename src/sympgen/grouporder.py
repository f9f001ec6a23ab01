"""Group orders, element orders, prime-divisor sets, and closure oracles.

|Sp_2n(q)| and |SL_n(q)| are kept factored; every q^d - 1 term is factored
through its cyclotomic decomposition so nothing large ever reaches the
integer-factoring backend.

An element order is one order search (factorint.multiplicative_order;
Sutherland, Order computations in generic groups, 2007, ch. 7) of t in
the ring F_q[t]/(a_k), under an exponent bound read off the
characteristic polynomial chi, split no further than its squarefree parts
(P, m) and their distinct-degree pieces.  The order of t modulo an
irreducible of degree d divides q^d - 1 (Lidl & Niederreiter, Finite
Fields, 3.1), so the semisimple part of g has an order dividing the lcm of
q^d - 1 over the degrees d of the pieces.  The p-part is set by the
longest Jordan block (Celler & Leedham-Green, Calculating the order of an
invertible matrix, DIMACS Series 28, 1997): no Jordan block for a factor
is longer than its multiplicity m, so a_k = prod P^min(m, p^k) kills g iff
p^k is at least the longest block, and once p^k reaches the largest
multiplicity, a_k = chi.  With the least such k (_annihilator), the bound
is G = lcm_d (q^d - 1) p^k.

Once a_k(g) = 0 is checked, g^j = r_j(g) for the residue r_j = t^j mod
a_k, so residues stand in for the powers of g, and the search tests each
one it reaches on g itself.  Neither the split of chi nor the bound is
trusted: a bound that ord(g) does not divide leaves g^G != I and raises
CheckFailed, and any other bound gives the exact order.

What depends on chi alone is made once per chi and shared by every g with
that chi (_split, a functools.lru_cache of _SPLITS entries): the squarefree
parts and their distinct-degree pieces, the semisimple bound lcm_d (q^d - 1),
the candidates a_0 .. a_K, and per candidate a _Search, made on first use:
its poly._Ring (the ring of a part that the distinct-degree split made is
kept when that part is a candidate), and the powers and residue
polynomials of the search, memoized on the exact residue.  The powers of
a search depend only on chi and k: the product tree raises t by the
cofactors of the bound, and each leaf raises its residue by its prime.  So
a g whose chi and k were seen before forms no product in the ring.
Matrices that share chi need not share their Jordan blocks, so everything
that reads g runs on every call: the spin, the witness checks that pick k,
and the identity tests of the search on g's own witnesses.  A wrong split
still cannot give a wrong order, and a memo keyed on the exact residue and
exponent cannot give a wrong power.

chi and the witnesses come from one Keller-Gehrig spin of g (matrix._spin;
Keller-Gehrig, Fast algorithms for the characteristic polynomial, TCS 36,
1985): e_1 and then each e_i whose column holds no pivot yet, with the
Krylov vectors g^j e_i of each, unreduced.  Its product chi = prod rho_i
is formed once per field and multiset of the rho_i (matrix._chi).  Every
check reads on those vectors, and no r(g) is formed in full.  A
polynomial r(g) commutes with g, so r(g) g^j e_i = g^j r(g) e_i: as the
g^j e_i of the witnesses span V, r(g) = 0 iff every r(g) e_i = 0, and
r(g) = I iff every r(g) e_i = e_i.  The span is the one output of the spin
that is trusted; chi is not, since a_k(g) e_i = 0 is checked on vectors
made from g itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import count, takewhile

from .errors import (BadParam, CheckFailed, MixedFields, NotSquare, ShapeMismatch,
                     SingularMatrix)
from .factorint import FactoredInt, factor_q_pow_minus_one, multiplicative_order
from .gf import _Memo, _split_prime_power
from .matrix import Mat, _combiner, _spin
from .poly import Poly, _distinct_degree, _Ring, _squarefree_decomposition


class PrimeSet:
    """A sorted set of primes with set semantics."""

    __slots__ = ("primes",)

    def __init__(self, primes=()):
        self.primes = tuple(sorted(set(primes)))

    @classmethod
    def of(cls, fi: FactoredInt) -> "PrimeSet":
        return cls(fi.primes())

    def union(self, other: "PrimeSet") -> "PrimeSet":
        return PrimeSet(self.primes + other.primes)

    def issubset(self, other: "PrimeSet") -> bool:
        return set(self.primes) <= set(other.primes)

    def __eq__(self, other):
        return isinstance(other, PrimeSet) and self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def __repr__(self):
        return "{" + ", ".join(str(p) for p in self.primes) + "}"

    def to_json(self):
        return list(self.primes)


def order_sp(n: int, q: int) -> FactoredInt:
    """|Sp_2n(q)| = q^{n^2} * prod_{i=1..n} (q^{2i} - 1), factored."""
    if n < 1 or q < 2:
        raise BadParam("need n >= 1 and a prime power q")
    p, f = _split_prime_power(q)
    result = FactoredInt._make({p: f * n * n})
    for i in range(1, n + 1):
        result = result * factor_q_pow_minus_one(p, f * 2 * i)
    return result


def order_sl(n: int, q: int) -> FactoredInt:
    """|SL_n(q)| = q^{n(n-1)/2} * prod_{i=2..n} (q^i - 1), factored."""
    if n < 1 or q < 2:
        raise BadParam("need n >= 1 and a prime power q")
    p, f = _split_prime_power(q)
    result = FactoredInt._make({p: f * n * (n - 1) // 2})
    for i in range(2, n + 1):
        result = result * factor_q_pow_minus_one(p, f * i)
    return result


_SPLITS = 256  # characteristic polynomials whose _split element_order keeps


@dataclass(frozen=True)
class _Split:
    """What element_order reads off chi alone: the semisimple bound
    lcm_d (q^d - 1) over the degrees d of the distinct-degree pieces of chi's
    squarefree parts (P, m), the candidates a_k = prod P^min(m, p^k) for
    k = 0 .. K, the least K with p^K at least the largest m (so a_K = chi),
    and searches[a], the _Search of a candidate a, made on first lookup."""

    bound: FactoredInt
    candidates: tuple
    searches: _Memo


class _Search:
    """The ring work of the order searches in F_q[t]/(a) for one candidate
    a: the ring (poly._Ring), the residue t of t, and powers[y, n] =
    ring.pow(y, n) and polys[y] = ring.poly(y), each made once per exact
    key."""

    __slots__ = ("ring", "t", "powers", "polys")

    def __init__(self, ring: _Ring):
        self.ring, self.t = ring, ring.elem(Poly.t(ring.mod.field))
        self.powers = _Memo(lambda yn: ring.pow(*yn))
        self.polys = _Memo(ring.poly)


@functools.lru_cache(maxsize=_SPLITS)
def _split(chi: Poly) -> _Split:
    """The _Split of a monic chi; a ring the distinct-degree split made for
    a part that is also a candidate is kept, the others are dropped."""
    F = chi.field
    made = _Memo(_Ring)  # the parts still to split
    parts = _squarefree_decomposition(chi)
    bound = FactoredInt.one()
    for d in {d for part, _ in parts for _, d in _distinct_degree(part, made.__getitem__)}:
        bound = bound.lcm(factor_q_pow_minus_one(F.p, F.f * d))
    top = max((mult for _, mult in parts), default=1)
    candidates = tuple(
        math.prod((part ** min(mult, F.p ** k) for part, mult in parts), start=Poly.one(F))
        for k in range(next(k for k in count() if F.p ** k >= top) + 1))
    searches = _Memo(lambda a: _Search(_Ring(a)))
    searches.update((a, _Search(made[a])) for a in candidates if a in made)
    return _Split(bound, candidates, searches)


def _annihilator(g: Mat, split: _Split, step, krylov, witnesses):
    """(k, search, is_identity) for the least k with a_k(g) = 0, a_k the
    candidates of split (_Split), search = split.searches[a_k], and is_identity(r)
    tests r(g) = I for r of degree below deg a_k.

    step, krylov and witnesses come from the spin of g (matrix._spin):
    r(g) e_i is one _combiner of r's coefficients over the Krylov vectors
    krylov[i] = [g^j e_i], extended by step as a_k needs.  Each candidate
    is tried on the witnesses in turn, e_1 first, up to the first it leaves
    alive, and taken iff a_k(g) e_i = 0 on every one; is_identity(r) tests
    r(g) e_i = e_i on each.  If the last candidate, a_K = chi, does not kill
    g either, CheckFailed."""
    F, d = g.field, g.rows

    def killed(a, i):  # (r -> r(g) e_i, e_i) if a(g) e_i = 0, else None
        vecs = krylov[i]
        while len(vecs) <= a.degree:
            vecs.append(step(vecs[-1]))
        combine = _combiner(F, vecs[:a.degree + 1], d)
        return None if any(combine(a.coeffs)) else (combine, vecs[0])

    for k, a in enumerate(split.candidates):
        checks = list(takewhile(bool, (killed(a, i) for i in witnesses)))  # to the first alive
        if len(checks) == len(witnesses):
            return k, split.searches[a], lambda r: all(
                combine(r.coeffs) == e for combine, e in checks)
    raise CheckFailed("g is not a root of its characteristic polynomial")


def element_order(g: Mat) -> FactoredInt:
    """Exact order of an invertible matrix: one multiplicative_order of t in
    F_q[t]/(a_k), a_k | chi the least annihilator of g (_annihilator), with
    the exponent bound lcm_d (q^d - 1) p^k over the degrees d of chi's
    distinct-degree pieces, and every identity test read on g's witnesses.

    The split of chi, the bound lcm_d (q^d - 1), the candidates a_k, their
    rings and the ring powers of each search are shared by every g with the
    same chi (_split); the spin, the checks that pick k and the identity
    tests of the search run on each call."""
    if not g.is_square():
        raise NotSquare("element order needs a square matrix")
    F = g.field
    cp, step, krylov, witnesses = _spin(g)
    if cp.coeffs[0] == 0:
        raise SingularMatrix("zero determinant")
    split = _split(cp)
    k, search, is_identity = _annihilator(g, split, step, krylov, witnesses)
    powers, polys = search.powers, search.polys
    return multiplicative_order(split.bound.lcm(FactoredInt._make({F.p: k})), search.t,
                                lambda y, n: powers[y, n], lambda r: is_identity(polys[r]))


def naive_element_order(g: Mat, cap: int = 10**4):
    """The least k <= cap with g^k = I, or None, by baby steps and giant
    steps on products, equality and hash alone (Shanks, Class number, a
    theory of factorization and genera, Proc. Symp. Pure Math. 20, 1971):
    the baby steps g^j -> j (j < m = isqrt(cap) + 1), then the giant steps
    g^(im) for i = 1, 2, ...  The first repeated power of an invertible g is
    I, at j = ord g; any other means g is singular.  Otherwise, for an
    invertible g, the first g^(im) equal to some g^j has im - j = ord g,
    which one product g^((i-1)m) g^(m-j) = I confirms: never for a singular g."""
    m = math.isqrt(cap) + 1
    baby, powers = {}, [Mat.identity(g.field, g.rows)]  # powers[j] = g^j, j <= m
    for j in range(m):
        if powers[j] in baby:
            return j if baby[powers[j]] == 0 else None
        baby[powers[j]] = j
        powers.append(powers[j] * g)
    ident, giant, before = powers[0], powers[m], powers[0]  # g^(im), g^((i-1)m)
    for i in range(1, (cap - 1) // m + 2):  # while im - (m - 1) <= cap
        j = baby.get(giant)
        if j is not None:
            return i * m - j if i * m - j <= cap and before * powers[m - j] == ident else None
        giant, before = giant * powers[m], giant
    return None


def varpi(g: Mat) -> PrimeSet:
    """Prime divisors of the order of g."""
    return PrimeSet.of(element_order(g))


def union_varpi(mats) -> PrimeSet:
    """Prime divisors of the orders of the matrices, together."""
    ps = PrimeSet()
    for m in mats:
        ps = ps.union(varpi(m))
    return ps


def varpi_group(kind: str, n: int, q: int) -> PrimeSet:
    if kind == "sp":
        return PrimeSet.of(order_sp(n, q))
    if kind == "sl":
        return PrimeSet.of(order_sl(n, q))
    raise BadParam(f"unknown group kind {kind}")


class Certificate(Enum):
    Certified = "Certified"
    ExceptionPossible = "ExceptionPossible"
    Inconclusive = "Inconclusive"


def lps_certificate(witnesses, target, obstruction_inconsistent=None) -> Certificate:
    """Prime-set generation certificate.

    target is ("sp", n, q) or ("sl", n, q).  For Sp with n and q both even,
    the prime-set equality alone leaves the Omega^- exception open; pass
    obstruction_inconsistent=True (no invariant quadratic form exists) to
    upgrade to Certified.
    """
    kind, n, q = target
    if kind == "sl":
        if n < 5 or (n, q) == (6, 2):
            raise BadParam("prime-set certificate needs SL_n, n >= 5, (n,q) != (6,2)")
    elif kind == "sp":
        if n < 4:
            raise BadParam("prime-set certificate needs Sp_2n, n >= 4")
    else:
        raise BadParam(f"unknown group kind {kind}")
    goal = varpi_group(kind, n, q)
    got = union_varpi(witnesses)
    if not got.issubset(goal):
        raise ShapeMismatch("witness order has primes outside the target group")
    if set(got) != set(goal):
        return Certificate.Inconclusive
    if kind == "sp" and n % 2 == 0 and q % 2 == 0:
        if obstruction_inconsistent is True:
            return Certificate.Certified
        return Certificate.ExceptionPossible
    return Certificate.Certified


OVERFLOW = "Overflow"


def closure_bfs(gens, cap: int = 5 * 10**6):
    """Exact size of the generated matrix group, or OVERFLOW past cap.

    A plain breadth-first search over the elements as tuples of row
    indices: each distinct row gets an int index on first sight, and each
    generator g keeps a _Memo from the index of a row to the index of its
    image under one matrix._combiner of g's rows.  A product m g looks up
    the image of each row index of m, so the combiner runs once per
    distinct row, not once per row of every element, and no row tuple is
    hashed again once it has its index.  Generators over different fields
    raise MixedFields."""
    if not gens:
        return 1
    F, shape = gens[0].field, (gens[0].rows, gens[0].cols)
    for g in gens:
        if g.field != F:
            raise MixedFields("generators over different fields")
        if (g.rows, g.cols) != shape or g.rows != g.cols:
            raise ShapeMismatch("generators must be square and same shape")
    rows = []  # index -> row

    def new_index(row):
        rows.append(row)
        return len(rows) - 1

    index = _Memo(new_index)  # row -> index

    def image_of(combine):
        return _Memo(lambda i: index[combine(rows[i])]).__getitem__

    images = [image_of(_combiner(F, g.data, g.cols)) for g in gens]
    ident = tuple(index[row] for row in Mat.identity(F, gens[0].rows).data)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for image in images:
                prod = tuple(map(image, m))
                if prod not in seen:
                    seen.add(prod)
                    if len(seen) > cap:
                        return OVERFLOW
                    new.append(prod)
        frontier = new
    return len(seen)
