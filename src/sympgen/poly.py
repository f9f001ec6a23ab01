"""Univariate polynomials over a FieldCtx.

Coefficients are packed field values, constant term first, no trailing
zeros.  Factorization is squarefree decomposition, then distinct-degree,
then equal-degree splitting (Cantor-Zassenhaus, with the additive trace-map
variant in characteristic 2); the splitting randomness is a PRNG seeded
from the polynomial's bytes so output order is reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sympy

from .errors import BadParam, MixedFields, ZeroPolynomial
from .gf import FieldCtx, FieldElem


class Poly:
    """Polynomial over a FieldCtx; immutable value semantics."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs):
        vals = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                if c.ctx != field:
                    raise MixedFields("coefficient from a different field")
                vals.append(c.val)
            else:
                vals.append(field.scalar(c))
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def t(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def parse(cls, field, text: str) -> "Poly":
        """Parse the "c0,c1,...,cd" text form."""
        return cls(field, [int(c) for c in text.split(",")])

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        F = self.field
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = F.elem_string(c)
            if i == 0:
                parts.append(cs)
            else:
                var = "t" if i == 1 else f"t^{i}"
                parts.append(var if cs == "1" else f"({cs})*{var}")
        return "Poly(" + " + ".join(parts) + ")"

    @property
    def text(self) -> str:
        return ",".join(self.field.elem_string(c) for c in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise MixedFields("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        return Poly(F, [F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                        for i in range(n)])

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            return self.scale(other)
        self._check(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        res = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        mul, add = F.mul, F.add
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    res[i + j] = add(res[i + j], mul(ai, bj))
        return Poly(F, res)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        F = self.field
        cv = F.scalar(c)
        return Poly(F, [F.mul(cv, x) for x in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.lead()))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = F.inv(other.lead())
        quo = [0] * max(len(rem) - d, 0)
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            coef = F.mul(rem[-1], lead_inv)
            shift = len(rem) - 1 - d
            quo[shift] = coef
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = F.sub(rem[shift + i], F.mul(coef, oc))
            rem.pop()
        return Poly(F, quo), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise BadParam("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def powmod(self, e: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.field)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(F, [F.mul((i % F.p), c) for i, c in enumerate(self.coeffs)][1:])

    def eval(self, b) -> FieldElem:
        """Horner evaluation at b (a FieldElem or coercible int)."""
        F = self.field
        bv = F.scalar(b)
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, bv), c)
        return FieldElem(F, acc)

    def reciprocal(self) -> "Poly":
        return Poly(self.field, tuple(reversed(self.coeffs)))

    def map_coeffs(self, fn, new_field) -> "Poly":
        return Poly(new_field, [fn(FieldElem(self.field, c)) for c in self.coeffs])


@dataclass(frozen=True)
class Factorization:
    """Monic irreducible factors with multiplicities, unit pulled out front."""

    unit: FieldElem
    factors: tuple  # tuple of (Poly, multiplicity), deterministic order

    def product(self) -> Poly:
        F = self.unit.ctx
        result = Poly(F, (self.unit,))
        for fac, mult in self.factors:
            result = result * fac**mult
        return result

    def __iter__(self):
        return iter(self.factors)


def is_self_reciprocal(p: Poly) -> bool:
    """True iff t^deg * p(1/t), normalized, equals p (even degree required)."""
    if p.is_zero() or p.degree % 2 != 0 or p.coeffs[0] == 0:
        return False
    return p.reciprocal().monic() == p.monic()


def is_irreducible(p: Poly) -> bool:
    """Rabin irreducibility test over F_q."""
    if p.degree < 1:
        return False
    if p.degree == 1:
        return True
    F = p.field
    q = F.q
    mod = p.monic()
    t = Poly.t(F)
    n = p.degree
    for r in {n // d for d in sympy.primefactors(n)}:
        h = t.powmod(q**r, mod)
        if mod.gcd(h - t).degree > 0:
            return False
    h = t.powmod(q**n, mod)
    return (h - t) % mod == Poly.zero(F)


def _squarefree_decomposition(p: Poly):
    """Yield (squarefree factor, multiplicity); handles p-th power collapse."""
    F = p.field
    char = F.p
    out = []

    def recurse(f: Poly, base_mult: int):
        if f.degree < 1:
            return
        d = f.derivative()
        if d.is_zero():
            # f = g(t^char); take the char-th root coefficientwise
            root = Poly(F, [F.pow(c, F.q // char) for c in f.coeffs[::char]])
            recurse(root, base_mult * char)
            return
        # Yun-style pass
        g = f.gcd(d)
        w = f // g
        mult = 1
        while w.degree > 0:
            y = w.gcd(g)
            z = w // y
            if z.degree > 0:
                out.append((z.monic(), base_mult * mult))
            w = y
            g = g // y
            mult += 1
        if g.degree > 0:
            recurse(g, base_mult)

    recurse(p.monic(), 1)
    return out


def _distinct_degree(p: Poly):
    """Split a squarefree monic polynomial into (product, degree) pieces."""
    F = p.field
    q = F.q
    out = []
    t = Poly.t(F)
    h = t
    f = p
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = h.powmod(q, f)
        g = f.gcd(h - t)
        if g.degree > 0:
            out.append((g, d))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree_split(p: Poly, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles."""
    F = p.field
    if p.degree == d:
        return [p]
    q = F.q
    while True:
        h = Poly(F, [rng.randrange(q) for _ in range(p.degree)])
        if h.degree < 1:
            continue
        g = p.gcd(h)
        if 0 < g.degree < p.degree:
            pass  # lucky gcd split
        elif F.p == 2:
            # additive trace map over F_{2^m}: T(h) = sum h^(2^i), i < m*d
            m = F.f
            acc = Poly.zero(F)
            cur = h % p
            for _ in range(m * d):
                acc = (acc + cur) % p
                cur = (cur * cur) % p
            g = p.gcd(acc)
            if not (0 < g.degree < p.degree):
                continue
        else:
            e = (q**d - 1) // 2
            g = p.gcd(h.powmod(e, p) - Poly.one(F))
            if not (0 < g.degree < p.degree):
                continue
        left = _equal_degree_split(g, d, rng)
        right = _equal_degree_split(p // g, d, rng)
        return left + right


def factor(p: Poly) -> Factorization:
    """Complete factorization into monic irreducibles, deterministic output."""
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    F = p.field
    unit = FieldElem(F, p.lead())
    seed = bytes(str((F.spec_string, p.coeffs)), "utf8")
    rng = random.Random(seed)
    pieces = []
    for sqfree, mult in _squarefree_decomposition(p):
        for prod, d in _distinct_degree(sqfree):
            for irr in _equal_degree_split(prod, d, rng):
                pieces.append((irr.monic(), mult))
    pieces.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit=unit, factors=tuple(pieces))
