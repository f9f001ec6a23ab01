"""Univariate polynomials over a FieldCtx.

Coefficients are packed field values, constant term first, no trailing
zeros.  The public constructor Poly(F, coeffs) takes FieldElems and ints
(integers mod p) and rejects a FieldElem from another field (MixedFields);
results of the ring operations are built by the trusted Poly._make(F, vals),
which takes packed values already in [0, q) and only strips trailing zeros.

Over a prime field, products run on packed slots (Kronecker substitution):
a coefficient list c_0..c_{k-1} becomes the one integer sum c_i 2^(8wi),
with slots of w bytes wide enough for every coefficient of the product, so
one big-int multiplication convolves two lists and each slot is reduced mod
p once after it.  powmod keeps its residues packed between steps: the top
d - 1 coefficients of each product fold back through the packed residues
of t^d .. t^(2d-2) modulo the degree-d modulus.  _pack and _unpack are the
one slot layout, shared with the packed rows of matrix._combiner.
Extension fields keep schoolbook arithmetic through FieldCtx.

Factorization is squarefree decomposition, then distinct-degree,
then equal-degree splitting (Cantor-Zassenhaus, with the additive trace-map
variant in characteristic 2); the splitting randomness is a PRNG seeded
from the polynomial's bytes so output order is reproducible.
"""

from __future__ import annotations

import functools
import operator
import random
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat

import sympy

from .errors import BadParam, MixedFields, ZeroPolynomial
from .gf import FieldCtx, FieldElem

# array typecode of each item size; 1-byte slots go through bytes, wider
# ones without a typecode through int.to_bytes
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIH"}
_SWAP = sys.byteorder == "big"  # slots are laid out little-endian


def _slot_width(bound: int) -> int:
    """Bytes per slot that hold any value up to bound: 1, 2, 4, 8 or more."""
    nbytes = max(1, (bound.bit_length() + 7) // 8)
    return next((w for w in (1, 2, 4, 8) if nbytes <= w), nbytes)


def _pack(vals, w: int) -> int:
    """sum(v_i * 2^(8*w*i)) for non-negative v_i below 2^(8*w)."""
    if w == 1:
        return int.from_bytes(bytes(vals), "little")
    code = _ARRAY_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join(v.to_bytes(w, "little") for v in vals), "little")
    arr = array(code, vals)
    if _SWAP:
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


@functools.lru_cache(maxsize=None)
def _byte_residues(p: int) -> bytes:
    return bytes(i % p for i in range(256))


def _unpack(n: int, k: int, w: int, p: int):
    """The k slots of w bytes of n >= 0, each reduced mod p (a sequence of ints)."""
    raw = n.to_bytes(k * w, "little")
    if w == 1:
        return raw.translate(_byte_residues(p))
    code = _ARRAY_CODES.get(w)
    if code is None:
        return [int.from_bytes(raw[i:i + w], "little") % p for i in range(0, k * w, w)]
    arr = array(code, raw)
    if _SWAP:
        arr.byteswap()
    return [v % p for v in arr]


class Poly:
    """Polynomial over a FieldCtx; immutable value semantics."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldCtx, coeffs):
        vals = [field.scalar(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.coeffs = tuple(vals)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, field: FieldCtx, vals) -> "Poly":
        """Trusted constructor: packed values in [0, q), taken unchecked;
        trailing zeros are stripped."""
        n = len(vals)
        while n and not vals[n - 1]:
            n -= 1
        poly = object.__new__(cls)
        poly.field = field
        poly.coeffs = tuple(vals[:n])
        return poly

    @classmethod
    def zero(cls, field):
        return cls._make(field, ())

    @classmethod
    def one(cls, field):
        return cls._make(field, (1,))

    @classmethod
    def t(cls, field):
        return cls._make(field, (0, 1))

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

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
        return Poly._make(F, [F.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                              for i in range(n)])

    def __neg__(self):
        F = self.field
        return Poly._make(F, [F.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            return self.scale(other)
        self._check(other)
        F = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(F)
        if F.is_prime_field:
            p = F.p
            w = _slot_width(min(len(a), len(b)) * (p - 1) ** 2)
            return Poly._make(F, _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w, p))
        res = [0] * (len(a) + len(b) - 1)
        mul, add = F.mul, F.add
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    res[i + j] = add(res[i + j], mul(ai, bj))
        return Poly._make(F, res)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return self._scale(self.field.scalar(c))

    def _scale(self, cv: int) -> "Poly":
        F = self.field
        return Poly._make(F, [F.mul(cv, x) for x in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self._scale(self.field.inv(self.lead()))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        F = self.field
        mul, sub = F.mul, F.sub
        rem, d = list(self.coeffs), other.degree
        low, lead_inv = other.coeffs[:d], F.inv(other.lead())
        quo = [0] * max(len(rem) - d, 0)
        for top in range(len(rem) - 1, d - 1, -1):  # rem[top] is cancelled, not stored
            if rem[top]:
                coef = quo[top - d] = mul(rem[top], lead_inv)
                rem[top - d:top] = map(sub, rem[top - d:top], map(mul, repeat(coef), low))
        return Poly._make(F, quo), Poly._make(F, rem[:d])

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
        if e < 0:
            raise BadParam("negative polynomial power")
        base = self % mod
        if self.field.is_prime_field and mod.degree >= 1:
            return _powmod_fp(base, e, mod)
        result = Poly.one(self.field)
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
        return Poly._make(F, [F.mul((i % F.p), c) for i, c in enumerate(self.coeffs)][1:])

    def eval(self, b) -> FieldElem:
        """Horner evaluation at b (a FieldElem or coercible int)."""
        F = self.field
        bv = F.scalar(b)
        mul, add = F.mul, F.add
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, bv), c)
        return FieldElem(F, acc)

    def reciprocal(self) -> "Poly":
        return Poly._make(self.field, self.coeffs[::-1])

    def map_coeffs(self, fn, new_field) -> "Poly":
        """The polynomial over new_field whose coefficients are fn(c), for fn
        taking a FieldElem to a FieldElem of new_field (or an int)."""
        return Poly(new_field, [fn(FieldElem(self.field, c)) for c in self.coeffs])


def roots(p: Poly):
    """The roots of p in its field, lazily, in ascending packed order."""
    return (b for b in p.field.elements() if not p.eval(b))


def _powmod_fp(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e modulo mod over F_p on packed slots; base reduced, deg mod >= 1."""
    F = mod.field
    p, d = F.p, mod.degree
    # a product's slots sum <= d terms; the fold adds d - 1 more to a low slot
    w = _slot_width((2 * d - 1) * (p - 1) ** 2)
    shift = 8 * w * d
    low = (1 << shift) - 1
    lead_inv = F.inv(mod.lead())
    r = [(-lead_inv * c) % p for c in mod.coeffs[:d]]  # t^d mod f
    folds = [r]
    for _ in range(d - 2):  # t^(j+1) = t * t^j, reduced through t^d
        top = folds[-1][-1]
        folds.append([(x + top * y) % p for x, y in zip([0] + folds[-1][:-1], r)])
    folds = [_pack(fold, w) for fold in folds]
    mul = operator.mul

    def mulmod(x, y):
        prod = x * y
        acc = (prod & low) + sum(map(mul, _unpack(prod >> shift, d - 1, w, p), folds))
        return _pack(_unpack(acc, d, w, p), w)

    result, b = 1, _pack(base.coeffs, w)
    while e:
        if e & 1:
            result = mulmod(result, b)
        e >>= 1
        if e:
            b = mulmod(b, b)
    return Poly._make(F, _unpack(result, d, w, p))


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
            root = Poly._make(F, [F.pow(c, F.q // char) for c in f.coeffs[::char]])
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
        # packed draws: h ranges over all of F_q, not only F_p, so that it
        # can split Frobenius-conjugate roots
        h = Poly._make(F, [rng.randrange(q) for _ in range(p.degree)])
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
