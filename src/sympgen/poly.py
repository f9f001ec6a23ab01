"""Univariate polynomials over a FieldCtx.

Coefficients are packed field values, constant term first, no trailing
zeros.  The public constructor Poly(F, coeffs) takes FieldElems and ints
(integers mod p) and rejects a FieldElem from another field (MixedFields);
results of the ring operations are built by the trusted Poly._make(F, vals),
which takes packed values already in [0, q) and only strips trailing zeros.

Products and the residue ring F_q[t]/(mod) run on packed digit slots over
every F_q, q = p^f (Kronecker substitution in t and in w at once).  A
coefficient c_i = d_0 + d_1 p + ... + d_{f-1} p^(f-1) of F_{p^f} puts its
base-p digits d_j, the coefficients of w^j, in slots i(2f - 1) + j of one
integer of byte-aligned slots (_digits, _pack); the f - 1 slots above them
stay 0, so one big-int multiplication convolves in t and in w and no two
terms overlap.  _digit_fold carries the slots w^f .. w^(2f-2) of every
coefficient back through the digits of w^j mod m(w), with no table, and
each slot is reduced mod p once after it (_unpack, _values).  The slots are
wide enough for _fold_bound: for lists whose shorter one has n
coefficients, a slot of the product sums at most n f (p - 1)^2 and the fold
adds at most n f (f - 1) / 2 (p - 1)^3.  Over F_p (f = 1) a value is its one
digit and there is nothing to fold.  _pack and _unpack are shared with the
packed rows of matrix._combiner, with gf.FieldCtx._walk and with
_root_exponents, which finds where sparse polynomials over F_p vanish at
every power of a generator at once (the parameter search of claims).
_unpack is the one reduction of packed slots: from 16 w slots of w bytes on
(the whole planes of the walk and the sieve, the longer ring elements) it
reduces byte planes where they fit, and below that each slot on its own.
_digits splits values into base-p digits for the products and the sieve.

_Ring(mod) is F_q[t]/(mod) on that layout: its elements are packed
residues, and a product also folds the top d - 1 coefficients back through
the packed w^j t^k modulo the degree-d modulus.  The ring builds its digit
fold and those rows once, so everything that works modulo one polynomial
keeps one ring: Poly.powmod (one ring per call), is_irreducible (one per
call), the distinct-degree split (one per part not yet split off), the
equal-degree split (one per product split), and grouporder's element
orders (one per annihilator candidate a_k that an order search runs in,
kept with the split of its characteristic polynomial chi across calls,
and shared with the distinct-degree split where a part is a candidate).
Its slots hold the sum of both folds (see _Ring).

Factorization is squarefree decomposition, then distinct-degree,
then equal-degree splitting (Cantor-Zassenhaus, with the additive trace-map
variant in characteristic 2); the splitting randomness is a PRNG seeded
from the polynomial's bytes so output order is reproducible.  Element
orders stop after the distinct-degree split and draw nothing at random.
"""

from __future__ import annotations

import functools
import operator
import random
import sys
from array import array
from dataclasses import dataclass
from itertools import chain, compress

from .errors import BadParam, MixedFields, ZeroPolynomial
from .factorint import prime_factors
from .gf import FieldCtx, FieldElem, _power

# array typecode of each item size; 1-byte slots go through bytes, wider
# ones without a typecode through int.to_bytes
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIH"}
_SWAP = sys.byteorder == "big"  # slots are laid out little-endian


# slot width in bytes for a bound of 0 .. 8 bytes; wider bounds keep their size
_WIDTHS = (1, 1, 2, 4, 4, 8, 8, 8, 8)


def _slot_width(bound: int) -> int:
    """Bytes per slot that hold any value up to bound: 1, 2, 4, 8 or more."""
    nbytes = (bound.bit_length() + 7) // 8
    return _WIDTHS[nbytes] if nbytes <= 8 else nbytes


def _pack(vals, w: int) -> int:
    """sum(v_i * 2^(8*w*i)) for non-negative v_i below 2^(8*w).  A bytes vals
    holds one value per byte, and is widened to w-byte slots by one slice
    assignment (array(code, bytes) would read its raw bytes instead)."""
    if w == 1:
        return int.from_bytes(bytes(vals), "little")
    if isinstance(vals, bytes):
        raw = bytearray(len(vals) * w)
        raw[::w] = vals
        return int.from_bytes(raw, "little")
    code = _ARRAY_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join(v.to_bytes(w, "little") for v in vals), "little")
    arr = array(code, vals)
    if _SWAP:
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


@functools.lru_cache(maxsize=None)
def _byte_residues(p: int, j: int = 0) -> bytes:
    """The translation table b -> b * 256^j mod p of a byte j of a slot."""
    scale = pow(256, j, p)
    return bytes(b * scale % p for b in range(256))


def _slots(n: int, k: int, w: int):
    """The k slots of w bytes of n >= 0 as they are (a sequence of ints)."""
    raw = n.to_bytes(k * w, "little")
    if w == 1:
        return raw
    code = _ARRAY_CODES.get(w)
    if code is None:
        return [int.from_bytes(raw[i:i + w], "little") for i in range(0, k * w, w)]
    arr = array(code, raw)
    if _SWAP:
        arr.byteswap()
    return arr


def _unpack(n: int, k: int, w: int, p: int):
    """The k slots of w bytes of n >= 0, each reduced mod p (a sequence of
    ints: bytes from a byte translation, else a list).  Below 16 w slots,
    or where w (p - 1) > 255, each slot is reduced on its own.  Otherwise
    every byte j of every slot is translated at once to its residue of
    b * 256^j, the w byte planes add as ints with no carry between slots,
    and one more translation reduces the sum.  Byte planes win from about
    40 two-byte, 64 four-byte and 128 eight-byte slots."""
    if w == 1:
        return n.to_bytes(k, "little").translate(_byte_residues(p))
    if k < 16 * w or w * (p - 1) > 255:
        return [v % p for v in _slots(n, k, w)]
    raw = n.to_bytes(k * w, "little")
    total = sum(int.from_bytes(raw[j::w].translate(_byte_residues(p, j)), "little")
                for j in range(w))
    return total.to_bytes(k, "little").translate(_byte_residues(p))


_ZERO_BYTES = bytes([1]) + bytes(255)  # 1 for a zero byte, 0 otherwise


def _stride(plane, k: int):
    """[plane[k i % m] for i in range(m)], m = len(plane), 0 <= k < m, of the
    plane's type (bytes or list): the k slices of stride k that the reads
    wrap through, or m - k slices of the plane read backwards
    (plane[-i % m]) when k > m / 2."""
    m = len(plane)
    if 2 * k > m:
        plane, k = plane[:1] + plane[:0:-1], m - k
    if not k:
        return plane[:1] * m
    slices = (plane[-m * s % k::k] for s in range(k))
    return b"".join(slices) if isinstance(plane, bytes) else list(chain.from_iterable(slices))


def _root_exponents(powers, p: int, f: int, polys):
    """The exponents i < m = len(powers), ascending, at which some polynomial
    of polys vanishes at powers[i] = g^i, for g of order m in F_{p^f}.  Each
    polynomial is over F_p, given as (k, c) terms: exponents k >= 0 and
    integer coefficients c, read mod p.

    P = sum c_k t^k has P(g^i) = sum c_k g^(k i mod m), so the term of
    exponent k is each plane of the powers read at k i mod m, every i at
    once (_stride), packed once per exponent; a polynomial's values are one
    big-int sum of its terms per plane.  In characteristic 2 every
    coefficient is 1 and packed values add by XOR, so the one plane holds
    the powers themselves, an item of W bytes each.  For odd p plane j is
    slice j of the digit-slot layout of the powers (_digits): base-p digit j
    of each power, in slots wide enough for the most terms times (p - 1)^2,
    and each slot is reduced mod p once (_unpack).  For p < 256 a digit fits
    a byte and each plane is bytes, so a read is sliced and joined as bytes
    and widened to its slots by one slice assignment (_pack); the powers of
    characteristic 2 and the digits of a larger p stay lists.
    P(g^i) = 0 exactly where item i of every plane reads 0."""
    m = len(powers)
    terms = [[(k % m, c % p) for k, c in poly if c % p] for poly in polys]
    if p == 2:
        w, W = 1, _slot_width(max(powers))
        planes = [powers]
    else:
        w = W = _slot_width(max(map(len, terms), default=0) * (p - 1) ** 2)
        digits = _digits(powers, p, f)
        if p < 256:
            digits = bytes(digits)
        planes = [digits[j::2 * f - 1] for j in range(f)]
    slots = W // w  # per item: the bytes of a value in characteristic 2, else 1
    reads = {}  # exponent -> its read of every plane, packed
    vanish = 0  # byte i is 1 where some polynomial vanishes at g^i
    for poly in terms:
        sums = [0] * len(planes)
        for k, c in poly:
            read = reads.get(k)
            if read is None:
                read = reads[k] = [_pack(_stride(plane, k), W) for plane in planes]
            if p == 2:
                sums = list(map(operator.xor, sums, read))
            else:
                sums = [a + c * r for a, r in zip(sums, read)]
        flags = 0  # a nonzero byte for each nonzero slot
        for a in sums:
            if p != 2:
                a = _unpack(a, m, w, p)
                a = int.from_bytes(a if isinstance(a, bytes) else bytes(map(bool, a)),
                                   "little")
            flags |= a
        # byte 0 of item i becomes the OR of its slots' flags
        folded = flags
        for j in range(1, slots):
            folded |= flags >> 8 * j
        vanish |= int.from_bytes(
            folded.to_bytes(m * slots, "little")[::slots].translate(_ZERO_BYTES), "little")
    return list(compress(range(m), vanish.to_bytes(m, "little")))


def _digits(vals, p: int, f: int):
    """The digit-slot layout of packed values of F_{p^f}: value i puts its f
    base-p digits in slots i(2f - 1) .. i(2f - 1) + f - 1 and 0 in the f - 1
    slots above them.  Over F_p a value is its one digit: vals as they are."""
    if f == 1:
        return vals
    s = 2 * f - 1
    out = [0] * (len(vals) * s)
    for j in range(f - 1):
        out[j::s] = [v % p for v in vals]
        vals = [v // p for v in vals]
    out[f - 1::s] = vals
    return out


def _values(digits, p: int, f: int):
    """Packed values from digit slots reduced mod p: the inverse of _digits."""
    if f == 1:
        return digits
    s = 2 * f - 1
    vals = digits[f - 1::s]
    for j in range(f - 2, -1, -1):
        vals = [v * p + dj for v, dj in zip(vals, digits[j::s])]
    return vals


def _fold_bound(n: int, p: int, f: int) -> int:
    """The largest slot w^k (k < f) of a product of two lists of n digit-slot
    coefficients, after the digit fold.  Slot w^j sums n min(j + 1, 2f - 1 - j)
    terms of (p - 1)^2 (at most n f for j < f); the fold adds slot w^j times
    a digit below p for each j = f .. 2f - 2, and those slots sum
    n f (f - 1) / 2 terms."""
    return n * (p - 1) ** 2 * (f + (p - 1) * f * (f - 1) // 2)


def _digit_fold(F: FieldCtx, w: int, blocks: int):
    """fold(x) for x in the digit-slot layout of w-byte slots with the given
    number of coefficient blocks: each block's slots w^f .. w^(2f-2) carried
    into its slots w^0 .. w^(f-1) through the digits of w^j mod m(w), in
    f - 1 steps of mask, shift and small multiply (see _fold_bound).  Over
    F_p there is no such slot and fold(x) is x."""
    p, f = F.p, F.f
    if f == 1:  # no slot above w^0
        return lambda x: x
    s, bits = 2 * f - 1, 8 * w
    first = int.from_bytes((b"\xff" * w + bytes(w * (s - 1))) * blocks, "little")
    # slot w^j of each block moves to slot 0, then times (w^j mod m) - w^j
    steps = [(bits * j, _pack(F.coeffs(F.pow(p, j)), w) - (1 << bits * j))
             for j in range(f, s)]

    def fold(x):
        for shift, r in steps:
            x += (x >> shift & first) * r
        return x
    return fold


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
        p, f = F.p, F.f
        n = len(a) + len(b) - 1
        w = _slot_width(_fold_bound(min(len(a), len(b)), p, f))
        prod = _pack(_digits(a, p, f), w) * _pack(_digits(b, p, f), w)
        digits = _unpack(_digit_fold(F, w, n)(prod), n * (2 * f - 1), w, p)
        return Poly._make(F, _values(digits, p, f))

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
        rem = list(self.coeffs)
        quo = _divide(self.field, rem, other.coeffs)
        return Poly._make(self.field, quo), Poly._make(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise BadParam("negative polynomial power")
        return _power(self, e, operator.mul, Poly.one(self.field))

    def powmod(self, e: int, mod: "Poly") -> "Poly":
        if e < 0:
            raise BadParam("negative polynomial power")
        if mod.degree < 1:  # a residue mod a unit is 0; x^0 is 1 as everywhere
            rem = self % mod  # raises ZeroPolynomial for mod = 0, whatever e
            return rem if e else Poly.one(self.field)
        ring = _Ring(mod)
        return ring.poly(ring.pow(ring.elem(self), e))

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd (0 for two zeros), by Euclid on coefficient lists."""
        self._check(other)
        F, a, b = self.field, list(self.coeffs), list(other.coeffs)
        while b:
            _divide(F, a, b)
            a, b = b, a
        return Poly._make(F, a).monic()

    def derivative(self) -> "Poly":
        F = self.field
        return Poly._make(F, [F.mul((i % F.p), c) for i, c in enumerate(self.coeffs)][1:])

    def eval(self, b) -> FieldElem:
        """The value at b (a FieldElem or coercible int), by _eval."""
        F = self.field
        return FieldElem(F, self._eval(F.scalar(b)))

    def _eval(self, v: int) -> int:
        """Horner evaluation at the packed value v: a packed value."""
        F = self.field
        mul, add = F.mul, F.add
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, v), c)
        return acc

    def reciprocal(self) -> "Poly":
        return Poly._make(self.field, self.coeffs[::-1])

    def map_coeffs(self, fn, new_field) -> "Poly":
        """The polynomial over new_field whose coefficients are fn(c), for fn
        taking a FieldElem to a FieldElem of new_field (or an int)."""
        return Poly(new_field, [fn(FieldElem(self.field, c)) for c in self.coeffs])


def _divide(F: FieldCtx, rem: list, div) -> list:
    """Long division of the coefficient list rem by div (nonzero, no
    trailing zeros), one axpy per step from the top coefficient down: rem
    becomes the remainder, with no trailing zeros, and the quotient is returned."""
    d = len(div) - 1
    mul, neg, axpy = F.mul, F.neg, F.axpy
    low, lead_inv = div[:d], F.inv(div[d])
    quo = [0] * max(len(rem) - d, 0)
    for top in range(len(rem) - 1, d - 1, -1):
        if rem[top]:
            coef = quo[top - d] = mul(rem[top], lead_inv)
            rem[top - d:top] = axpy(neg(coef), low, rem[top - d:top])
    del rem[d:]  # the cancelled coefficients, never stored
    while rem and not rem[-1]:
        rem.pop()
    return quo


def roots(p: Poly):
    """The roots of p in its field, lazily, in ascending packed order."""
    F = p.field
    return (FieldElem(F, v) for v in range(F.q) if not p._eval(v))


class _Ring:
    """F_q[t]/(mod) on packed digit slots, for a modulus of degree d >= 1.

    An element is a residue packed as d blocks of 2f - 1 slots (see
    _digits).  Every element is reduced, slot by slot, so equal residues are
    equal ints and the residue 1 is the int 1.  The digit fold and the rows
    of w^j t^k mod mod (k = d .. 2d - 2, j < f) are built here, once per
    modulus: a ring kept for a modulus pays that set-up once for all its
    products and powers.

    A product of two elements has 2d - 1 blocks, and after the digit fold a
    slot holds at most _fold_bound(d, p, f).  The top d - 1 blocks are then
    unpacked mod p and fold back through the packed w^j t^k rows, which adds
    at most (d - 1) f (p - 1)^2 to a low slot.  So the slots are wide enough
    for the sum of both; over F_p that is (2d - 1)(p - 1)^2.
    """

    __slots__ = ("mod", "_p", "_f", "_w", "_slots", "_fold", "_shift", "_low", "_folds")

    def __init__(self, mod: Poly):
        F = mod.field
        p, f, d = F.p, F.f, mod.degree
        s = 2 * f - 1
        w = _slot_width(_fold_bound(d, p, f) + (d - 1) * f * (p - 1) ** 2)
        bits, fold = 8 * w, _digit_fold(F, w, 2 * d - 1)
        shift = bits * s * d
        low = (1 << shift) - 1
        self.mod, self._p, self._f, self._w, self._slots = mod, p, f, w, d * s
        self._fold, self._shift, self._low = fold, shift, low

        # row holds w^j t^k mod mod for j < f, from k = d: t^d from mod, each
        # w^(j+1) by one slot shift and a digit fold, each t^(k+1) by one block
        # shift and a fold of the top block through the row of t^d
        scale = F.neg(F.inv(mod.lead()))
        row = [_pack(_digits([F.mul(scale, c) for c in mod.coeffs[:d]], p, f), w)]
        for _ in range(f - 1):
            row.append(self._reduce(fold(row[-1] << bits)))
        t_d, folds = row, []
        for k in range(d, 2 * d - 1):
            folds += row + [0] * (f - 1)
            if k < 2 * d - 2:
                row = [self._reduce((x << bits * s & low) + sum(
                    map(operator.mul, _unpack(x >> shift - bits * s, f, w, p), t_d)))
                       for x in row]
        self._folds = folds

    def _reduce(self, x: int) -> int:
        """x with each of its d blocks' slots reduced mod p."""
        return _pack(_unpack(x, self._slots, self._w, self._p), self._w)

    def elem(self, poly: Poly) -> int:
        """The packed residue of poly."""
        return _pack(_digits((poly % self.mod).coeffs, self._p, self._f), self._w)

    def mul(self, x: int, y: int) -> int:
        folds = self._folds
        prod = self._fold(x * y)
        acc = (prod & self._low) + sum(
            map(operator.mul, _unpack(prod >> self._shift, len(folds), self._w, self._p), folds))
        return self._reduce(acc)

    def pow(self, x: int, e: int) -> int:
        return _power(x, e, self.mul, 1)

    def poly(self, x: int) -> Poly:
        """The residue x as a Poly of degree below d."""
        p, f = self._p, self._f
        return Poly._make(self.mod.field, _values(_unpack(x, self._slots, self._w, p), p, f))


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
    """Rabin irreducibility test over F_q, in one ring: t^(q^r) for the
    r = n / l in ascending order, each from the last, then t^(q^n)."""
    if p.degree < 1:
        return False
    if p.degree == 1:
        return True
    F = p.field
    q, n = F.q, p.degree
    mod = p.monic()
    ring = _Ring(mod)
    t = Poly.t(F)
    x, done = ring.elem(t), 0
    for r in sorted({n // d for d in prime_factors(n)}):
        x, done = ring.pow(x, q ** (r - done)), r
        if mod.gcd(ring.poly(x) - t).degree > 0:
            return False
    return ring.pow(x, q ** (n - done)) == ring.elem(t)


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
        # Yun-style pass; once g = 1 the rest w is squarefree and the last part
        g = f.gcd(d)
        w = f // g if g.degree > 0 else f
        mult = 1
        while w.degree > 0:
            if g.degree < 1:
                out.append((w.monic(), base_mult * mult))
                return
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


def _distinct_degree(p: Poly, ring_of=_Ring):
    """Split a squarefree monic polynomial into (product, degree) pieces.
    h = t^(q^d) is raised by q in the ring ring_of(f) of the part f not yet
    split off; a new ring is needed only when a piece leaves f."""
    F = p.field
    q = F.q
    out = []
    t = Poly.t(F)
    h = t
    f = p
    d = 0
    while f.degree >= 2 * (d + 1):
        ring = ring_of(f)
        x = ring.elem(h)
        while f.degree >= 2 * (d + 1):
            d += 1
            x = ring.pow(x, q)
            h = ring.poly(x)
            g = f.gcd(h - t)
            if g.degree > 0:
                out.append((g, d))
                f = f // g
                break
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree_split(p: Poly, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-d irreducibles,
    with one ring for p over all its draws."""
    F = p.field
    if p.degree == d:
        return [p]
    q = F.q
    ring = _Ring(p)
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
            acc = Poly.zero(F)
            cur = ring.elem(h)
            for _ in range(F.f * d):
                acc = acc + ring.poly(cur)
                cur = ring.mul(cur, cur)
            g = p.gcd(acc)
            if not (0 < g.degree < p.degree):
                continue
        else:
            g = p.gcd(ring.poly(ring.pow(ring.elem(h), (q**d - 1) // 2)) - Poly.one(F))
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
