"""Exact arithmetic in F_p and F_{p^f}.

Elements are stored packed: the residue c0 + c1*w + ... + c_{f-1}*w^{f-1}
(w the modulus root) is the integer c0 + c1*p + ... + c_{f-1}*p^{f-1}.
A FieldCtx owns all arithmetic on packed values; FieldElem is a thin
operator-overloading wrapper used at API boundaries.

An int passed to the API is an integer: FieldCtx.scalar reads it mod p,
whatever its size.  A packed value enters only through an explicit
constructor: FieldElem(F, v), F.from_coeffs, or the trusted Mat._make and
Poly._make.  A FieldElem never equals an int.

FieldCtx.__init__ decides the kind of field once (_bind_arithmetic) and binds
add, neg, sub, mul, inv and pow on packed values as closures on the instance,
and axpy(a, xs, ys) = [a x + y for x, y in zip(xs, ys)], the one row update
of elimination, the Keller-Gehrig spin and Euclid; no operation tests the
kind again.  The kinds:
  prime           integers mod p;
  tabled, p = 2   XOR addition, exp/log multiplication;
  tabled, odd p   Zech addition and negation, exp/log multiplication;
  untabled        q > _TABLE_LIMIT: coefficient addition (_raw_add), and
                  products, powers and inverses in the ring F_p[t]/(modulus)
                  (_ring_mul, _raw_pow: one poly._Ring per field, built on
                  first use; a tabled field uses them to build its tables).
The tables are exp/log on the least multiplicative generator g, which
_raw_pow finds (from w on: no constant of F_p generates F_q^*).  exp walks
the powers of g by doubling digit planes: plane j packs base-p digit j of
the powers found so far, and multiplication by g^n is an F_p-linear map, so
the next n powers are f combinations of the planes by a matrix that is
squared after each doubling (see _walk).  generator_powers hands the powers
g^0 .. g^(q-2) to the parameter search: the head of exp, or the same walk on
a prime or untabled field.  For odd p
there are also Zech logarithms zech[i] = log(1 + g^i), so a sum is a lookup:
g^a + g^b = g^(a + zech[b - a]) (Huber 1990; Lidl & Niederreiter, Finite
Fields, 10.1).  Every table holds O(q) entries: about 4q in all.
"""

from __future__ import annotations

import functools
import operator
from itertools import repeat

from .errors import (
    BadParam,
    CompositeCharacteristic,
    DivisionByZero,
    MixedFields,
    NoEmbedding,
    ReducibleModulus,
    ZeroElement,
)
from .factorint import (FactoredInt, _integer_root, divisors, factor_q_pow_minus_one,
                        is_prime, multiplicative_order)

_TABLE_LIMIT = 1 << 16


def _power(x, e: int, mul, one):
    """x^e for e >= 0 by right-to-left square-and-multiply: one for e = 0,
    else bit_length(e) + popcount(e) - 2 calls of mul.  No product by one and
    no squaring past the top bit.  The one exponent loop of the package:
    field elements, polynomials, residues of powmod and matrices use it."""
    if not e:
        return one
    while not e & 1:
        x = mul(x, x)
        e >>= 1
    result = x
    e >>= 1
    while e:
        x = mul(x, x)
        if e & 1:
            result = mul(result, x)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# FieldCtx
# ---------------------------------------------------------------------------

class FieldCtx:
    """The field F_{p^f} presented by a monic irreducible modulus over F_p."""

    def __init__(self, p: int, f: int, modulus):
        if not is_prime(p):
            raise CompositeCharacteristic(f"characteristic {p} is not prime")
        if f < 1:
            raise BadParam("extension degree must be >= 1")
        if f == 1:
            modulus = (0, 1) if modulus is None else tuple(c % p for c in modulus)
        else:
            if modulus is None:
                raise BadParam("extension fields need an explicit modulus")
            modulus = tuple(c % p for c in modulus)
        if len(modulus) != f + 1 or modulus[-1] != 1:
            raise BadParam("modulus must be monic of degree f")
        if f > 1:
            from .poly import Poly, is_irreducible  # poly imports this module
            self._mod_poly = Poly(standard_field(p), modulus)
            if not is_irreducible(self._mod_poly):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = modulus
        self.is_prime_field = f == 1
        self._degree_divisors = tuple(divisors(f))  # ascending
        self._unit_primes = None  # primes dividing q - 1, read on first use
        self._terms = None  # the text of c*w^i, for elem_string
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1)
        self._bind_arithmetic()

    # -- representation ----------------------------------------------------

    def coeffs(self, a: int):
        """Packed value -> length-f coefficient tuple (constant term first):
        the one digit loop, which elem_string reads too."""
        p, digits = self.p, []
        for _ in range(self.f):
            a, c = divmod(a, p)
            digits.append(c)
        return tuple(digits)

    def from_coeffs(self, coeffs) -> int:
        p = self.p
        if len(coeffs) > self.f:
            raise BadParam("too many coefficients")
        return sum((c % p) * p**i for i, c in enumerate(coeffs))

    def scalar(self, v) -> int:
        """Packed value of a FieldElem over an equal field, or of an int read
        as an integer mod p (whatever its size)."""
        if isinstance(v, FieldElem):
            if v.ctx is not self and v.ctx != self:
                raise MixedFields("element from a different field")
            return v.val
        if isinstance(v, int):
            return v % self.p
        raise BadParam(f"cannot coerce {v!r}")

    def elem(self, v) -> "FieldElem":
        return FieldElem(self, self.scalar(v))

    def gen(self) -> "FieldElem":
        """The residue of t (prime fields: 1)."""
        return FieldElem(self, self.p if self.f > 1 else 1)

    def elements(self):
        return (FieldElem(self, v) for v in range(self.q))

    def units(self):
        return (FieldElem(self, v) for v in range(1, self.q))

    # -- arithmetic on packed values --------------------------------------

    def _raw_add(self, a, b):
        p = self.p
        return self.from_coeffs([(x + y) % p for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def _raw_neg(self, a):
        return self.from_coeffs([-c for c in self.coeffs(a)])

    def _to_ring(self, a):
        """The residue of the packed value a in the ring F_p[t]/(modulus) of
        this field, built on first use."""
        from .poly import Poly, _Ring
        mod = self._mod_poly
        if self._ring is None:
            self._ring = _Ring(mod)
        return self._ring.elem(Poly._make(mod.field, self.coeffs(a)))

    def _from_ring(self, x):
        return self.from_coeffs(self._ring.poly(x).coeffs)

    def _raw_pow(self, a, e):
        """a^e in the ring of this field: the generator test before the
        tables exist, and every power of an untabled field."""
        x = self._to_ring(a)
        return self._from_ring(_power(x, e, self._ring.mul, 1))

    def _ring_mul(self, a, b):
        """a * b in the ring of this field: the product of an untabled field,
        and of a tabled one while its tables are built."""
        x = self._to_ring(a)
        return self._from_ring(self._ring.mul(x, self._to_ring(b)))

    def _bind_arithmetic(self):
        """Decide the field kind, once, and bind its six operations and axpy.
        A tabled field binds the untabled arithmetic first, finds its generator
        g and walks its powers (_walk), then rebinds to closures over exp/log."""
        p, q = self.p, self.q
        self._exp = self._log = self._zech = self._ring = None
        if self.is_prime_field:
            self._bind(lambda a, b: (a + b) % p, lambda a: -a % p,
                       lambda a, b: a * b % p, lambda a, e: pow(a, e, p),
                       sub=lambda a, b: (a - b) % p,
                       axpy=lambda a, xs, ys: [(a * x + y) % p for x, y in zip(xs, ys)])
            return
        if p == 2:
            add, neg, sub = operator.xor, lambda a: a, operator.xor
        else:
            add, neg, sub = self._raw_add, self._raw_neg, None
        self._bind(add, neg, lambda a, b: self._ring_mul(a, b) if a and b else 0,
                   self._raw_pow, sub=sub)
        if q > _TABLE_LIMIT:
            return
        # exp/log on the lexicographically least generator
        exp, log = self._walk(self.mult_generator().val), [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        exp += exp
        self._exp, self._log = exp, log
        # axpy: the exp/log product, then XOR or the Zech step inline
        if p == 2:
            def axpy(a, xs, ys):
                if not a:
                    return list(ys)
                la = log[a]
                return [exp[la + log[x]] ^ y if x else y for x, y in zip(xs, ys)]
        else:
            add, neg = self._zech_arithmetic()
            zech, m = self._zech, q - 1

            def axpy(a, xs, ys):
                # a x = g^s, s reduced mod q - 1 so that zech[log y - s] is
                # in range; a zero sum g^s + y has no logarithm (None)
                if not a:
                    return list(ys)
                la, out = log[a], []
                for x, y in zip(xs, ys):
                    if x:
                        s = (la + log[x]) % m
                        if y:
                            z = zech[log[y] - s]
                            y = 0 if z is None else exp[s + z]
                        else:
                            y = exp[s]
                    out.append(y)
                return out
        self._bind(add, neg, lambda a, b: exp[log[a] + log[b]] if a and b else 0,
                   lambda a, e: exp[log[a] * e % (q - 1)], sub=sub, axpy=axpy)

    def _walk(self, gen):
        """The packed powers gen^0 .. gen^(m-1), m = q - 1, by doubling digit
        planes.

        Plane j is one packed int whose slot s holds base-p digit j of gen^s,
        for the n powers found so far.  Multiplication by h = gen^n is
        F_p-linear (Lidl & Niederreiter, Finite Fields): if c = sum d_j w^j,
        then c h = sum d_j (w^j h).  So with row j of M the digits of w^j h,
        new plane i = sum_j M[j][i] plane_j holds the digits of gen^(n + s)
        in slot s: f^2 big-int products by digits, each new plane reduced mod
        p once (poly._unpack, by byte planes once a doubling adds enough slots)
        and shifted above the n slots it extends.  Then h becomes h^2, whose
        rows are those of M M (matrix._combiner over F_p).  After
        ceil(log2 m) doublings the powers are the Horner sum of the planes by
        p, read back in slots of _slot_width(m)."""
        from .matrix import _combiner  # matrix imports this module
        from .poly import _pack, _slot_width, _slots, _unpack
        p, f, m = self.p, self.f, self.q - 1
        w = _slot_width(f * (p - 1) ** 2)  # a plane's slot holds a sum of f digit products
        rows = [self.coeffs(self.mul(p**j, gen)) for j in range(f)]  # h = gen
        planes, n = [1] + [0] * (f - 1), 1  # the digits of gen^0
        while n < m:
            k = min(n, m - n)  # the slots this doubling adds
            low = planes if k == n else [x & (1 << 8 * w * k) - 1 for x in planes]
            new = [_pack(_unpack(sum(map(operator.mul, col, low)), k, w, p), w)
                   for col in zip(*rows)]
            planes = [x | y << 8 * w * n for x, y in zip(planes, new)]
            n += k
            if n < m:  # h -> h^2: row j of M M is the combination of M's rows by row j
                times_h = _combiner(standard_field(p), rows, f)
                rows = [times_h(row) for row in rows]
        W = _slot_width(m)
        if w < W:  # re-slot the digits, already below p, as wide as the values
            planes, w = [_pack(_unpack(x, m, w, p), W) for x in planes], W
        acc = 0
        for x in reversed(planes):
            acc = acc * p + x
        return list(_slots(acc, m, w))

    def generator_powers(self):
        """The packed powers g^0 .. g^(q-2) of the least multiplicative
        generator g: the head of exp on a tabled field, else one _walk."""
        if self._exp is not None:
            return self._exp[:self.q - 1]
        return self._walk(self.mult_generator().val)

    def _zech_arithmetic(self):
        """add and neg over zech[i] = log(1 + g^i), read from local variables.
        Adding 1 to a packed value changes only its constant coefficient;
        1 + g^((q-1)/2) = 0 has no logarithm (None), and -1 = g^((q-1)/2)."""
        p, half = self.p, (self.q - 1) // 2
        exp, log = self._exp, self._log
        zech = [log[v - v % p + (v % p + 1) % p] for v in exp[:2 * half]]
        zech[half] = None
        self._zech = zech

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            # g^la + g^lb = g^la * (1 + g^(lb - la)); a negative difference
            # indexes zech from the end, i.e. mod q - 1
            la = log[a]
            z = zech[log[b] - la]
            return 0 if z is None else exp[la + z]

        def neg(a):
            return exp[log[a] + half] if a else 0

        return add, neg

    def _bind(self, add, neg, mul, unit_pow, sub=None, axpy=None):
        """Set the six operations and axpy(a, xs, ys), the new list a x + y
        (list(ys) for a = 0; by default from mul and add).  unit_pow(a, e)
        takes a != 0, 0 <= e < q - 1: zero and negative exponents are handled
        here (0**0 = 1) for every kind."""
        m = self.q - 1

        def inv(a):
            if not a:
                raise DivisionByZero("inverse of zero")
            return unit_pow(a, m - 1)

        def power(a, e):
            if a:
                return unit_pow(a, e % m)
            if e < 0:
                raise DivisionByZero("inverse of zero")
            return 0 if e else 1

        sub = sub or (lambda a, b: add(a, neg(b)))
        axpy = axpy or (lambda a, xs, ys: list(map(add, map(mul, repeat(a), xs), ys)))
        self.add, self.neg, self.sub, self.mul, self.inv, self.pow, self.axpy = (
            add, neg, sub, mul, inv, power, axpy)

    def mult_generator(self) -> "FieldElem":
        """Lexicographically least multiplicative generator.  Over F_{p^f},
        f > 1, the search starts at w (packed p): a constant c < p has order
        dividing p - 1 < q - 1."""
        for v in range(self.p if self.f > 1 else 2, self.q):
            if self._is_generator(v):
                return FieldElem(self, v)
        return FieldElem(self, 1)  # F_2

    def _is_generator(self, v):
        if self._unit_primes is None:
            self._unit_primes = tuple(factor_q_pow_minus_one(self.p, self.f).primes())
        for prime in self._unit_primes:
            if self.pow(v, (self.q - 1) // prime) == 1:
                return False
        return True

    # -- text forms --------------------------------------------------------

    @property
    def spec_string(self) -> str:
        return f"{self.p}^{self.f}/" + ",".join(str(c) for c in self.modulus)

    def elem_string(self, a) -> str:
        """c0+c1*w+c2*w^2+... with zero terms left out and unit coefficients
        unwritten ("0" for zero): the terms of the digits of a, read from
        _terms[i][c], the text of c*w^i, built on first use."""
        if self.is_prime_field:
            return str(a)
        if self._terms is None:
            self._terms = [[""] + [self._term(c, i) for c in range(1, self.p)]
                           for i in range(self.f)]
        return "+".join(filter(None, map(operator.getitem, self._terms, self.coeffs(a)))) or "0"

    @staticmethod
    def _term(c, i):
        if i == 0:
            return str(c)
        power = "w" if i == 1 else f"w^{i}"
        return power if c == 1 else f"{c}*{power}"

    def __repr__(self):
        return f"FieldCtx({self.spec_string})"

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.modulus))


def _operator(op):
    """The FieldElem operator self . other = op(F, self.val, other's packed
    value).  Any other operand than a FieldElem or an int gets
    NotImplemented, so Python tries its reflected operator (Poly.__rmul__,
    Mat.__rmul__)."""
    def method(self, other):
        if not isinstance(other, (FieldElem, int)):
            return NotImplemented
        return FieldElem(self.ctx, op(self.ctx, self.val, self.ctx.scalar(other)))
    return method


class FieldElem:
    """A field element: a FieldCtx plus a packed residue value."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    __add__ = __radd__ = _operator(lambda F, a, b: F.add(a, b))
    __sub__ = _operator(lambda F, a, b: F.sub(a, b))
    __rsub__ = _operator(lambda F, a, b: F.sub(b, a))
    __mul__ = __rmul__ = _operator(lambda F, a, b: F.mul(a, b))
    __truediv__ = _operator(lambda F, a, b: F.mul(a, F.inv(b)))
    __rtruediv__ = _operator(lambda F, a, b: F.mul(b, F.inv(a)))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.val))

    def __pow__(self, e):
        return FieldElem(self.ctx, self.ctx.pow(self.val, e))

    def inv(self):
        return FieldElem(self.ctx, self.ctx.inv(self.val))

    def __eq__(self, other):
        # never equal to an int: 3 and 10 are the same element of F_7 but
        # different ints, so no hash could agree with both
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self.val == other.val
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.val))

    def __bool__(self):
        return self.val != 0

    @property
    def coeffs(self):
        return self.ctx.coeffs(self.val)

    def __repr__(self):
        return self.ctx.elem_string(self.val)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def make_ext_field(p: int, f: int, modulus=None) -> FieldCtx:
    """Build F_{p^f}; the modulus is a coefficient list, constant term first."""
    return FieldCtx(p, f, modulus)


def parse_field_spec(spec: str) -> FieldCtx:
    """Parse "p^f/c0,c1,...,cf" (bare "p" means the prime field); text of
    another form is a BadParam."""
    head, slash, tail = spec.partition("/")
    p_str, _, f_str = head.partition("^")
    try:
        p, f = int(p_str), int(f_str or "1")
        modulus = tuple(int(c) for c in tail.split(",")) if slash else None
    except ValueError:
        raise BadParam(f"bad field spec {spec!r}: want p or p^f/c0,c1,...,cf") from None
    if not slash and f_str:
        raise BadParam(f"bad field spec {spec!r}: p^f needs its modulus /c0,c1,...,cf")
    return FieldCtx(p, f, modulus)


def subfield_degree(b: FieldElem) -> int:
    """Smallest d | f with b in F_{p^d}."""
    ctx = b.ctx
    for d in ctx._degree_divisors:
        if ctx.pow(b.val, ctx.p**d) == b.val:
            return d
    raise AssertionError("unreachable: b is always in F_{p^f}")


def mult_order(b: FieldElem) -> FactoredInt:
    """Exact multiplicative order as a FactoredInt."""
    if b.val == 0:
        raise ZeroElement("zero has no multiplicative order")
    ctx = b.ctx
    group = factor_q_pow_minus_one(ctx.p, ctx.f)
    return multiplicative_order(group, b.val, ctx.pow, lambda v: v == 1)


def campoN_bound(s: int, p: int, f: int) -> int:
    """Upper bound s*p*(p^floor(f/2) - 1)/(p - 1) for subfield-collapse counts."""
    if f <= 1 or s < 2:
        raise BadParam("bound requires f > 1 and s >= 2")
    return s * p * (p ** (f // 2) - 1) // (p - 1)


class Embedding:
    """Field homomorphism F_{p^e} -> F_{p^f} (e | f), fixing F_p."""

    def __init__(self, small: FieldCtx, big: FieldCtx, root_val: int):
        self.small = small
        self.big = big
        self.root = root_val
        # image of w^i for each power of the small generator
        self._powers = [big.pow(root_val, i) for i in range(small.f)]

    def __call__(self, elem) -> FieldElem:
        return FieldElem(self.big, self._image(self.small.scalar(elem)))

    def _image(self, val: int) -> int:
        """Packed image of a packed value of the small field."""
        big = self.big
        acc = 0
        for c, img in zip(self.small.coeffs(val), self._powers):
            acc = big.add(acc, big.mul(c, img))
        return acc

    def map_matrix(self, mat):
        from .matrix import Mat
        image = self._image
        return Mat._make(self.big, tuple(tuple(map(image, row)) for row in mat.rows_raw()),
                         mat.cols)


def embed(small: FieldCtx, big: FieldCtx) -> Embedding:
    """Deterministic embedding: first root of small.modulus in big (ascending packed order)."""
    if small.p != big.p or big.f % small.f != 0:
        raise NoEmbedding(f"no embedding {small!r} -> {big!r}")
    from .poly import Poly, roots  # poly imports this module
    root = next(roots(Poly(big, small.modulus)), None)
    if root is None:
        raise NoEmbedding("modulus has no root in the target field")
    return Embedding(small, big, root.val)


# ---------------------------------------------------------------------------
# bundled moduli
# ---------------------------------------------------------------------------

# (q, tag) -> coefficient list of the minimal polynomial of a over F_p,
# constant term first (integer coefficients, reduced mod p on use).
# tag None is the default modulus for that q.
_MODULI: dict[tuple[int, str | None], tuple[int, ...]] = {
    # table of minimal polynomials used by the n=5/6/7/11 exceptional fields
    (8, "table1"): (1, 1, 0, 1),          # t^3+t+1
    (16, "table1"): (1, 0, 0, 1, 1),      # t^4+t^3+1
    (32, "table1"): (1, 0, 1, 0, 0, 1),   # t^5+t^2+1
    (64, "table1"): (1, 1, 0, 0, 0, 0, 1),  # t^6+t+1
    (9, "table1"): (-1, 1, 1),            # t^2+t-1
    # table of minimal polynomials used by the n=9 exceptional fields
    (16, "table2"): (1, 1, 0, 0, 1),      # t^4+t+1
    (32, "table2"): (1, 0, 0, 1, 0, 1),   # t^5+t^3+1
    (64, "table2"): (1, 1, 0, 0, 0, 0, 1),  # t^6+t+1
    (128, "table2"): (1, 0, 0, 1, 0, 0, 0, 1),  # t^7+t^3+1
}

# inline minimal polynomials, keyed by the lemma/section that names them
_MODULI.update({
    (4, "main5"): (1, 1, 1), (25, "main5"): (1, 1, 1),            # t^2+t+1
    (4, "main7"): (1, 1, 1), (8, "main7"): (1, 1, 0, 1),
    (16, "main7"): (1, 1, 0, 0, 1),                               # t^f+t+1
    (4, "main9"): (1, 1, 1), (8, "main9"): (1, 1, 0, 1),
    (4, "main11"): (1, 1, 1),
    (9, "main6"): (-1, -1, 1),                                    # t^2-t-1
    (25, "main6"): (-8, 1, 1), (49, "main6"): (-8, 1, 1),         # t^2+t-8
    (27, "main6"): (-1, -1, 0, 1),                                # t^3-t-1
    (9, "7ex"): (-1, -1, 1),                                      # t^2-t-1
    (9, "main8"): (-1, -1, 1), (25, "main8"): (1, 1, 1),
    (9, "M=H"): (-1, 1, 1),                                       # t^2+t-1
    (9, "9ex"): (-17, 0, 1), (25, "9ex"): (-17, 0, 1), (49, "9ex"): (-17, 0, 1),
    (27, "9ex"): (1, -1, 0, 1),                                   # t^3-t+1
    (9, "11ex"): (-1, 1, 1),                                      # t^2+t-1
    (25, "11ex"): (2, 0, 1), (49, "11ex"): (2, 0, 1),             # t^2+2
    (27, "11ex"): (1, -1, 0, 1),
    (9, "main10"): (2, 1, 1), (25, "main10"): (2, 1, 1),          # t^2+t+2
    (9, "main12"): (-2, 0, 1), (25, "main12"): (-2, 0, 1),        # t^2-2
    (9, "main14"): (-1, 1, 1), (25, "main14"): (2, 0, 1),
    (9, "pno213"): (-2, 0, 1), (25, "pno213"): (-2, 0, 1),
    (49, "pno213"): (3, -1, 1),                                   # t^2-t+3
    (27, "pno213"): (1, -1, 0, 1),
    (8, "G7"): (1, 1, 0, 1),                                      # t^3+t+1
})


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree f over F_p.

    "Least" compares the packed integer c0 + c1*p + ... of the non-leading
    coefficients, ascending.
    """
    from .poly import Poly, is_irreducible  # poly imports this module
    if f == 1:
        return (0, 1)
    for packed in range(p**f):
        coeffs = [(packed // p**i) % p for i in range(f)] + [1]
        if coeffs[0] != 0 and is_irreducible(Poly(standard_field(p), coeffs)):
            return tuple(coeffs)
    raise AssertionError("irreducible polynomial always exists")


def bundled_moduli():
    """All (q, tag) -> modulus entries, for the CLI `fields` listing."""
    return dict(sorted(_MODULI.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")))


def modulus_for(q: int, tag: str | None = None) -> tuple[int, ...]:
    p, f = _split_prime_power(q)
    if tag is not None and (q, tag) in _MODULI:
        return tuple(c % p for c in _MODULI[(q, tag)])
    return default_modulus(p, f)


@functools.lru_cache(maxsize=None)
def standard_field(q: int, tag: str | None = None) -> FieldCtx:
    """F_q with the bundled modulus for (q, tag), or the default modulus."""
    p, f = _split_prime_power(q)
    return FieldCtx(p, f, modulus_for(q, tag))


@functools.lru_cache(maxsize=None)
def _split_prime_power(q: int) -> tuple[int, int]:
    """(p, f) with q = p^f: the one exact f-th root of q, f <= log2 q, that
    is prime.  Nothing is factored, so a large composite q fails at once."""
    for f in range(1, q.bit_length()):
        p = _integer_root(q, f)
        if p**f == q and is_prime(p):
            return p, f
    raise BadParam(f"{q} is not a prime power")
