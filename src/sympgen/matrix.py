"""Dense exact matrices over a FieldCtx.

Basis convention, fixed once for the whole package: coordinates are indexed
e_1, ..., e_n, e_{-1}, ..., e_{-n} in that order, matrices act on column
vectors from the left, and the symplectic Gram matrix is
J = [[0, -I_n], [I_n, 0]].

The public constructor Mat(F, rows) takes FieldElems and ints (integers
mod p) and rejects a FieldElem from another field (MixedFields) and ragged
rows (ShapeMismatch).  Results of arithmetic are built by the trusted
Mat._make(F, data), which takes a tuple of row tuples of packed values in
[0, q) as they are.  Vectors are tuples of packed values: apply, kernel,
solve, eigenspace and col_raw return them, and apply, solve, in_span and
same_span take them as they are.

Every linear combination sum c_i row_i is formed in one place, _combiner:
the rows of a product (combinations of the right factor's rows), the image
of a vector (a combination of the columns) and the vectors r(g) e_i of
the order checks (combinations of Krylov vectors).  Its coefficients come
as a sequence, read more than once, and only the nonzero ones count: the
generators are built one basis image at a time, so most rows of x, y, tau
and their short words are unit vectors e_j, and for those the combination
is row j itself, returned as the same tuple with no arithmetic (a product
then shares that row with its right factor, as the elements of
grouporder.closure_bfs share theirs).  Over a prime field each row
becomes one integer of byte-aligned slots (poly._pack) wide enough for
m (p - 1)^2, a combination is one big-int sum of c_i * packed_row_i over
the nonzero c_i, and its slots are unpacked and reduced mod p once
(delayed reduction).  Over an extension field each row keeps its
multiples c * row_i, formed by the field's mul the first time c is used
(the table of multiples of Albrecht's M4RIE, filled lazily), and a
combination chains maps of the field's add over those of the nonzero c_i.
A Mat keeps the combiner of its rows once a product has used it as the
right factor (Mat._right), so repeated products by one matrix (the
letters of a word) build it once; over F_{p^f} its multiples c * row then
last as long as the matrix.  Equality and hash read only the field and
the entries.

char_poly reads chi off the Keller-Gehrig spin _spin, the one chi of the
package: it spins the Krylov vectors of a few unit vectors and hands them
on to the order checks of grouporder.element_order.  The product of the
characteristic polynomials rho_i of the cyclic pieces is _chi, an
lru_cache keyed by the field and the sorted multiset of the rho_i, so it
is formed once per multiset, whatever order the spin meets them in.  A
division-free Berkowitz implementation, on add and mul alone, is kept
alongside as its independent oracle for small dimensions.  Each row
operation of _echelon and of the spin is one call of the field's axpy, and
a pivot row is scaled to 1 only where its pivot is not 1 already.
similarity_invariants reads the invariant factors from the nullities of
f(M)^k, f over the irreducible factors of char_poly: kernel is the one
elimination, _echelon, as for det, inverse and solve.
"""

from __future__ import annotations

import functools
import operator
from itertools import compress, repeat

from .errors import CheckFailed, MixedFields, NotSquare, ShapeMismatch, SingularMatrix
from .gf import FieldCtx, FieldElem, _power
from .poly import Poly, _pack, _slot_width, _unpack, factor


@functools.lru_cache(maxsize=None)
def _identity_data(n: int):
    """Rows of the n x n identity; packed 0 and 1 are the same in every field."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class Mat:
    """Immutable dense matrix; entries are packed field values."""

    __slots__ = ("field", "rows", "cols", "data", "_comb")

    def __init__(self, field: FieldCtx, rows):
        scalar = field.scalar
        data = tuple(tuple(map(scalar, row)) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ShapeMismatch("ragged rows")
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, field: FieldCtx, data: tuple, cols: int = 0) -> "Mat":
        """Trusted constructor: a tuple of equal-length row tuples of packed
        values in [0, q), taken as they are; cols counts only without rows."""
        m = object.__new__(cls)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0]) if data else cols
        return m

    @classmethod
    def identity(cls, field, n):
        return cls._make(field, _identity_data(n))

    @classmethod
    def zeros(cls, field, rows, cols=None):
        cols = rows if cols is None else cols
        return cls._make(field, ((0,) * cols,) * rows, cols)

    @classmethod
    def from_function(cls, field, rows, cols, fn):
        scalar = field.scalar
        return cls._make(field, tuple(tuple(scalar(fn(i, j)) for j in range(cols))
                                      for i in range(rows)), cols)

    @classmethod
    def block_diag(cls, blocks):
        field = blocks[0].field
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[0] * m for _ in range(n)]
        r = c = 0
        for b in blocks:
            if b.field != field:
                raise MixedFields("blocks over different fields")
            for i in range(b.rows):
                out[r + i][c:c + b.cols] = b.data[i]
            r += b.rows
            c += b.cols
        return cls._make(field, tuple(map(tuple, out)), m)

    # -- basics ------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def rows_raw(self):
        return self.data

    def col_raw(self, j):
        return tuple(row[j] for row in self.data)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.data == other.data and self.cols == other.cols)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field.spec_string})"

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.data == _identity_data(self.rows)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def dump(self) -> str:
        """Text form: header "rows cols field-spec", then one row per line."""
        lines = [f"{self.rows} {self.cols} {self.field.spec_string}"]
        for row in self.data:
            lines.append(",".join(self.field.elem_string(v) for v in row))
        return "\n".join(lines)

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other):
        if self.field != other.field:
            raise MixedFields("matrices over different fields")

    def __add__(self, other):
        self._check_same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        add = self.field.add
        return Mat._make(self.field, tuple(tuple(map(add, ra, rb))
                                           for ra, rb in zip(self.data, other.data)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return Mat._make(self.field, tuple(tuple(map(neg, row)) for row in self.data))

    def scale(self, c):
        mul = self.field.mul
        cv = self.field.scalar(c)
        return Mat._make(self.field, tuple(tuple(mul(cv, v) for v in row)
                                           for row in self.data))

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            return self.scale(other)
        self._check_same(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        return Mat._make(self.field, tuple(map(other._right(), self.data)), other.cols)

    def _right(self):
        """row -> row self: the _combiner of self's rows, built on first use
        and kept, so that products by one right factor build it once."""
        try:
            return self._comb
        except AttributeError:
            self._comb = _combiner(self.field, self.data, self.cols)
            return self._comb

    __rmul__ = scale

    def apply(self, vec):
        """Image of a column vector of packed values; returns a tuple."""
        if len(vec) != self.cols:
            raise ShapeMismatch("vector length mismatch")
        return _combiner(self.field, tuple(zip(*self.data)), self.rows)(vec)

    def __pow__(self, e: int):
        if not self.is_square():
            raise NotSquare("powers need a square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, operator.mul, Mat.identity(self.field, self.rows))

    def transpose(self):
        data = tuple(zip(*self.data)) if self.data else ((),) * self.cols
        return Mat._make(self.field, data, self.rows)

    def trace(self) -> FieldElem:
        if not self.is_square():
            raise NotSquare("trace needs a square matrix")
        F = self.field
        acc = 0
        for i in range(self.rows):
            acc = F.add(acc, self.data[i][i])
        return FieldElem(F, acc)

    # -- elimination-based operations --------------------------------------

    def _echelon(self, augment=None):
        """Reduced row echelon form of [self | augment], pivots taken only in
        self's columns; returns (self's rows, pivot cols, det, augment's rows)."""
        F = self.field
        mul, inv, neg, axpy = F.mul, F.inv, F.neg, F.axpy
        n = self.cols
        m = ([[*r, *a] for r, a in zip(self.data, augment.data)] if augment is not None
             else [list(r) for r in self.data])
        det = 1
        pivots = []
        r = 0
        for c in range(n):
            pr = next((i for i in range(r, self.rows) if m[i][c]), None)
            if pr is None:
                continue
            if pr != r:
                m[r], m[pr] = m[pr], m[r]
                det = neg(det)
            pv = m[r][c]
            det = mul(det, pv)
            # the rows from r on are 0 left of column c: row operations start at c
            row = m[r][c:]
            if pv != 1:
                pv_inv = inv(pv)
                row = m[r][c:] = [mul(pv_inv, v) for v in row]
            for i in range(self.rows):
                if i != r and m[i][c]:
                    m[i][c:] = axpy(neg(m[i][c]), row, m[i][c:])
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return [row[:n] for row in m], pivots, det, [row[n:] for row in m]

    def det(self) -> FieldElem:
        if not self.is_square():
            raise NotSquare("determinant needs a square matrix")
        _, pivots, det, _ = self._echelon()
        if len(pivots) < self.rows:
            return FieldElem(self.field, 0)
        return FieldElem(self.field, det)

    def inverse(self) -> "Mat":
        if not self.is_square():
            raise NotSquare("inverse needs a square matrix")
        _, pivots, _, aug = self._echelon(Mat.identity(self.field, self.rows))
        if len(pivots) < self.rows:
            raise SingularMatrix("matrix is singular")
        return Mat._make(self.field, tuple(map(tuple, aug)))

    def kernel(self):
        """Basis of the right null space, reduced-echelon convention."""
        F = self.field
        m, pivots, _, _ = self._echelon()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [0] * self.cols
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = F.neg(m[r][fc])
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs):
        """One solution of self * x = rhs (rhs a vector of packed values), or None."""
        if len(rhs) != self.rows:
            raise ShapeMismatch("right-hand side length mismatch")
        aug = Mat._make(self.field, tuple((v,) for v in rhs), 1)
        m, pivots, _, am = self._echelon(aug)
        for i in range(len(pivots), self.rows):
            if am[i][0] != 0:
                return None
        x = [0] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = am[r][0]
        return tuple(x)


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

# A chain of maps nests one C call per term; past this many terms it is
# collapsed into a tuple, so that no combination can overflow the C stack.
_CHAIN = 1000


def _combiner(F: FieldCtx, rows, cols: int):
    """combine(coeffs) = the tuple sum c_i * rows[i] of length cols, for rows
    of packed values over F and a sequence (not an iterator: it is read more
    than once) of packed coefficients, at most one per row (a row without
    one counts as 0).  The rows are kept as tuples, and where coeffs is the
    unit vector e_j, j within the rows, combine returns rows[j] itself, with
    no arithmetic.  Otherwise only the nonzero coefficients are read.  The
    one prime/extension fork of matrix arithmetic: over F_p each row is
    packed once, in slots wide enough for len(rows) (p - 1)^2, and a
    combination is one big-int sum, unpacked and reduced mod p once; over
    an extension field each row keeps its multiples c * row, formed by the
    field's mul the first time c is used, and the terms chain maps of the
    field's add over them."""
    rows = tuple(map(tuple, rows))
    if F.is_prime_field:
        p, mul = F.p, operator.mul
        w = _slot_width(len(rows) * (p - 1) ** 2)
        packed = [_pack(row, w) for row in rows]

        def combine(coeffs):
            row = _unit_row(coeffs, rows)
            if row is not None:
                return row
            terms = map(mul, filter(None, coeffs), compress(packed, coeffs))
            return tuple(_unpack(sum(terms), cols, w, p))
        return combine
    mul, add, zero, chain = F.mul, F.add, (0,) * cols, _CHAIN
    multiples = [{1: row} for row in rows]  # c -> c * row

    def combine(coeffs):
        row = _unit_row(coeffs, rows)
        if row is not None:
            return row
        acc, depth = zero, 0  # depth: terms in the chain
        for c, kept in compress(zip(coeffs, multiples), coeffs):
            term = kept.get(c)
            if term is None:
                term = kept[c] = tuple(map(mul, repeat(c), kept[1]))
            acc = map(add, acc, term) if depth else term
            depth += 1
            if depth == chain:
                acc, depth = tuple(acc), 1
        return tuple(acc)
    return combine


def _unit_row(coeffs, rows):
    """rows[j] if coeffs is the unit vector e_j (one nonzero entry, a 1)
    with j < len(rows), else None."""
    if coeffs.count(0) + 1 == len(coeffs) and 1 in coeffs:
        j = coeffs.index(1)
        if j < len(rows):
            return rows[j]
    return None


def paper_commutator(x: Mat, y: Mat) -> Mat:
    """The commutator convention [x, y] = x y^{-1} x y."""
    return x * y.inverse() * x * y


def char_poly(m: Mat) -> Poly:
    """Monic characteristic polynomial det(tI - M), read off the spin of M."""
    if not m.is_square():
        raise NotSquare("characteristic polynomial needs a square matrix")
    return _spin(m)[0]


_CHIS = 256  # (field, multiset of rho_i) keys whose product chi _chi keeps


@functools.lru_cache(maxsize=_CHIS)
def _chi(F: FieldCtx, rhos: tuple) -> Poly:
    """prod rho_i over F, for rhos the sorted tuple of the coefficient tuples
    of the monic rho_i: the one product of the rho_i, made once per field and
    multiset, as multiplication commutes."""
    if not rhos:
        return Poly.one(F)
    return functools.reduce(operator.mul, (Poly._make(F, rho) for rho in rhos))


def _spin(g: Mat):
    """(chi, step, krylov, witnesses) of a square g by one Keller-Gehrig spin
    (Keller-Gehrig, Fast algorithms for the characteristic polynomial, TCS
    36, 1985; Neunhoeffer & Praeger, LMS J. Comput. Math. 11, 2008).

    step(v) = g v is one _combiner over g's columns.  witnesses lists the
    unit vectors e_i in the order taken, and krylov[i] = [g^j e_i] holds
    their Krylov vectors as step makes them, unreduced.  e_1 is the first
    witness, and each later one the first e_i whose column holds no pivot
    among the rows kept so far, so e_i itself is a new row.  A copy of each
    g^j e_i is reduced against the kept rows, one axpy per row.  The rows of
    the current witness carry their coefficients in g^0 e_i .. g^j e_i past
    column d; those of earlier witnesses drop them, as they span a
    g-invariant W.  The first g^m e_i that reduces to 0 gives the monic
    rho_i = t^m - ..., the characteristic polynomial of g on the cyclic
    space of e_i mod W, and chi = prod rho_i.  The spin ends at rank dim g,
    so the g^j e_i (j < deg rho_i) of the witnesses span V.

    chi comes from _chi, an lru_cache of _CHIS entries keyed by the field
    and the sorted multiset of the rho_i, so a g whose rho_i were seen
    before, in any order, forms no product of polynomials.  chi is not
    trusted downstream: element_order checks a_k(g) = 0 and every identity
    on the Krylov vectors of g itself."""
    F, d = g.field, g.rows
    mul, inv, neg, axpy = F.mul, F.inv, F.neg, F.axpy
    step = _combiner(F, tuple(zip(*g.data)), d)
    kept = []  # (pivot c, row from c on scaled to 1 at c, then coefficients)
    free = [True] * d  # free[c]: no kept row has its pivot in column c
    krylov, witnesses, rhos = {}, [], []
    while len(kept) < d:
        i = free.index(True)
        witnesses.append(i)
        v = tuple(int(i == c) for c in range(d))  # the last Krylov vector of e_i so far
        vecs = krylov[i] = [v]
        block = len(kept)  # kept[block:] are this witness's rows
        while True:
            w = [*v, *repeat(0, len(vecs) - 1), 1]  # g^m e_i, then t^m
            for c, row in kept:
                if w[c]:
                    w[c:c + len(row)] = axpy(neg(w[c]), row, w[c:c + len(row)])
            c = next(compress(range(d), w), None)
            if c is None:
                break
            row = w[c:]
            if row[0] != 1:
                pv_inv = inv(row[0])
                row = [mul(pv_inv, x) for x in row]
            kept.append((c, row))
            free[c] = False
            v = step(v)
            vecs.append(v)
        rhos.append(tuple(w[d:]))
        kept[block:] = [(c, row[:d - c]) for c, row in kept[block:]]
    return _chi(F, tuple(sorted(rhos))), step, krylov, witnesses


def char_poly_berkowitz(m: Mat) -> Poly:
    """Division-free characteristic polynomial (Berkowitz); cross-check oracle."""
    if not m.is_square():
        raise NotSquare("characteristic polynomial needs a square matrix")
    F = m.field
    n = m.rows
    mul, add, sub = F.mul, F.add, F.sub
    if n == 0:
        return Poly.one(F)
    # vect holds the coefficients of det(tI - M_k), highest degree first
    vect = [1, F.neg(m.data[0][0])]
    for k in range(1, n):
        a = m.data[k][k]
        row = m.data[k][:k]       # R: row vector
        col = [m.data[i][k] for i in range(k)]  # C: column vector
        sub_m = [r[:k] for r in m.data[:k]]
        # Toeplitz column: [1, -a, -R C, -R M C, -R M^2 C, ...]
        toeplitz = [1, F.neg(a)]
        vcur = col
        for _ in range(k):
            dot = 0
            for x, yv in zip(row, vcur):
                dot = add(dot, mul(x, yv))
            toeplitz.append(F.neg(dot))
            vnext = []
            for i in range(k):
                acc = 0
                for j in range(k):
                    acc = add(acc, mul(sub_m[i][j], vcur[j]))
                vnext.append(acc)
            vcur = vnext
        new = [0] * (k + 2)
        for i, tv in enumerate(toeplitz[:k + 2]):
            if tv:
                for j, vv in enumerate(vect):
                    if i + j < k + 2:
                        new[i + j] = add(new[i + j], mul(tv, vv))
        vect = new
    return Poly._make(F, vect[::-1])


def eigenspace(m: Mat, lam, embedding=None):
    """Kernel basis of (M - lam I); lam may live in an extension via embedding."""
    if not m.is_square():
        raise NotSquare("eigenspace needs a square matrix")
    if embedding is not None:
        m = embedding.map_matrix(m)
        F = embedding.big
    else:
        F = m.field
    shifted = m - Mat.identity(F, m.rows).scale(lam)
    return shifted.kernel()


def in_span(basis, vec, field) -> bool:
    """Membership of vec in the span of the basis vectors (packed vectors)."""
    if not basis:
        return not any(vec)
    return Mat._make(field, tuple(zip(*basis))).solve(vec) is not None


def same_span(basis_a, basis_b, field) -> bool:
    return (all(in_span(basis_b, v, field) for v in basis_a)
            and all(in_span(basis_a, v, field) for v in basis_b))


def similarity_invariants(m: Mat):
    """Nonconstant invariant factors of tI - M, in divisibility order.

    Read from kernel ranks (Dummit & Foote, Abstract Algebra, 3rd ed., 12.3):
    for each irreducible f of degree d and multiplicity mult in char_poly(M),
    the nullity n_k of f(M)^k rises to d mult, and (n_k - n_{k-1}) / d blocks
    f^j of M have j >= k.  The i-th largest invariant factor is the product
    of f^#{k : that count >= i} over the factors f.  A nullity that stops
    rising below d mult, or passes it, raises CheckFailed, and so do
    invariant factors whose degrees do not add up to dim M."""
    if not m.is_square():
        raise NotSquare("similarity invariants need a square matrix")
    F = m.field
    eye = Mat.identity(F, m.rows)
    exponents = []  # (f, exponent of f in each invariant factor, largest first)
    for f, mult in factor(char_poly(m)):
        a = m + eye.scale(FieldElem(F, f.coeffs[-2]))  # f(M) by Horner; f monic
        for c in f.coeffs[-3::-1]:
            a = a * m + eye.scale(FieldElem(F, c))
        counts, nullity, power, full = [], 0, a, f.degree * mult
        while True:
            prev, nullity = nullity, len(power.kernel())
            if nullity == prev or nullity > full:
                raise CheckFailed(f"nullities of f(M)^k reach {nullity}, not {full}")
            counts.append((nullity - prev) // f.degree)
            if nullity == full:
                break
            power = power * a
        exponents.append((f, [sum(c >= i for c in counts) for i in range(1, counts[0] + 1)]))
    out = []
    for i in range(max((len(e) for _, e in exponents), default=0) - 1, -1, -1):
        inv = Poly.one(F)
        for f, e in exponents:
            if i < len(e):
                inv = inv * f ** e[i]
        out.append(inv)
    if sum(inv.degree for inv in out) != m.rows:
        raise CheckFailed(f"invariant factors of degrees {[inv.degree for inv in out]} "
                          f"for dim {m.rows}")
    return out
