"""Generator pairs (x, y) for Sp_2n(q) and the invariant-subspace machinery.

Coordinates follow the package-wide basis order e_1..e_n, e_{-1}..e_{-n};
signed indices +-i address basis vectors, and builders assign one image per
basis vector with a collision guard, so an index covered by two case rules
fails loudly instead of silently overwriting.

Sections: restrict(g, basis, quotient) is the matrix of g on
span(quotient + basis) / span(quotient), written in basis; with no quotient
it is the restriction to span(basis).  SympSpace.basis gives the unit
vectors of signed indices, so restrict(g, space.basis([1, 2])) is the block
of g on <e_1, e_2>.

Recipes: "general" (n = 4 or n >= 6), "n5", "n6alt", "n8alt".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BadParam, CheckFailed, NoTauDefined, OutOfRange
from .gf import FieldCtx, FieldElem, standard_field
from .matrix import Mat, paper_commutator

RECIPES = ("general", "n5", "n6alt", "n8alt")


@dataclass(frozen=True)
class SympSpace:
    n: int
    field: FieldCtx
    J: Mat

    @classmethod
    def make(cls, n: int, field: FieldCtx) -> "SympSpace":
        # row i < n is -e_{i+n}, row n + i is e_i; packed 0 and 1 need no field
        minus, zero = field.neg(1), (0,)
        rows = ([zero * (n + i) + (minus,) + zero * (n - 1 - i) for i in range(n)]
                + [zero * i + (1,) + zero * (2 * n - 1 - i) for i in range(n)])
        return cls(n=n, field=field, J=Mat._make(field, tuple(rows), 2 * n))

    def idx(self, i: int) -> int:
        """Column index of the signed basis vector e_i (i in +-1..+-n)."""
        if not (0 < abs(i) <= self.n):
            raise OutOfRange(f"basis index {i} out of range for n={self.n}")
        return i - 1 if i > 0 else self.n - i - 1

    def basis(self, indices):
        """The unit vectors e_i of the signed indices, in order."""
        return [self.vector([(1, i)]) for i in indices]

    def vector(self, terms):
        """Column vector from (coefficient, signed index) terms."""
        return _vector(self.field, 2 * self.n, self.idx, terms)

    def is_symplectic(self, g: Mat) -> bool:
        return g.transpose() * self.J * g == self.J

    def builder(self) -> "_Builder":
        return _Builder(self.field, 2 * self.n, self.idx)


def _vector(field: FieldCtx, dim: int, idx, terms):
    """Length-dim column vector from (coefficient, index) terms; idx maps an
    index to its coordinate."""
    v = [0] * dim
    for coeff, i in terms:
        j = idx(i)
        v[j] = field.add(v[j], field.scalar(coeff))
    return tuple(v)


class _Builder:
    """Accumulates images of basis vectors; one assignment each.

    idx maps an index to its coordinate: the signed indices of a SympSpace
    (SympSpace.builder), or 1..n on the n-space V of the x2/y2 actions.
    """

    def __init__(self, field: FieldCtx, dim: int, idx):
        self.field, self.dim, self.idx = field, dim, idx
        self.cols: dict[int, tuple] = {}

    def set(self, i: int, terms):
        j = self.idx(i)
        if j in self.cols:
            raise BadParam(f"basis vector e_{i} assigned twice")
        self.cols[j] = _vector(self.field, self.dim, self.idx, terms)

    def send(self, i: int, j: int):
        """e_i -> e_j."""
        self.set(i, [(1, j)])

    def fix(self, i: int):
        self.send(i, i)

    def fix_pm(self, i: int):
        self.fix(i)
        self.fix(-i)

    def swap_pm(self, i: int, j: int):
        for s in (1, -1):
            self.send(s * i, s * j)
            self.send(s * j, s * i)

    def cycle_pm(self, i: int, j: int, k: int):
        for s in (1, -1):
            self.send(s * i, s * j)
            self.send(s * j, s * k)
            self.send(s * k, s * i)

    def fill_identity(self):
        for j in range(self.dim):
            if j not in self.cols:
                self.cols[j] = tuple(int(i == j) for i in range(self.dim))

    def build(self) -> Mat:
        dim = self.dim
        if len(self.cols) != dim:
            missing = sorted(set(range(dim)) - set(self.cols))
            raise BadParam(f"unassigned basis columns {missing}")
        return Mat._make(self.field, tuple(zip(*(self.cols[j] for j in range(dim)))))


def _setup(n: int, q: int, a, field: FieldCtx | None):
    """The recipes' shared prologue: the field (F_q's standard field by
    default), a as a nonzero element of it, and the symplectic space."""
    field = field or standard_field(q)
    if field.q != q:
        raise BadParam("field size mismatch")
    a = field.elem(a)
    if not a:
        raise BadParam("a must be nonzero")
    return SympSpace.make(n, field), a


def _hatgl(a_mat: Mat) -> Mat:
    """diag(A, A^{-T}) acting on V + JV."""
    return Mat.block_diag([a_mat, a_mat.inverse().transpose()])


def restrict(g: Mat, basis, quotient=()) -> Mat:
    """Matrix of g on span(quotient + basis) / span(quotient), in basis.

    basis and quotient are sequences of packed vectors.  One elimination of
    [W | gW], W the columns quotient + basis, writes each g w in W; BadParam
    if W is dependent, span(W) is not g-invariant, or span(quotient) is not.
    """
    vecs = (*quotient, *basis)
    k, m = len(quotient), len(vecs)
    w = Mat._make(g.field, tuple(zip(*vecs)) or ((),) * g.rows, m)
    _, pivots, _, coords = w._echelon(g * w)
    if len(pivots) < m:
        raise BadParam("the basis vectors are dependent")
    if any(map(any, coords[m:])):
        raise BadParam("the span is not invariant")
    if any(any(row[:k]) for row in coords[k:m]):
        raise BadParam("the quotient span is not invariant")
    return Mat._make(g.field, tuple(tuple(row[k:]) for row in coords[k:m]), m - k)


@dataclass(frozen=True)
class GeneratorPair:
    space: SympSpace
    x: Mat
    y: Mat
    n: int
    q: int
    a: FieldElem
    recipe: str

    @property
    def field(self) -> FieldCtx:
        return self.space.field

    def commutator(self) -> Mat:
        """[x, y] = x y^{-1} x y, formed on the first call; later calls
        return the same immutable Mat."""
        return self._commutator

    @cached_property
    def _commutator(self) -> Mat:
        return paper_commutator(self.x, self.y)

    def validate(self) -> "GeneratorPair":
        ident = Mat.identity(self.field, 2 * self.n)
        if self.x * self.x != ident:
            raise BadParam("x^2 != I")
        if self.y ** 3 != ident:
            raise BadParam("y^3 != I")
        if not self.space.is_symplectic(self.x) or not self.space.is_symplectic(self.y):
            raise BadParam("generators do not preserve the symplectic form")
        return self


# ---------------------------------------------------------------------------
# the general recipe (n = 4 or n >= 6)
# ---------------------------------------------------------------------------

_ETA1 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
_ETA2 = ((0, 0, 1), (0, 1, 1), (1, 0, 1))
_ETA3 = ((0, 1, 1), (1, 1, 0), (0, 0, 1))
_ETA2_INV_T = ((1, 1, 1), (0, 1, 0), (1, 0, 0))  # (_ETA2^-1)^T over F_2


def _x1_matrix(space: SympSpace, r: int) -> Mat:
    F = space.field
    b = space.builder()
    if r != 0:
        return Mat.identity(F, 2 * space.n)
    if F.p > 2:
        b.set(1, [(1, -2)])
        b.set(-2, [(1, 1)])
        b.set(2, [(-1, -1)])
        b.set(-1, [(-1, 2)])
    else:
        b.set(1, [(1, 1), (1, -1)])
        b.set(-1, [(1, -1)])
        b.set(2, [(1, -2)])
        b.set(-2, [(1, 2)])
    b.fill_identity()
    return b.build()


def _x2_action(n: int, field: FieldCtx, a: FieldElem) -> Mat:
    """The action A of x_2 on V; x_2 = diag(A, A^{-T})."""
    p = field.p
    m, r = divmod(n, 3)
    b = _Builder(field, n, lambda i: i - 1)
    if r == 0:
        b.fix(1)
        b.fix(2)
    elif r == 1:
        b.send(1, 2)
        b.send(2, 1)
        if n >= 7:
            b.fix(3)
    else:
        b.send(1, 4)
        b.send(4, 1)
        b.send(2, 3)
        b.send(3, 2)
    for j in range(0, m - 3):
        b.fix(3 * j + 5 + r)
    if n >= 9:
        b.set(n - 4, [(-1 if n != 11 else 1, n - 4)])
    for j in range(0, m - 1):
        i1, i2 = 3 * j + 3 + r, 3 * j + 4 + r
        b.send(i1, i2)
        b.send(i2, i1)
    # gamma block on <e_{n-1}, e_n>
    transposed = n == 4 or (p == 2 and n in (7, 9, 11))
    if transposed:
        # gamma^T = [[-1, a], [0, 1]]
        b.set(n - 1, [(-1, n - 1)])
        b.set(n, [(a, n - 1), (1, n)])
    else:
        # gamma = [[-1, 0], [a, 1]]
        b.set(n - 1, [(-1, n - 1), (a, n)])
        b.fix(n)
    return b.build()


def _y1_matrix(space: SympSpace, r: int) -> Mat:
    F = space.field
    if r == 0:
        return Mat.identity(F, 2 * space.n)
    b = space.builder()
    b.set(1, [(1, -1)])
    b.set(-1, [(-1, 1), (-1, -1)])
    b.fill_identity()
    return b.build()


def _y2_action(n: int, field: FieldCtx, q: int) -> Mat:
    """The action B of y_2 on V; y_2 = diag(B, B^{-T})."""
    p = field.p
    m, r = divmod(n, 3)
    b = _Builder(field, n, lambda i: i - 1)
    for j in range(1, r + 1):
        b.fix(j)
    for j in range(0, m - 1):
        i1, i2, i3 = 3 * j + 1 + r, 3 * j + 2 + r, 3 * j + 3 + r
        b.send(i1, i2)
        b.send(i2, i3)
        b.send(i3, i1)
    if n in (4, 8):
        eta = _ETA1
    elif p == 2 and n in (7, 9, 11):
        eta = _ETA2_INV_T
    elif p > 2:
        eta = _ETA1
    elif q > 2:
        eta = _ETA2
    else:
        eta = _ETA3
    for jj in range(3):
        b.set(n - 2 + jj, [(eta[ii][jj], n - 2 + ii) for ii in range(3)])
    return b.build()


# x, y and their factors are dense 2n x 2n matrices, so memory grows as n^2:
# n = 512 takes about 100 MB and 5 s, and n = 4096 would take 64 times that.
_N_LIMIT = 512


def build_general(n: int, q: int, a, field: FieldCtx | None = None) -> GeneratorPair:
    """The section-2 recipe: x = x1 x2, y = y1 y2; OutOfRange past
    n = _N_LIMIT, before any matrix."""
    if not (n == 4 or n >= 6):
        raise BadParam("general recipe needs n = 4 or n >= 6")
    if n > _N_LIMIT:
        raise OutOfRange(f"general recipe at n = {n}: n is past the bound {_N_LIMIT}")
    if (n, q) == (4, 2):
        raise BadParam("(n, q) = (4, 2) is excluded")
    space, a = _setup(n, q, a, field)
    field = space.field
    r = n % 3
    x1 = _x1_matrix(space, r)
    x2 = _hatgl(_x2_action(n, field, a))
    y1 = _y1_matrix(space, r)
    y2 = _hatgl(_y2_action(n, field, q))
    if x1 * x2 != x2 * x1 or y1 * y2 != y2 * y1:
        raise CheckFailed("the factors of x or of y do not commute")
    pair = GeneratorPair(space=space, x=x1 * x2, y=y1 * y2, n=n, q=q, a=a,
                         recipe="general")
    return pair.validate()


# ---------------------------------------------------------------------------
# bespoke recipes
# ---------------------------------------------------------------------------

def build_n5(q: int, a, field: FieldCtx | None = None) -> GeneratorPair:
    if q <= 2:
        raise BadParam("n = 5 recipe needs q > 2")
    space, a = _setup(5, q, a, field)
    bx = space.builder()
    bx.swap_pm(1, 3)
    bx.fix_pm(2)
    # gamma^T on <e_4, e_5>, gamma on <e_-4, e_-5>
    bx.set(4, [(-1, 4)])
    bx.set(5, [(a, 4), (1, 5)])
    bx.set(-4, [(-1, -4), (a, -5)])
    bx.set(-5, [(1, -5)])
    by = space.builder()
    for i in (1, 5):
        by.set(i, [(1, -i)])
        by.set(-i, [(-1, i), (-1, -i)])
    by.cycle_pm(2, 3, 4)
    pair = GeneratorPair(space=space, x=bx.build(), y=by.build(), n=5, q=q,
                         a=a, recipe="n5")
    return pair.validate()


def build_n6_alt(q: int, a, field: FieldCtx | None = None) -> GeneratorPair:
    if q <= 2 or q == 4:
        raise BadParam("alternative n = 6 recipe needs q > 2, q != 4")
    space, a = _setup(6, q, a, field)
    bx = space.builder()
    bx.swap_pm(1, 2)
    bx.swap_pm(3, 4)
    # gamma on <e_5, e_6>, gamma^T on <e_-5, e_-6>
    bx.set(5, [(-1, 5), (a, 6)])
    bx.set(6, [(1, 6)])
    bx.set(-5, [(-1, -5)])
    bx.set(-6, [(a, -5), (1, -6)])
    by = space.builder()
    by.set(1, [(1, 3)])
    by.set(3, [(-1, 1), (-1, 3)])
    by.set(-1, [(-1, -1), (1, -3)])
    by.set(-3, [(-1, -1)])
    by.set(2, [(1, -2)])
    by.set(-2, [(-1, 2), (-1, -2)])
    by.cycle_pm(4, 5, 6)
    pair = GeneratorPair(space=space, x=bx.build(), y=by.build(), n=6, q=q,
                         a=a, recipe="n6alt")
    return pair.validate()


def build_n8_alt(q: int, a, field: FieldCtx | None = None) -> GeneratorPair:
    if q <= 2:
        raise BadParam("alternative n = 8 recipe needs q > 2")
    space, a = _setup(8, q, a, field)
    bx = space.builder()
    bx.swap_pm(1, 2)
    bx.swap_pm(4, 5)
    bx.fix_pm(3)
    # zeta on <e_6, e_7, e_8>, zeta^T on the negatives
    bx.set(6, [(-1, 6)])
    bx.set(7, [(-1, 7)])
    bx.set(8, [(a, 6), (1, 8)])
    bx.set(-6, [(-1, -6), (a, -8)])
    bx.set(-7, [(-1, -7)])
    bx.set(-8, [(1, -8)])
    by = space.builder()
    for i in (1, 8):
        by.set(i, [(1, -i)])
        by.set(-i, [(-1, i), (-1, -i)])
    by.cycle_pm(2, 3, 4)
    by.cycle_pm(5, 6, 7)
    pair = GeneratorPair(space=space, x=bx.build(), y=by.build(), n=8, q=q,
                         a=a, recipe="n8alt")
    return pair.validate()


def build(recipe: str, n: int, q: int, a, field: FieldCtx | None = None) -> GeneratorPair:
    if recipe == "general":
        return build_general(n, q, a, field)
    if recipe == "n5":
        if n != 5:
            raise BadParam("recipe n5 is for n = 5")
        return build_n5(q, a, field)
    if recipe == "n6alt":
        if n != 6:
            raise BadParam("recipe n6alt is for n = 6")
        return build_n6_alt(q, a, field)
    if recipe == "n8alt":
        if n != 8:
            raise BadParam("recipe n8alt is for n = 8")
        return build_n8_alt(q, a, field)
    raise BadParam(f"unknown recipe {recipe!r}")


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def tau_exponent(recipe: str, n: int, p: int) -> int:
    if recipe == "n5":
        return 6
    if recipe == "n6alt":
        return 5
    if recipe == "n8alt":
        return 4 if p == 2 else 8
    if recipe == "general":
        if n == 7:
            return 8
        if n == 9:
            return 12
        if n == 11:
            return 8 if p == 2 else 16
        if n == 10 or n >= 12:
            if n == 14 and p > 2:
                return 24 * (1 - p)
            return 24
    raise NoTauDefined(f"no tau for recipe {recipe!r}, n={n}")


def tau_of(pair: GeneratorPair) -> Mat:
    e = tau_exponent(pair.recipe, pair.n, pair.field.p)
    return pair.commutator() ** e


# ---------------------------------------------------------------------------
# section-3 block decomposition (n = 10 or n >= 12, general recipe)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockDecomp:
    """[x,y]-invariant decomposition: A_r summands, T(+-i) summands, C+-."""

    a_summands: tuple      # tuple of tuples of signed basis indices
    b_summands: tuple      # tuple of T(+-i) triples
    c_plus: tuple
    c_minus: tuple
    theta: Mat
    epsilon: int

    def all_subspaces(self):
        return self.a_summands + self.b_summands + (self.c_plus, self.c_minus)


def theta_matrix(field: FieldCtx, a, q: int) -> Mat:
    """The matrix of [x,y] on C^+ in the listed basis: theta_1/2/3 by (p, q)."""
    a = field.elem(a)
    p = field.p
    if p > 2:
        rows = [
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, -1],
            [0, 0, 0, -1, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, -a, -1, 0],
            [0, 1, 0, a * a, a, 0],
        ]
    elif q > 2:
        a1 = a + 1
        rows = [
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 1, 0, 1, a, a1],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 1],
            [0, a1, 0, 0, a, a],
        ]
    else:
        rows = [
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 0, 1],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 1, 1, 1],
            [0, 1, 0, 0, 0, 0],
        ]
    return Mat(field, rows)


def _esum(field: FieldCtx, size: int, plus, minus, eps_entries, eps: int) -> Mat:
    """Matrix from E_{i,j} index lists (1-based): plus - minus + eps*eps_entries."""
    rows = [[0] * size for _ in range(size)]
    for i, j in plus:
        rows[i - 1][j - 1] += 1
    for i, j in minus:
        rows[i - 1][j - 1] -= 1
    for i, j in eps_entries:
        rows[i - 1][j - 1] += eps
    return Mat(field, rows)


def expected_a_matrices(field: FieldCtx, n: int) -> tuple:
    """Displayed matrices of [x,y] on the A_r summands, with (eps, order)."""
    p = field.p
    r = n % 3
    if r == 0:
        if p > 2:
            eps = -1 if n == 12 else 1
            m1 = Mat(field, [
                [0, -1, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 1],
                [0, 0, 0, 0, eps, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 0, 0, -1, 0, 0],
            ])
            m2 = Mat(field, [
                [0, 0, 0, 0, 1, 0],
                [0, 0, -1, 0, 0, 0],
                [0, 0, 0, 1, 0, 0],
                [-1, 0, 0, 0, 0, 0],
                [0, 0, 0, 0, 0, eps],
                [0, 1, 0, 0, 0, 0],
            ])
            return (eps, ((m1, 9 - 3 * eps), (m2, 9 - 3 * eps)))
        m1 = Mat(field, [[0, 1], [1, 1]])
        m2 = Mat(field, [
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [1, 0, 1, 0],
        ])
        m3 = Mat(field, [
            [0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
        ])
        return (1, ((m1, 3), (m2, 4), (m3, 6)))
    if r == 1:
        eps = -1 if (n == 10 and p > 2) else 1
        m = _esum(field, 8,
                  [(1, 2), (2, 7), (5, 6), (8, 1)],
                  [(2, 3), (4, 5), (6, 3), (8, 5)],
                  [(3, 4), (7, 8)], eps)
        return (eps, ((m, 6 - 2 * eps),))
    eps = -1 if (n == 14 and p > 2) else 1
    m = _esum(field, 16,
              [(1, 7), (3, 5), (4, 11), (5, 6), (6, 2), (8, 4), (9, 15),
               (10, 1), (11, 13), (13, 14), (14, 10), (16, 12)],
              [(2, 9), (4, 3), (10, 9), (12, 3)],
              [(7, 8), (15, 16)], eps)
    return (eps, ((m, 12 - 4 * eps),))


def block_decomposition(pair: GeneratorPair) -> BlockDecomp:
    n = pair.n
    if pair.recipe != "general" or not (n == 10 or n >= 12):
        raise OutOfRange("decomposition needs the general recipe, n = 10 or n >= 12")
    field = pair.field
    p = field.p
    m, r = divmod(n, 3)
    if r == 0:
        if p > 2:
            a_summands = ((2, 3, 4, 6, 7, -1), (1, -2, -3, -4, -6, -7))
        else:
            a_summands = ((1, -1), (3, 4, -3, -4), (2, 6, 7, -2, -6, -7))
        b_starts = [5 + 3 * j for j in range(0, m - 4)]
    elif r == 1:
        a_summands = ((1, 2, 4, 5, -1, -2, -4, -5),)
        b_starts = [3 + 3 * j for j in range(0, m - 3)]
    else:
        a_summands = ((1, 2, 3, 4, 5, 6, 8, 9,
                       -1, -2, -3, -4, -5, -6, -8, -9),)
        b_starts = [7 + 3 * j for j in range(0, m - 4)]
    b_summands = []
    for i in b_starts:
        b_summands.append((i, i + 4, i + 5))
        b_summands.append((-i, -(i + 4), -(i + 5)))
    c_plus = (n - 7, n - 4, n - 3, n - 2, n - 1, n)
    c_minus = tuple(-i for i in c_plus)
    eps, _ = expected_a_matrices(field, n)
    decomp = BlockDecomp(
        a_summands=a_summands,
        b_summands=tuple(b_summands),
        c_plus=c_plus,
        c_minus=c_minus,
        theta=theta_matrix(field, pair.a, pair.q),
        epsilon=eps,
    )
    # structural sanity: the subspaces partition the 2n coordinates
    seen = []
    for sub in decomp.all_subspaces():
        seen.extend(sub)
    if sorted(pair.space.idx(i) for i in seen) != list(range(2 * n)):
        raise CheckFailed("the summands do not partition the coordinates")
    return decomp


# ---------------------------------------------------------------------------
# auxiliary matrices (root subgroups, base change, displayed generator triples)
# ---------------------------------------------------------------------------

def hat_embed_bottom(field, n: int, small: Mat) -> Mat:
    """diag(I_{n-k}, small, I_{n-k}, small^{-T}) acting on the 2n-space."""
    k = small.rows
    if k > n:
        raise BadParam("block larger than n")
    return _hatgl(Mat.block_diag([Mat.identity(field, n - k), small]))


def small_r(field, a, i: int, beta) -> Mat:
    """The root-subgroup parameter matrices r_1..r_4(beta)."""
    if field.p == 2:
        raise BadParam("this family needs odd q")
    a, b = field.elem(a), field.elem(beta)
    t3 = 3 * b                # 3*beta
    t3a = t3 / a              # 3*beta/a
    t9a2 = 9 * b / (a * a)    # 9*beta/a^2
    if i == 1:
        return Mat(field, [
            [1, 0, 0, 0],
            [-t3a, 1 + t3a, t9a2, 0],
            [b, -b, 1 - t3a, 0],
            [0, 0, 0, 1],
        ])
    if i == 2:
        return Mat(field, [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [b, -b, -t3a, 1],
        ])
    ab = a * b
    if i == 3:
        return Mat(field, [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1 + t3a, -t3a, -t9a2, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, b, -b, 1 - t3a, 0],
            [0, 0, -ab, ab, t3, 1],
        ])
    if i == 4:
        return Mat(field, [
            [1, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, -b, 1 - t3a, 0, -ab, -b],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, t3a, t9a2, 0, t3, 1 + t3a],
        ])
    raise BadParam(f"no root matrix r_{i}")


def phat_base_change(field, a, n: int) -> Mat:
    """The 2n x 2n base change diag(I, P, I, P^{-T}) with P unipotent 12 x 12."""
    if n < 12:
        raise BadParam("base change needs n >= 12")
    if field.p == 2:
        raise BadParam("this family needs odd q")
    a = field.elem(a)
    a2, a3, a5 = a**2, a**3, a**5
    n1, n2, n3 = a3 + 3, a3 + 6, a3 + 9
    n4 = n1 + n2
    den = a3 * a3 - 27
    if not den:
        raise BadParam("a^6 = 27")
    d = 1 / den
    a2n4, a2n3 = a2 * n4, a2 * n3
    t3n4, t3n3 = 3 * n4, 3 * n3
    t3an2, t3an1 = 3 * a * n2, 3 * a * n1
    t3a3 = 3 * a3
    t9a = 9 * a
    at_rows = [
        [a2n4, t3n4, t3an2, t3an1, a2n3, t3n3, t3a3, t9a, a5],
        [t3an2, a2n4, t3n4, t3n3, t3an1, a2n3, a5, t3a3, t9a],
        [t3n4, t3an2, a2n4, a2n3, t3n3, t3an1, t9a, a5, t3a3],
    ]
    p_rows = [[int(i == j) for j in range(12)] for i in range(12)]
    for i in range(9):
        for j in range(3):
            p_rows[3 + i][j] = d * at_rows[j][i]
    return hat_embed_bottom(field, n, Mat(field, p_rows))


def g3_displayed(field, a, eq: str) -> tuple:
    """The three displayed 3 x 3 generator matrices for each small-group check."""
    a = field.elem(a)
    a2, a3 = a**2, a**3

    def M(rows):
        return Mat(field, rows)

    e12 = M([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    if eq == "G3":
        c = 64 * a3
        g2 = M([[1, 0, 0], [-c, 1, 0], [0, 0, 1]])
        g3 = M([
            [-7, 1, a3 - 1],
            [-c, 1 + 8 * a3, 8 * a3 * (a3 - 1)],
            [64, -8, 9 - 8 * a3],
        ])
        return (e12, g2, g3)
    if eq == "G39":
        c = 16 * a3
        g2 = M([
            [1 - 4 * a3, 1, -(a3 + 1)],
            [c, -3, 4 * (a3 + 1)],
            [c, -4, 1 + 4 * (a3 + 1)],
        ])
        g3 = M([[1, 0, 0], [c, 1, 0], [0, 0, 1]])
        return (e12, g2, g3)
    if eq == "39":
        ap2 = a + 2
        if not ap2:
            raise BadParam("a = -2")
        beta = (a - 2) * (7 * a2 + 8 * a + 4)
        c = 2 * a3 * ap2
        g2 = M([
            [1 + 4 * a3 / ap2, 1, -(beta / (4 * a2 * ap2))],
            [-c, 1 - ap2 * ap2 / 2, ap2 * beta / (8 * a2)],
            [8 * a**5 / ap2, 2 * a2, 1 - beta / (2 * ap2)],
        ])
        g3 = M([[1, 0, 0], [-c, 1, 0], [0, 0, 1]])
        return (e12, g2, g3)
    if eq == "G311":
        ap2 = a + 2
        if not ap2:
            raise BadParam("a = -2")
        beta = (3 * a + 2) * (3 * a2 + 4)
        c = 32 * a3 * ap2
        g1 = M([[1, c, 0], [0, 1, 0], [0, 0, 1]])
        g2 = M([
            [1 - 16 * a3 / ap2, c, -(2 * a * beta / ap2)],
            [1, 1 - 2 * ap2 * ap2, beta / (8 * a2)],
            [16 * a2 / ap2, -(32 * a2 * ap2), 1 + 2 * beta / ap2],
        ])
        g3 = M([[1, 0, 0], [1, 1, 0], [0, 0, 1]])
        return (g1, g2, g3)
    if eq == "SL3-5":
        g1 = M([[1, 0, 0], [0, 1, 0], [a**4, 0, 1]])
        g2 = M([[1, 0, 0], [0, 1, -a2], [0, 0, 1]])
        return (g1, g2, e12)
    raise BadParam(f"unknown generator triple {eq!r}")
