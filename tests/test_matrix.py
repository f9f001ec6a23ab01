"""Exact linear algebra: elimination, charpoly cross-checks, invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympgen import gf, matrix
from sympgen.gf import FieldElem
from sympgen.errors import CheckFailed, ShapeMismatch, SingularMatrix
from sympgen.matrix import (
    Mat,
    _spin,
    char_poly,
    char_poly_berkowitz,
    eigenspace,
    in_span,
    paper_commutator,
    similarity_invariants,
)
from sympgen.poly import Poly, is_irreducible, is_self_reciprocal

F2 = gf.standard_field(2)
F3 = gf.standard_field(3)
F5 = gf.standard_field(5)
# one field or more of each kind, as in test_gf: prime, tabled p = 2, tabled
# odd, untabled
KINDS = [2, 7, 16, 27, 2**17, 3**11]


def rand_mat(ctx, n, rng):
    return Mat(ctx, [[FieldElem(ctx, rng.randrange(ctx.q)) for _ in range(n)] for _ in range(n)])


def test_identity_inverse():
    assert Mat.identity(F5, 4).inverse() == Mat.identity(F5, 4)


def test_mul_inverse_roundtrip():
    rng = random.Random(0)
    for q in [2, 3, 4, 5, 9]:
        ctx = gf.standard_field(q)
        for _ in range(10):
            m = rand_mat(ctx, 5, rng)
            if not m.det():
                continue
            assert m * m.inverse() == Mat.identity(ctx, 5)


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrix):
        Mat(F3, [[1, 2], [2, 1]]).inverse()  # det = 1-4 = 0 mod 3


def test_kernel_j_squared_plus_identity():
    # with n = 2: J^2 = -I, so J^2 + I = 0 and the kernel is everything
    J = Mat(F3, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
    k = (J * J + Mat.identity(F3, 4)).kernel()
    assert len(k) == 4


def test_det_multiplicative():
    rng = random.Random(1)
    for _ in range(20):
        a, b = rand_mat(F5, 4, rng), rand_mat(F5, 4, rng)
        assert (a * b).det() == a.det() * b.det()


def test_rank_kernel_dimension():
    rng = random.Random(2)
    for _ in range(20):
        m = rand_mat(F3, 5, rng)
        assert len(m.kernel()) == len(m.transpose().kernel())
        for v in m.kernel():
            assert all(x == 0 for x in m.apply(v))


def test_from_function_keeps_the_column_count_without_rows():
    m = Mat.from_function(F5, 0, 4, lambda i, j: 1)
    assert (m.rows, m.cols) == (0, 4) and m == Mat.zeros(F5, 0, 4)
    assert m.transpose() == Mat.zeros(F5, 4, 0)


def test_char_poly_identity():
    assert char_poly(Mat.identity(F3, 3)) == Poly(F3, [-1, 1]) ** 3


def test_char_poly_companion():
    # companion matrix of t^3 + 2t + 1 over F_5
    c = Mat(F5, [[0, 0, -1], [1, 0, -2], [0, 1, 0]])
    assert char_poly(c) == Poly(F5, [1, 2, 0, 1])


@pytest.mark.parametrize("q", sorted({2, 3, 4, 5, 8, 9, *KINDS}))
def test_char_poly_cross_check(q):
    # every field kind, so each of its axpy kernels (the generic one of an
    # untabled field too) meets the Berkowitz oracle on add and mul; the
    # sparse matrices take the spin through several witnesses
    ctx = gf.standard_field(q)
    rng, sparse_rng = random.Random(q), random.Random(f"sparse,{q}")
    for n in [1, 2, 3, 5, 8, 12] if q <= 27 else [1, 2, 3, 5]:
        m = rand_mat(ctx, n, rng)
        assert char_poly(m) == char_poly_berkowitz(m)
        sparse = Mat._make(ctx, tuple(tuple(sparse_rng.randrange(q) if sparse_rng.random() < 0.3
                                            else 0 for _ in range(n)) for _ in range(n)))
        assert char_poly(sparse) == char_poly_berkowitz(sparse)


@pytest.mark.parametrize("q", KINDS)
def test_inverse_times_the_matrix_is_the_identity(q):
    ctx = gf.standard_field(q)
    rng = random.Random(f"inverse,{q}")
    for n in [1, 2, 3, 5, 8] if q <= 27 else [1, 2, 4]:
        m = rand_mat(ctx, n, rng)
        while not m.det():
            m = rand_mat(ctx, n, rng)
        assert m.inverse() * m == Mat.identity(ctx, n) == m * m.inverse()


def test_char_poly_det_and_trace_coeffs():
    rng = random.Random(3)
    for _ in range(10):
        m = rand_mat(F5, 4, rng)
        cp = char_poly(m)
        assert cp.degree == 4 and cp.lead() == 1
        assert cp.coeffs[0] == m.det().val  # (-1)^n det, n even
        assert F5.neg(cp.coeffs[3]) == m.trace().val


def test_eigenspace_identity():
    assert len(eigenspace(Mat.identity(F5, 3), 1)) == 3


def test_eigenspace_in_extension():
    # rotation [[0,-1],[1,0]] over F_3 has eigenvalues +-i in F_9
    m = Mat(F3, [[0, -1], [1, 0]])
    F9 = gf.standard_field(9)
    e = gf.embed(F3, F9)
    i_val = next(v for v in F9.elements() if v * v == -1 + F9.elem(0))
    space = eigenspace(m, i_val, embedding=e)
    assert len(space) == 1


def test_similarity_invariants_identity():
    assert similarity_invariants(Mat.identity(F3, 2)) == [Poly(F3, [-1, 1])] * 2


def test_similarity_invariants_companion():
    c = Mat(F5, [[0, -1], [1, -1]])  # companion of t^2 + t + 1
    assert similarity_invariants(c) == [Poly(F5, [1, 1, 1])]


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_similarity_invariants_product_is_charpoly(q):
    ctx = gf.standard_field(q)
    rng = random.Random(q + 100)
    for n in [2, 3, 5, 7]:
        m = rand_mat(ctx, n, rng)
        invs = similarity_invariants(m)
        prod = Poly.one(ctx)
        for p in invs:
            prod = prod * p
        assert prod == char_poly(m)
        # divisibility chain
        for a, b in zip(invs, invs[1:]):
            assert (b % a).is_zero()


def test_similarity_invariants_conjugation_invariant():
    rng = random.Random(7)
    m = rand_mat(F5, 5, rng)
    while True:
        g = rand_mat(F5, 5, rng)
        if g.det():
            break
    assert similarity_invariants(m) == similarity_invariants(g * m * g.inverse())


def _companion(f):
    """The companion matrix of a monic polynomial: t f-cyclic on e_1."""
    F, d = f.field, f.degree
    return Mat._make(F, tuple(tuple(F.neg(f.coeffs[i]) if j == d - 1 else int(i == j + 1)
                                    for j in range(d)) for i in range(d)))


def _echelon(F, vecs):
    """The pivot columns of the span of vecs, by plain Gaussian elimination on
    F's sub, mul and inv alone: apart from Mat._echelon and the axpy kernels."""
    rows, pivots = [list(v) for v in vecs], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv_inv = F.inv(rows[r][c])
        for i in range(r + 1, len(rows)):
            f = F.mul(rows[i][c], pv_inv)
            rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def _conjugate(m, rng):
    while True:
        c = rand_mat(m.field, m.rows, rng)
        if c.det():
            return c * m * c.inverse()


def _jordan(F, lam, k):
    return Mat._make(F, tuple(tuple(lam if i == j else int(j == i + 1) for j in range(k))
                              for i in range(k)), k)


def _spin_shapes(F, rng):
    """0x0, 1x1, singular, diagonal, cyclic, derogatory and Jordan shapes."""
    q = F.q
    f = next(p for p in (Poly._make(F, (c0, c1, 1)) for c0 in range(1, q) for c1 in range(q))
             if is_irreducible(p))
    lam = rng.randrange(1, q)
    shapes = [Mat.identity(F, 0), Mat._make(F, ((0,),)), Mat._make(F, ((lam,),)),
              Mat.zeros(F, 3), _jordan(F, 0, 4), Mat.block_diag([_jordan(F, 0, 2), _companion(f)]),
              Mat.block_diag([Mat._make(F, ((v,),)) for v in (lam, 1, lam, 0, 1)]),
              Mat.identity(F, 4), _companion(f * f * Poly(F, (lam, 1))),
              Mat.block_diag([_companion(f)] * 3), Mat.block_diag([_companion(f), _jordan(F, 1, 2),
                                                                   _companion(f)]),
              Mat.block_diag([_jordan(F, lam, 3), _jordan(F, lam, 2), _jordan(F, lam, 1)])]
    singular = rand_mat(F, 5, rng)
    singular = Mat._make(F, singular.data[:4] + (singular.data[1],))
    return shapes + [singular] + [_conjugate(m, rng) for m in shapes[5:]]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25])
def test_spin_chi_matches_berkowitz(q):
    # each witness adds the cyclic space of its e_i, less the earlier ones';
    # the Krylov vectors g^j e_i (j < deg rho_i) are made by step, start at
    # e_i, and span V
    F = gf.standard_field(q)
    for m in _spin_shapes(F, random.Random(f"spin,{q}")):
        chi, step, krylov, witnesses = _spin(m)
        assert chi == char_poly_berkowitz(m)
        assert list(krylov) == witnesses == sorted(witnesses)
        assert witnesses[:1] == ([0] if m.rows else [])
        heads = []
        for i in witnesses:
            vecs = krylov[i]
            assert vecs[0] == tuple(int(i == j) for j in range(m.rows))
            assert all(step(u) == m.apply(u) == v for u, v in zip(vecs, vecs[1:]))
            heads += vecs[:-1]  # the last is the first dependent one
        assert len(heads) == m.rows == len(_echelon(F, heads))


def test_char_poly_matches_berkowitz_on_memo_hits_in_another_order():
    # block_diag(C(f), C(h)) spins rho = (f, h) on the witnesses e_1, e_2 and
    # block_diag(C(h), C(f)) rho = (h, f) on e_1, e_3: the second is a hit on
    # the first's chi.  The same
    # coefficient tuples recur over F_2, F_3, F_4 and F_9 without a cache
    # clear, and t h has the degrees of (t + 1) h, so a memo keyed without
    # the field, on the unsorted rho_i or on their degrees gives a wrong chi
    # or no hit
    for q in (2, 3, 4, 9):
        F = gf.standard_field(q)
        h = Poly(F, (1, 1, 1))  # t^2 + t + 1
        for f in (Poly(F, (1, 1)), Poly(F, (0, 1))):  # t + 1, t
            before = matrix._chi.cache_info()
            first = Mat.block_diag([_companion(f), _companion(h)])
            again = Mat.block_diag([_companion(h), _companion(f)])
            assert char_poly(first) == char_poly_berkowitz(first) == f * h
            assert char_poly(again) == char_poly_berkowitz(again) == f * h
            after = matrix._chi.cache_info()
            assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
            assert (_spin(first)[3], _spin(again)[3]) == ([0, 1], [0, 2])
        rng = random.Random(f"memo,{q}")
        for m in _spin_shapes(F, rng):
            assert char_poly(m) == char_poly_berkowitz(m)
            assert char_poly(m) == char_poly_berkowitz(m)


def test_the_memo_of_chi_keeps_at_most_its_bound():
    # the 300 matrices [a] over F_509 have 300 distinct rho = t - a, past the
    # _CHIS = 256 kept; the oldest are dropped and made again, still exact
    F509 = gf.standard_field(509)
    for _ in range(2):
        for a in range(1, 301):
            assert char_poly(Mat(F509, [[a]])) == Poly(F509, (-a, 1))
    info = matrix._chi.cache_info()
    assert info.maxsize == matrix._CHIS == 256
    assert info.currsize == matrix._CHIS
    assert info.misses == 600 and info.hits == 0


@pytest.mark.parametrize("q", [4, 5, 9])
def test_similarity_invariants_recover_a_known_chain(q):
    # C(f) + C(f g) + C(f^2 g), conjugated, has invariant factors f | f g | f^2 g
    ctx = gf.standard_field(q)
    f = next(p for p in (Poly._make(ctx, (c0, c1, 1)) for c0 in range(1, q) for c1 in range(q))
             if is_irreducible(p))
    g = Poly(ctx, (1, 1))
    chain = [f, f * g, f * f * g]
    m = Mat.block_diag([_companion(h) for h in chain])
    rng = random.Random(f"chain,{q}")
    while True:
        c = rand_mat(ctx, m.rows, rng)
        if c.det():
            break
    assert similarity_invariants(c * m * c.inverse()) == chain
    assert similarity_invariants(Mat.identity(ctx, 0)) == []


@pytest.mark.parametrize("shift", [1, -1])
def test_similarity_invariants_refuse_a_wrong_multiplicity(shift, monkeypatch):
    # chi's factors reported with mult + 1: the nullities of f(M)^k stall
    # below deg f (mult + 1); with mult - 1 they pass deg f (mult - 1) where
    # no Jordan block is longer than 1, so n_1 is already deg f mult.  For
    # J_3(1) over F_3 and mult - 1 = 2 the nullities run 1, 2 and land on
    # deg f (mult - 1), leaving the one invariant factor (t - 1)^2 of degree
    # 2 for dim 3
    real = matrix.factor
    monkeypatch.setattr(matrix, "factor", lambda f: [(g, mult + shift) for g, mult in real(f)])
    c = _companion(Poly(F5, [2, 0, 1]))  # t^2 + 2, irreducible over F_5
    jordan = Mat(F3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for m in (Mat.identity(F3, 3), Mat(F3, [[1, 0, 0], [0, 2, 0], [0, 0, 2]]),
              Mat.block_diag([c, c]), jordan):
        with pytest.raises(CheckFailed):
            similarity_invariants(m)


def _gauss_jordan(F, rows, ncols):
    """(reduced rows, pivot cols, det of the square part) by plain
    Gauss-Jordan on F's neg, sub, mul and inv alone, every pivot row scaled
    by its inverse: apart from Mat._echelon and the axpy kernels."""
    m, pivots, det = [list(r) for r in rows], [], 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            det = F.neg(det)
        det = F.mul(det, m[r][c])
        pv_inv = F.inv(m[r][c])
        m[r] = [F.mul(pv_inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots, det


def _unit_pivot_shapes(F, n, rng):
    """A permutation, upper and lower unitriangular matrices, and singular
    ones: a permutation and an upper unitriangular matrix with a row zeroed."""
    perm = rng.sample(range(n), n)
    p = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randrange(F.q) if j > i else 0 for j in range(n)]
             for i in range(n)]
    lower = [list(col) for col in zip(*upper)]
    gone = rng.randrange(n)
    cut_p, cut_upper = [r[:] for r in p], [r[:] for r in upper]
    cut_p[gone], cut_upper[gone] = [0] * n, [0] * n
    return [Mat._make(F, tuple(map(tuple, m))) for m in (p, upper, lower, cut_p, cut_upper)]


@pytest.mark.parametrize("q", KINDS)
def test_unit_pivot_eliminations_match_gauss_jordan(q):
    # pivots of 1 throughout: _echelon copies those rows, unscaled
    ctx = gf.standard_field(q)
    rng = random.Random(f"unit pivots,{q}")
    for n in [1, 2, 5, 9]:
        for m in _unit_pivot_shapes(ctx, n, rng):
            red, pivots, det = _gauss_jordan(ctx, m.data, n)
            assert m.det().val == (det if len(pivots) == n else 0)
            kernel = []
            for fc in (c for c in range(n) if c not in pivots):
                vec = [0] * n
                vec[fc] = 1
                for r, pc in enumerate(pivots):
                    vec[pc] = ctx.neg(red[r][fc])
                kernel.append(tuple(vec))
            assert m.kernel() == kernel
            if len(pivots) < n:
                with pytest.raises(SingularMatrix):
                    m.inverse()
                continue
            eye = Mat.identity(ctx, n).data
            aug, _, _ = _gauss_jordan(ctx, [r + e for r, e in zip(m.data, eye)], n)
            assert m.inverse().data == tuple(tuple(row[n:]) for row in aug)


def test_paper_commutator_involution_case():
    # when x^2 = I the paper convention agrees with x^-1 y^-1 x y
    x = Mat(F5, [[0, 1], [1, 0]])
    rng = random.Random(11)
    while True:
        y = rand_mat(F5, 2, rng)
        if y.det():
            break
    assert paper_commutator(x, y) == x.inverse() * y.inverse() * x * y
    assert paper_commutator(Mat.identity(F5, 2), y) == Mat.identity(F5, 2)


def test_symplectic_charpoly_self_reciprocal():
    # random symplectic-ish check via J-conjugation: charpoly(M) vs M^-T
    rng = random.Random(13)
    n = 3
    J = Mat(F5, [[0] * n + [-1 if i == j else 0 for j in range(n)] for i in range(n)]
            + [[1 if i == j else 0 for j in range(n)] + [0] * n for i in range(n)])
    assert J.transpose() == -J
    # build symplectic matrices as products of symplectic transvections is
    # overkill here; instead verify the reciprocity property on the J itself
    assert is_self_reciprocal(char_poly(J))


def test_dump_format():
    m = Mat(F3, [[1, 2], [0, 1]])
    lines = m.dump().splitlines()
    assert lines[0] == "2 2 3^1/0,1"
    assert lines[1] == "1,2"


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_charpoly_similarity_property(q, n, data):
    ctx = gf.standard_field(q)
    entries = [FieldElem(ctx, v) for v in data.draw(
        st.lists(st.integers(0, ctx.q - 1), min_size=2 * n * n, max_size=2 * n * n))]
    m = Mat(ctx, [entries[i * n:(i + 1) * n] for i in range(n)])
    g = Mat(ctx, [entries[n * n + i * n:n * n + (i + 1) * n] for i in range(n)])
    if not g.det():
        return
    assert char_poly(m) == char_poly(g * m * g.inverse())


def test_in_span():
    basis = [(1, 0, 2), (0, 1, 1)]
    assert in_span(basis, (1, 1, 0), F3)  # = b1 + b2 over F_3: (1,1,3)=(1,1,0)
    assert not in_span(basis, (0, 0, 1), F3)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    F7 = gf.standard_field(7)
    i2 = Mat.identity(F7, 2)
    assert i2.solve((1, 2)) == (1, 2)
    for rhs in ((1, 2, 3), (1,)):
        with pytest.raises(ShapeMismatch):
            i2.solve(rhs)
    with pytest.raises(ShapeMismatch):
        in_span([(1, 0)], (1, 0, 5), F7)


def test_powers_make_one_product_per_squaring_and_set_bit(monkeypatch):
    # g ** e: bit_length(e) - 1 squarings and popcount(e) - 1 products, no
    # product by I and no squaring past the top bit
    products = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    g = rand_mat(gf.standard_field(7), 4, random.Random(3))
    want = Mat.identity(g.field, 4)
    for e in range(70):
        products.clear()
        got = g ** e
        assert len(products) == (e.bit_length() + bin(e).count("1") - 2 if e else 0)
        assert got == want
        want = mul(want, g)
    products.clear()
    assert g ** 3 == mul(mul(g, g), g) and len(products) == 2
